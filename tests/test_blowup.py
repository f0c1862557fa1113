import gc
import importlib
import math
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxdenum import (
    BlowupContext,
    Factorization,
    InputError,
    InternalCheckError,
    NotAMember,
    PreconditionError,
    adjustment,
    adjustment_table,
    blowup,
    classify,
    contains,
    dmax,
    dmax_additive,
    dmax_symmetric_blowup,
    enumerate_factorizations,
    is_additive,
    is_symmetric,
    least_in_class,
    make_semigroup,
    max_denumerant_element,
    max_denumerant_element_via_blowup,
    order,
    residue_report,
)
from maxdenum.cli import main

from conftest import NAMED, REFERENCE

# one input per blowup-based dispatch outcome of `dmax --method auto`; none
# is an arithmetic sequence or has three generators
SHARING_INPUTS = {
    "additive": (5, 8, 9, 11),
    "symmetric-blowup": (5, 7, 8, 9),
    "general": REFERENCE,
}

# multiplicity 1..12 and up to four more generators below 3e
small_gen_lists = (
    st.integers(1, 12)
    .flatmap(
        lambda e: st.lists(st.integers(e + 1, 3 * e), max_size=4).map(lambda xs: [e, *xs])
    )
    .filter(lambda xs: math.gcd(*xs) == 1)
)


def brute_scan(S, ctx, r):
    """Rows (s, ord(s), s - ord(s)*e) of class r from its least element up
    to the first s whose adjustment is the least blowup element of the
    class, with ord(s) the longest length among all factorizations of s."""
    e = S.multiplicity
    rows = []
    s = least_in_class(S, r)
    while not rows or rows[-1][2] != ctx.least_blowup_in_class(r):
        longest = max(f.length for f in enumerate_factorizations(S, s))
        rows.append((s, longest, s - longest * e))
        s += e
    return tuple(rows)


class TestBlowupContext:
    def test_generating_set_keeps_source_order(self):
        ctx = blowup(make_semigroup(REFERENCE))
        assert ctx.dset.elements == (15, 2, 21, 23, 56)
        assert ctx.blowup.generators == (2, 15)

    def test_blowup_of_small_example_is_whole_numbers(self):
        ctx = blowup(make_semigroup([4, 5, 6]))
        assert ctx.dset.elements == (4, 1, 2)
        assert ctx.blowup.generators == (1,)

    def test_source_is_contained_in_blowup(self):
        S = make_semigroup([6, 9, 20])
        ctx = blowup(S)
        for n in range(0, 80):
            if contains(S, n):
                assert contains(ctx.blowup, n)

    def test_least_blowup_element_uses_source_multiplicity_classes(self):
        ctx = blowup(make_semigroup(REFERENCE))
        assert ctx.least_blowup_in_class(11) == 26
        for r in range(15):
            f = ctx.least_blowup_in_class(r)
            assert f % 15 == r
            assert contains(ctx.blowup, f)
            assert not contains(ctx.blowup, f - 15)

    def test_factorizations_over_dset_memoized(self):
        ctx = blowup(make_semigroup(REFERENCE))
        first = ctx.factorizations_over_dset(56)
        assert ctx.factorizations_over_dset(56) is first
        assert len(first) == 8


class TestAdjustment:
    def test_value_is_element_minus_order_steps(self):
        S = make_semigroup(REFERENCE)
        assert adjustment(S, 191) == 191 - 10 * 15 == 41
        assert adjustment(S, 221) == 26

    def test_rejects_non_members(self):
        with pytest.raises(NotAMember):
            adjustment(make_semigroup([4, 5, 6]), 7)

    def test_nonincreasing_along_each_class(self):
        S = make_semigroup([8, 13, 18, 23])
        for r in range(8):
            s = least_in_class(S, r)
            prev = adjustment(S, s)
            for _ in range(40):
                s += 8
                cur = adjustment(S, s)
                assert cur <= prev
                prev = cur


class TestAdjustmentTable:
    def test_reference_class_scan(self):
        ctx = blowup(make_semigroup(REFERENCE))
        table = adjustment_table(ctx, 11)
        assert table.scan_log == (
            (71, 1, 56), (86, 2, 56), (101, 3, 56), (116, 4, 56),
            (131, 5, 56), (146, 6, 56), (161, 7, 56), (176, 8, 56),
            (191, 10, 41), (206, 11, 41), (221, 13, 26),
        )
        assert [(e.value, e.min_order) for e in table.entries] == [
            (26, 13), (41, 10), (56, 1),
        ]

    def test_residue_out_of_range_rejected(self):
        ctx = blowup(make_semigroup([4, 5, 6]))
        with pytest.raises(InputError):
            adjustment_table(ctx, 4)
        with pytest.raises(InputError):
            adjustment_table(ctx, -1)

    def test_degenerate_whole_numbers_class(self):
        ctx = blowup(make_semigroup([1]))
        table = adjustment_table(ctx, 0)
        assert table.scan_log == ((0, 0, 0),)

    @given(small_gen_lists)
    @example(list(REFERENCE))
    @example([8, 13, 18, 23])
    @settings(max_examples=60, deadline=None)
    def test_scans_match_brute_force(self, gens):
        S = make_semigroup(gens)
        ctx = blowup(S)
        for r in range(S.multiplicity):
            table = adjustment_table(ctx, r)
            assert table.scan_log == brute_scan(S, ctx, r), (S, r)
            values = sorted({adj for _, _, adj in table.scan_log})
            assert [x.value for x in table.entries] == values
            for x in table.entries:
                shortest = min(f.length for f in enumerate_factorizations(ctx.dset, x.value))
                assert x.min_order == shortest, (S, r, x)

    def test_corrupt_least_blowup_table_fails_the_scan_check(self, monkeypatch, capsys):
        # the scan is read off S's frontier and cross-checked against the
        # least tables of S and B, which are built independently of it
        ctx = blowup(make_semigroup(REFERENCE))
        ctx._least_b[11] += 15
        with pytest.raises(InternalCheckError):
            adjustment_table(ctx, 11)
        # the CLI builds its own context, so corrupt the table as it is built
        init = BlowupContext.__init__

        def corrupting_init(self, source):
            init(self, source)
            self._least_b[11] += 15

        monkeypatch.setattr(BlowupContext, "__init__", corrupting_init)
        argv = ["table", *map(str, REFERENCE), "--residue", "11", "--format", "json"]
        assert main(argv) == 4
        assert "class 11" in capsys.readouterr().err

    def test_scan_starts_at_least_class_element_and_ends_stable(self):
        S = make_semigroup([7, 11, 13])
        ctx = blowup(S)
        for r in range(7):
            table = adjustment_table(ctx, r)
            first_s = table.scan_log[0][0]
            assert first_s == least_in_class(S, r)
            last = table.scan_log[-1]
            assert last[2] == ctx.least_blowup_in_class(r)


class TestResidueReport:
    def test_reference_class_candidates(self):
        ctx = blowup(make_semigroup(REFERENCE))
        report = residue_report(ctx, adjustment_table(ctx, 11))
        by_value = {v: [f.coefficients for f in facts] for v, facts in report.candidates}
        assert by_value == {
            26: [(0, 13, 0, 0, 0)],
            41: [(0, 9, 0, 1, 0), (0, 10, 1, 0, 0)],
            56: [(0, 0, 0, 0, 1), (0, 5, 0, 2, 0), (0, 6, 1, 1, 0)],
        }
        assert report.dmax_si == 3
        assert report.witness == 176

    def test_witness_attains_the_class_maximum(self):
        S = make_semigroup(REFERENCE)
        ctx = blowup(S)
        for r in range(15):
            report = residue_report(ctx, adjustment_table(ctx, r))
            assert report.witness % 15 == r
            assert max_denumerant_element(S, report.witness) == report.dmax_si

    def test_candidates_never_use_the_multiplicity_position(self):
        ctx = blowup(make_semigroup(REFERENCE))
        for r in range(15):
            report = residue_report(ctx, adjustment_table(ctx, r))
            for _, facts in report.candidates:
                for f in facts:
                    assert f.coefficients[0] == 0


class TestCandidateCounts:
    def test_counts_match_filtered_enumeration(self, corpus):
        for S in [make_semigroup(gens) for gens in NAMED] + corpus:
            ctx = blowup(S)
            e = S.multiplicity
            for r in range(e):
                table = adjustment_table(ctx, r)
                report = residue_report(ctx, table)
                assert [c.value for c in report.counts] == [x.value for x in table.entries]
                prev = None
                for entry, c in zip(table.entries, report.counts):
                    facts = ctx.factorizations_over_dset(entry.value)
                    if prev is not None:
                        bound = prev.min_order - (entry.value - prev.value) // e
                        facts = [x for x in facts if x.length < bound]
                    lengths = [x.length for x in facts]
                    assert (c.count, c.longest) == (len(lengths), max(lengths)), (
                        S, r, entry.value,
                    )
                    prev = entry

    def test_engine_and_closed_forms_never_enumerate(self, corpus, engine_results, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizations were enumerated")

        # the package exports a function named blowup, so fetch the modules
        for name in ("maxdenum.semigroup", "maxdenum.blowup"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "enumerate_factorizations", refuse)
        for S in corpus:
            fresh = make_semigroup(S.generators)
            value, reports = dmax(fresh)
            want_value, want_reports = engine_results[S.generators]
            assert value == want_value
            assert [(r.dmax_si, r.witness) for r in reports] == [
                (r.dmax_si, r.witness) for r in want_reports
            ]
            if is_additive(fresh):
                assert dmax_additive(fresh) == value
                if is_symmetric(blowup(fresh).blowup):
                    assert dmax_symmetric_blowup(fresh) == value

class TestDmax:
    def test_named_values(self):
        for gens, expected in NAMED.items():
            value, reports = dmax(make_semigroup(gens))
            assert value == expected, gens
            assert len(reports) == gens[0]

    def test_reports_cover_residues_in_order(self):
        value, reports = dmax(make_semigroup([6, 9, 20]))
        assert [r.residue for r in reports] == list(range(6))
        assert value == max(r.dmax_si for r in reports)

    def test_whole_numbers_shortcut_matches_general_scan(self):
        N = make_semigroup([1])
        value, reports = dmax(N)
        assert value == 1
        ctx = blowup(N)
        report = residue_report(ctx, adjustment_table(ctx, 0))
        assert reports[0] == report

    def test_trivial_report_structure(self):
        _, reports = dmax(make_semigroup([1]))
        assert reports[0].candidates == ((0, (Factorization((0,)),)),)


class TestElementCounting:
    def test_via_blowup_matches_direct_enumeration(self):
        S = make_semigroup(REFERENCE)
        ctx = blowup(S)
        for s in range(0, 260):
            if not contains(S, s):
                with pytest.raises(NotAMember):
                    max_denumerant_element_via_blowup(ctx, s)
                continue
            assert (
                max_denumerant_element_via_blowup(ctx, s)
                == max_denumerant_element(S, s)
            )

    def test_shifted_counts_with_zero_lead_coefficient(self):
        # factorizations of s in S of length exactly r correspond to
        # factorizations of s - r*e over dset that avoid position 0 and are
        # no longer than r
        from maxdenum import enumerate_factorizations

        S = make_semigroup([4, 5, 6])
        ctx = blowup(S)
        for s in range(0, 40):
            if not contains(S, s):
                continue
            facts = enumerate_factorizations(S, s)
            for r in range(0, order(S, s) + 3):
                exact = sum(1 for f in facts if f.length == r)
                shifted = [
                    x
                    for x in enumerate_factorizations(ctx.dset, s - r * 4)
                    if x.coefficients[0] == 0 and x.length <= r
                ]
                assert exact == len(shifted), (s, r)


@pytest.fixture
def analysis_log(monkeypatch):
    """Counts the BlowupContexts built and the residue classes scanned while
    a test runs. Only counts are kept, so no context is held alive."""
    log = {"contexts": 0, "scans": Counter()}
    init = BlowupContext.__init__

    def counting_init(self, source):
        init(self, source)
        log["contexts"] += 1

    # the package exports a function named blowup, so fetch the module
    module = importlib.import_module("maxdenum.blowup")
    least = module.least_in_class

    def counting_least(S, residue):
        # adjustment_table reads the least element once per scan of a class
        log["scans"][residue] += 1
        return least(S, residue)

    monkeypatch.setattr(BlowupContext, "__init__", counting_init)
    monkeypatch.setattr(module, "least_in_class", counting_least)
    return log


class TestSharedAnalysis:
    def test_blowup_is_shared_while_held(self):
        S = make_semigroup(REFERENCE)
        ctx = blowup(S)
        assert blowup(S) is ctx
        assert dmax(S)[1][0].ctx is ctx

    def test_each_class_is_scanned_once_per_context(self, analysis_log):
        ctx = blowup(make_semigroup(REFERENCE))
        table = adjustment_table(ctx, 11)
        assert adjustment_table(ctx, 11) is table
        assert analysis_log["scans"] == {11: 1}

    @pytest.mark.parametrize("kind", sorted(SHARING_INPUTS))
    @pytest.mark.parametrize("verify", [False, True])
    def test_cli_dmax_builds_one_analysis(self, analysis_log, capsys, kind, verify):
        argv = ["dmax", *map(str, SHARING_INPUTS[kind]), "--format", "json"]
        assert main(argv + ["--verify"] * verify) == 0
        assert f'"method_used": "{kind}"' in capsys.readouterr().out
        assert analysis_log["contexts"] == 1
        assert max(analysis_log["scans"].values()) == 1

    @pytest.mark.parametrize("kind", sorted(SHARING_INPUTS))
    def test_library_entry_points_build_one_analysis_each(self, analysis_log, kind):
        for call in (classify, dmax_additive, dmax_symmetric_blowup, dmax):
            analysis_log["contexts"] = 0
            analysis_log["scans"].clear()
            try:
                call(make_semigroup(SHARING_INPUTS[kind]))
            except PreconditionError:
                pass
            assert analysis_log["contexts"] == 1, call
            assert max(analysis_log["scans"].values()) == 1, call

    def test_no_context_outlives_its_last_holder(self, monkeypatch, capsys):
        # with the collector off only reference counting frees objects, so
        # a context kept in a reference cycle with its semigroup stays alive
        refs = []
        init = BlowupContext.__init__

        def tracking_init(self, source):
            init(self, source)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(BlowupContext, "__init__", tracking_init)
        gc.disable()
        try:
            for gens in SHARING_INPUTS.values():
                S = make_semigroup(gens)
                dmax(S)
                classify(S)
                for fast_path in (dmax_additive, dmax_symmetric_blowup):
                    try:
                        fast_path(S)
                    except PreconditionError:
                        pass
                del S
                assert main(["dmax", *map(str, gens), "--verify", "--format", "json"]) == 0
            capsys.readouterr()
            assert refs
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()
