"""Acceptance gate: one test per shipped guarantee, each printing a PASS or
FAIL line (visible under pytest -s). Every comparison is exact; nothing here
tolerates approximate agreement.
"""

import math
import random
import time
from pathlib import Path

import pytest

from maxdenum import (
    Ed3Input,
    adjustment_table,
    apery_set,
    auto_bound,
    blowup,
    ceil_div,
    contains,
    denumerant,
    dmax,
    dmax_additive,
    dmax_arithmetic,
    dmax_ed3,
    dmax_ed3_bezout,
    dmax_ed3_ceiling,
    dmax_symmetric_blowup,
    enumerate_factorizations,
    is_additive,
    is_supersymmetric,
    is_symmetric,
    make_semigroup,
    max_denumerant_element_via_blowup,
    order,
    residue_report,
)
from maxdenum.classify import _bezout, arithmetic_parameters
from maxdenum.cli import main

from conftest import NAMED, REFERENCE

GOLDEN = Path(__file__).parent / "golden"


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MAXDENUM_WIDTH", raising=False)


def test_reference_worked_example_reproduced(capsys):
    S = make_semigroup(list(REFERENCE))
    ctx = blowup(S)
    table = adjustment_table(ctx, 11)
    rows_ok = table.scan_log == (
        (71, 1, 56), (86, 2, 56), (101, 3, 56), (116, 4, 56), (131, 5, 56),
        (146, 6, 56), (161, 7, 56), (176, 8, 56), (191, 10, 41),
        (206, 11, 41), (221, 13, 26),
    )
    report = residue_report(ctx, table)
    sets = {v: [f.coefficients for f in facts] for v, facts in report.candidates}
    sets_ok = sets == {
        26: [(0, 13, 0, 0, 0)],
        41: [(0, 9, 0, 1, 0), (0, 10, 1, 0, 0)],
        56: [(0, 0, 0, 0, 1), (0, 5, 0, 2, 0), (0, 6, 1, 1, 0)],
    }
    value_ok = report.dmax_si == 3

    code = main(["table", "15", "17", "36", "38", "71", "--residue", "11",
                 "--format", "text"])
    table_text = capsys.readouterr().out
    golden_table = (GOLDEN / "table_15_17_36_38_71_r11.txt").read_text()
    code2 = main(["dmax", "15", "17", "36", "38", "71", "--format", "text"])
    dmax_text = capsys.readouterr().out
    golden_dmax = (GOLDEN / "dmax_15_17_36_38_71.txt").read_text()
    golden_ok = (
        code == 0 and code2 == 0
        and table_text.encode() == golden_table.encode()
        and dmax_text.encode() == golden_dmax.encode()
    )
    with capsys.disabled():
        check("residue-11 scan rows reproduced exactly", rows_ok, str(table.scan_log))
        check("residue-11 candidate sets reproduced exactly", sets_ok, str(sets))
        check("residue-11 class maximum is 3", value_ok, str(report.dmax_si))
        check("golden text outputs byte-identical", golden_ok)


def test_blowup_identity_example():
    ctx = blowup(make_semigroup([4, 5, 6]))
    check(
        "blowup of <4,5,6> is the whole numbers with generating set (4,1,2)",
        ctx.dset.elements == (4, 1, 2) and ctx.blowup.generators == (1,),
        f"dset={ctx.dset.elements} blowup={ctx.blowup.generators}",
    )
    d5 = denumerant(ctx.dset, 5)
    check("the value 5 has exactly 4 factorizations over (4,1,2)", d5 == 4, str(d5))


def test_engine_matches_oracle_on_every_corpus_member(
    corpus, contexts, engine_results, oracle_profiles
):
    value_bad = []
    element_bad = []
    for S in corpus:
        gens = S.generators
        value, _ = engine_results[gens]
        profile = oracle_profiles[gens]
        oracle_value = max(count for _, count in profile.values())
        if value != oracle_value:
            value_bad.append((gens, value, oracle_value))
        ctx = contexts[gens]
        for s, (_, count) in profile.items():
            got = max_denumerant_element_via_blowup(ctx, s)
            if got != count:
                element_bad.append((gens, s, got, count))
    check(
        f"maximal denumerant equals brute force on all {len(corpus)} corpus members",
        not value_bad,
        str(value_bad[:3]),
    )
    total = sum(len(p) for p in oracle_profiles.values())
    check(
        f"per-element counts equal brute force on all {total} elements up to bound",
        not element_bad,
        str(element_bad[:3]),
    )
    named_bad = [
        (gens, expected)
        for gens, expected in NAMED.items()
        if dmax(make_semigroup(list(gens)))[0] != expected
    ]
    check("frozen reference values all reproduced", not named_bad, str(named_bad))


def test_three_generator_formulas_agree():
    rng = random.Random(987654321)
    triples = set()
    while len(triples) < 200:
        a1 = rng.randint(3, 100)
        a2 = rng.randint(a1 + 1, 145)
        a3 = rng.randint(a2 + 1, 150)
        if math.gcd(a1, a2, a3) != 1:
            continue
        S = make_semigroup([a1, a2, a3])
        if S.generators != (a1, a2, a3):
            continue  # not a minimal triple
        triples.add((a1, a2, a3))
    formula_bad = []
    shift_bad = []
    for triple in sorted(triples):
        inp = Ed3Input.from_generators(*triple)
        c = dmax_ed3_ceiling(inp)
        b = dmax_ed3_bezout(inp)
        g, _ = dmax(make_semigroup(list(triple)))
        if not c == b == g:
            formula_bad.append((triple, c, b, g))
        x0, y0 = _bezout(inp.m, inp.n)
        x, y = x0 * inp.a1, y0 * inp.a1
        for k in range(-5, 6):
            if dmax_ed3_bezout(inp, (x + k * inp.n, y - k * inp.m)) != b:
                shift_bad.append((triple, k))
    check(
        f"both closed forms equal the engine on {len(triples)} random triples",
        not formula_bad,
        str(formula_bad[:3]),
    )
    check(
        "solution-shift invariance holds for shifts -5..5",
        not shift_bad,
        str(shift_bad[:3]),
    )


def test_arithmetic_sequence_formulas_agree():
    two_bad = []
    three_bad = []
    for e in range(3, 31):
        for d in range(1, 11):
            if math.gcd(e, d) != 1:
                continue
            value = dmax_arithmetic(e, d, 2)
            engine, _ = dmax(make_semigroup([e, e + d, e + 2 * d]))
            if not value == engine == ceil_div(e, 2):
                two_bad.append((e, d, value, engine))
            if e >= 4:
                value3 = dmax_arithmetic(e, d, 3)
                engine3, _ = dmax(make_semigroup([e, e + d, e + 2 * d, e + 3 * d]))
                nearest = ((e + 2) * (e + 2) * 2 + 12) // 24
                if not value3 == engine3 == nearest:
                    three_bad.append((e, d, value3, engine3))
    check(
        "three-term sequences give the ceiling of half the multiplicity",
        not two_bad,
        str(two_bad[:3]),
    )
    check(
        "four-term sequences give the nearest integer to (e+2)^2/12",
        not three_bad,
        str(three_bad[:3]),
    )


def _transfer_mismatches(S, ctx, s_values):
    """Exact-length transfer: factorizations of s in S of length r match
    dset factorizations of s - r*e avoiding position 0 with length <= r."""
    e = S.multiplicity
    bad = []
    for s in s_values:
        facts = enumerate_factorizations(S, s)
        by_len: dict[int, int] = {}
        for f in facts:
            by_len[f.length] = by_len.get(f.length, 0) + 1
        for r in range(0, order(S, s) + 3):
            shifted = [
                x.length
                for x in ctx.factorizations_over_dset(s - r * e)
                if x.coefficients[0] == 0
            ] if s - r * e >= 0 else []
            expected = sum(1 for L in shifted if L <= r)
            if by_len.get(r, 0) != expected:
                bad.append((S.generators, s, r, by_len.get(r, 0), expected))
    return bad


def test_structural_invariants_hold_across_corpus(corpus, contexts, oracle_profiles):
    sandwich_bad = []
    empty_bad = []
    witness_bad = []
    lead_bad = []
    for S in corpus:
        ctx = contexts[S.generators]
        e = S.multiplicity
        profile = oracle_profiles[S.generators]
        ap_b = {w % e: w for w in apery_set(ctx.blowup, e).elements}
        for i in range(e):
            table = adjustment_table(ctx, i)
            values = [entry.value for entry in table.entries]
            # the blowup Apery element of the class appears among the
            # adjustments, and every adjustment is a blowup element
            if ap_b[i] not in values or not all(
                contains(ctx.blowup, v) for v in values
            ):
                sandwich_bad.append((S.generators, i, values))
            report = residue_report(ctx, table)
            if any(len(facts) == 0 for _, facts in report.candidates):
                empty_bad.append((S.generators, i))
            if profile[report.witness][1] != report.dmax_si:
                witness_bad.append((S.generators, i, report.witness))
            if any(
                f.coefficients[0] != 0 for _, facts in report.candidates for f in facts
            ):
                lead_bad.append((S.generators, i))
    check(
        "every adjustment set contains the least blowup element and stays in the blowup",
        not sandwich_bad,
        str(sandwich_bad[:3]),
    )
    check("every candidate set is nonempty", not empty_bad, str(empty_bad[:3]))
    check(
        "every witness attains its class maximum (brute-force checked)",
        not witness_bad,
        str(witness_bad[:3]),
    )
    check(
        "candidate factorizations never use the multiplicity position",
        not lead_bad,
        str(lead_bad[:3]),
    )

    transfer_bad = []
    for gens in [(4, 5, 6), (5, 6, 7), (6, 9, 20), (8, 13, 18, 23), REFERENCE]:
        S = make_semigroup(list(gens))
        ctx = blowup(S)
        limit = auto_bound(S).max_element
        members = [s for s in range(limit + 1) if contains(S, s)]
        transfer_bad.extend(_transfer_mismatches(S, ctx, members))
    rng = random.Random(13579)
    for S in corpus:
        ctx = contexts[S.generators]
        limit = auto_bound(S).max_element
        picks = []
        for _ in range(3):
            s = rng.randint(0, limit)
            while not contains(S, s):
                s += 1
            picks.append(s)
        transfer_bad.extend(_transfer_mismatches(S, ctx, picks))
    check(
        "length transfer to the blowup holds exhaustively and on corpus samples",
        not transfer_bad,
        str(transfer_bad[:3]),
    )


def test_classifications_are_mutually_consistent(corpus, engine_results):
    implication_bad = []
    agreement_bad = []
    fastpath_bad = []
    for S in corpus:
        ctx = blowup(S)
        if is_supersymmetric(S):
            if not is_additive(S) or not is_symmetric(ctx.blowup):
                implication_bad.append(S.generators)
        try:
            is_symmetric(S)
            is_symmetric(ctx.blowup)
        except Exception as exc:  # disagreement between characterizations
            agreement_bad.append((S.generators, repr(exc)))
        engine_value = engine_results[S.generators][0]
        if is_additive(S):
            if dmax_additive(S) != engine_value:
                fastpath_bad.append(("additive", S.generators))
            if is_symmetric(ctx.blowup):
                if dmax_symmetric_blowup(S) != engine_value:
                    fastpath_bad.append(("symmetric-blowup", S.generators))
        if S.embedding_dimension == 3:
            if dmax_ed3(Ed3Input.from_generators(*S.generators)) != engine_value:
                fastpath_bad.append(("ed3", S.generators))
        params = arithmetic_parameters(S)
        if params is not None:
            if dmax_arithmetic(*params) != engine_value:
                fastpath_bad.append(("arithmetic", S.generators))
    check(
        "supersymmetric members are additive with symmetric blowup",
        not implication_bad,
        str(implication_bad[:3]),
    )
    check(
        "both symmetry characterizations agree on every member and blowup",
        not agreement_bad,
        str(agreement_bad[:3]),
    )
    check(
        "every applicable fast path agrees with the engine",
        not fastpath_bad,
        str(fastpath_bad[:3]),
    )


def test_single_threaded_speed_gate(corpus):
    slow = []
    worst = 0.0
    for S in corpus:
        fresh = make_semigroup(list(S.generators))  # cold caches
        t0 = time.perf_counter()
        dmax(fresh)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if dt >= 1.0:
            slow.append((S.generators, dt))
    check(
        f"every corpus member completes in under one second (worst {worst * 1000:.1f} ms)",
        not slow,
        str(slow[:3]),
    )
