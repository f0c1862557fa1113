import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxdenum import (
    Ed3Input,
    InternalCheckError,
    InvalidParameters,
    NotAdditive,
    PreconditionError,
    PreconditionFailed,
    arithmetic_parameters,
    blowup,
    ceil_div,
    classify,
    contains,
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
    partition_count,
)
from maxdenum.classify import _bezout
from maxdenum.cli import _dmax_dispatch

# small semigroups: multiplicity 1..12, up to four more generators below 3e
small_gen_lists = (
    st.integers(1, 12)
    .flatmap(
        lambda e: st.lists(st.integers(e + 1, 3 * e), max_size=4).map(lambda xs: [e, *xs])
    )
    .filter(lambda xs: math.gcd(*xs) == 1)
)

# the documented auto dispatch order: (method, method_used, precondition)
DISPATCH_ORDER = (
    ("arithmetic", "arithmetic", lambda S: arithmetic_parameters(S) is not None),
    ("ed3", "ed3-ceiling", lambda S: S.embedding_dimension == 3),
    (
        "symmetric-blowup",
        "symmetric-blowup",
        lambda S: is_additive(S) and is_symmetric(blowup(S).blowup),
    ),
    ("additive", "additive", is_additive),
    ("general", "general", lambda S: True),
)
METHODS = [method for method, _, _ in DISPATCH_ORDER] + ["oracle", "auto"]


def additive_by_order_scan(S):
    """Definition-level additivity check: ord(u + e) = ord(u) + 1 for every
    element u up to a stabilization limit. Slower cross-check for
    is_additive.

    The limit covers every class through the point where its adjustment
    reaches the least blowup element, past which the order grows by exactly
    one per step of e forever. Orders and the limit come from enumerated
    factorizations, so the check shares no code with the engine's scans.
    """
    e = S.multiplicity
    ctx = blowup(S)

    def lengths(gens, n):
        return [f.length for f in enumerate_factorizations(gens, n)]

    limit = e + max(
        f + min(lengths(ctx.dset, f)) * e
        for f in (ctx.least_blowup_in_class(i) for i in range(e))
    )
    longest = {u: max(lengths(S, u)) for u in range(limit + e + 1) if contains(S, u)}
    return all(longest[u + e] == longest[u] + 1 for u in range(limit + 1) if u in longest)


class TestCeilDiv:
    def test_small_cases(self):
        assert ceil_div(7, 3) == 3
        assert ceil_div(6, 3) == 2
        assert ceil_div(-7, 3) == -2
        assert ceil_div(0, 5) == 0

    @given(st.integers(-1000, 1000), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_matches_float_free_ceiling(self, p, q):
        assert ceil_div(p, q) == math.ceil(p / q) == -((-p) // q)


class TestBezout:
    @given(st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_coefficients_solve_the_identity(self, a, b):
        x, y = _bezout(a, b)
        assert a * x + b * y == math.gcd(a, b)


class TestAdditivity:
    def test_known_additive_semigroups(self):
        for gens in [(4, 5, 6), (5, 6, 7), (2, 3), (3, 5), (1,), (6, 7, 8, 9)]:
            assert is_additive(make_semigroup(gens)), gens

    def test_known_non_additive_semigroup(self):
        assert not is_additive(make_semigroup([15, 17, 36, 38, 71]))

    def test_definition_scan_agrees(self, corpus):
        for S in corpus[:60]:
            assert additive_by_order_scan(S) == is_additive(S), S

    def test_every_two_generator_semigroup_is_additive(self, corpus):
        for S in corpus:
            if S.embedding_dimension == 2:
                assert is_additive(S), S


class TestSymmetry:
    def test_known_symmetric(self):
        assert is_symmetric(make_semigroup([4, 5, 6]))
        assert is_symmetric(make_semigroup([3, 5]))
        assert is_symmetric(make_semigroup([2, 3]))
        assert is_symmetric(make_semigroup([1]))

    def test_known_non_symmetric(self):
        assert not is_symmetric(make_semigroup([5, 6, 7]))

    def test_two_generator_semigroups_always_symmetric(self, corpus):
        for S in corpus:
            if S.embedding_dimension == 2:
                assert is_symmetric(S), S

    def test_characterizations_agree_across_corpus(self, corpus):
        # is_symmetric raises InternalCheckError if its two equivalent
        # conditions ever disagree, so calling it everywhere is the test
        for S in corpus:
            is_symmetric(S)
            is_symmetric(blowup(S).blowup)


class TestSupersymmetry:
    def test_known_supersymmetric(self):
        assert is_supersymmetric(make_semigroup([4, 5, 6]))
        assert is_supersymmetric(make_semigroup([3, 5]))

    def test_supersymmetric_implies_additive_and_symmetric_blowup(self, corpus):
        for S in corpus:
            if is_supersymmetric(S):
                assert is_additive(S), S
                assert is_symmetric(blowup(S).blowup), S

    def test_classification_record(self):
        c = classify(make_semigroup([4, 5, 6]))
        assert c.additive and c.blowup_symmetric and c.supersymmetric
        assert c.arithmetic_sequence == (4, 1, 2)
        c = classify(make_semigroup([15, 17, 36, 38, 71]))
        assert not c.additive and not c.supersymmetric
        assert c.arithmetic_sequence is None


class TestAdditiveFastPath:
    def test_known_values(self):
        assert dmax_additive(make_semigroup([4, 5, 6])) == 2
        assert dmax_additive(make_semigroup([5, 6, 7])) == 3
        assert dmax_additive(make_semigroup([1])) == 1

    def test_rejects_non_additive(self):
        with pytest.raises(NotAdditive):
            dmax_additive(make_semigroup([15, 17, 36, 38, 71]))

    def test_agrees_with_engine_on_additive_corpus_members(self, corpus, engine_results):
        for S in corpus:
            if is_additive(S):
                assert dmax_additive(S) == engine_results[S.generators][0], S


class TestSymmetricBlowupFastPath:
    def test_known_value(self):
        assert dmax_symmetric_blowup(make_semigroup([4, 5, 6])) == 2

    def test_rejects_unmet_preconditions(self):
        with pytest.raises(PreconditionFailed):
            dmax_symmetric_blowup(make_semigroup([15, 17, 36, 38, 71]))
        # additive but blowup not symmetric
        S = make_semigroup([5, 6, 7])
        if not is_symmetric(blowup(S).blowup):
            with pytest.raises(PreconditionFailed):
                dmax_symmetric_blowup(S)

    def test_agrees_with_engine_when_applicable(self, corpus, engine_results):
        for S in corpus:
            if is_additive(S) and is_symmetric(blowup(S).blowup):
                assert dmax_symmetric_blowup(S) == engine_results[S.generators][0], S


class TestPartitions:
    def test_small_table(self):
        assert partition_count(0, 3) == 1
        assert partition_count(5, 1) == 1
        assert partition_count(5, 2) == 3
        assert partition_count(5, 5) == 7
        assert partition_count(9, 4) == 18

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            partition_count(-1, 2)
        with pytest.raises(InvalidParameters):
            partition_count(4, 0)

    @given(st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_parts_up_to_two_closed_form(self, n):
        assert partition_count(n, 2) == n // 2 + 1

    @given(st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_parts_up_to_three_closed_form(self, n):
        # nearest integer to (n+3)^2/12
        assert partition_count(n, 3) == (((n + 3) * (n + 3)) * 2 + 12) // 24


class TestArithmeticSequences:
    def test_parameter_detection(self):
        assert arithmetic_parameters(make_semigroup([4, 5, 6])) == (4, 1, 2)
        assert arithmetic_parameters(make_semigroup([9, 11, 13])) == (9, 2, 2)
        assert arithmetic_parameters(make_semigroup([3, 5])) == (3, 2, 1)
        assert arithmetic_parameters(make_semigroup([6, 9, 20])) is None
        assert arithmetic_parameters(make_semigroup([1])) is None

    def test_known_values(self):
        assert dmax_arithmetic(4, 1, 2) == 2
        assert dmax_arithmetic(9, 2, 2) == 5
        assert dmax_arithmetic(10, 1, 4) == 18

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            dmax_arithmetic(4, 2, 2)  # gcd(e, d) > 1
        with pytest.raises(InvalidParameters):
            dmax_arithmetic(3, 1, 3)  # e <= t, not minimal
        with pytest.raises(InvalidParameters):
            dmax_arithmetic(5, 0, 2)

    def test_two_term_sequences_match_ceiling_of_half(self):
        for e in range(3, 31):
            for d in range(1, 11):
                if math.gcd(e, d) != 1 or e <= 2:
                    continue
                assert dmax_arithmetic(e, d, 2) == ceil_div(e, 2), (e, d)

    def test_three_term_sequences_match_quadratic_estimate(self):
        for e in range(4, 31):
            for d in range(1, 11):
                if math.gcd(e, d) != 1:
                    continue
                nearest = ((e + 2) * (e + 2) * 2 + 12) // 24
                assert dmax_arithmetic(e, d, 3) == nearest, (e, d)


class TestEd3:
    def test_derived_quantities(self):
        inp = Ed3Input.from_generators(15, 17, 36)
        assert (inp.g, inp.m, inp.n) == (1, 2, 21)
        assert inp.alpha == (-15) % 42

    def test_rejects_bad_triples(self):
        with pytest.raises(InvalidParameters):
            Ed3Input.from_generators(5, 5, 7)
        with pytest.raises(InvalidParameters):
            Ed3Input.from_generators(7, 5, 9)
        with pytest.raises(InvalidParameters):
            Ed3Input.from_generators(2, 4, 6)

    def test_known_values_both_formulas(self):
        for triple, expected in [((5, 6, 7), 3), ((7, 10, 12), 1), ((5, 7, 8), 2)]:
            inp = Ed3Input.from_generators(*triple)
            assert dmax_ed3_ceiling(inp) == expected
            assert dmax_ed3_bezout(inp) == expected
            assert dmax_ed3(inp) == expected

    def test_bezout_rejects_non_solutions(self):
        inp = Ed3Input.from_generators(5, 6, 7)
        with pytest.raises(InvalidParameters):
            dmax_ed3_bezout(inp, (1, 1))

    def test_bezout_shift_invariance(self):
        for triple in [(5, 6, 7), (7, 10, 12), (5, 7, 8), (9, 11, 13)]:
            inp = Ed3Input.from_generators(*triple)
            x0, y0 = _bezout(inp.m, inp.n)
            x, y = x0 * inp.a1, y0 * inp.a1
            base = dmax_ed3_bezout(inp)
            for k in range(-5, 6):
                shifted = (x + k * inp.n, y - k * inp.m)
                assert dmax_ed3_bezout(inp, shifted) == base

    def test_agrees_with_engine_on_three_generator_corpus_members(
        self, corpus, engine_results
    ):
        for S in corpus:
            if S.embedding_dimension != 3:
                continue
            inp = Ed3Input.from_generators(*S.generators)
            assert dmax_ed3(inp) == engine_results[S.generators][0], S


def _outcome(S, method):
    """What a method gives on S: its (value, method_used, reports), or the
    type of the precondition error it raises. classify counts as a method."""
    if method == "classify":
        return classify(S)
    try:
        return _dmax_dispatch(S, method)
    except PreconditionError as exc:
        return type(exc)


class TestDispatch:
    @given(small_gen_lists)
    @example([1])
    @example([4, 5, 6])  # arithmetic, three generators, additive, symmetric blowup
    @example([5, 8, 9, 11])  # additive, blowup not symmetric
    @settings(max_examples=60, deadline=None)
    def test_applicable_methods_agree_and_auto_takes_the_first(self, xs):
        want = dmax(make_semigroup(xs))[0]
        applicable = []
        for method, used, applies in DISPATCH_ORDER:
            if applies(make_semigroup(xs)):
                assert _dmax_dispatch(make_semigroup(xs), method)[:2] == (want, used)
                applicable.append(used)
            else:
                with pytest.raises(PreconditionError):
                    _dmax_dispatch(make_semigroup(xs), method)
        assert _dmax_dispatch(make_semigroup(xs), "oracle")[0] == want
        assert _dmax_dispatch(make_semigroup(xs), "auto")[:2] == (want, applicable[0])

    @given(small_gen_lists, st.permutations(METHODS + ["classify"]))
    @settings(max_examples=60, deadline=None)
    def test_reused_semigroup_gives_what_fresh_ones_give(self, xs, methods):
        shared = make_semigroup(xs)
        ctx = blowup(shared)  # held, so that every method below shares it
        reused = {m: _outcome(shared, m) for m in methods}
        assert blowup(shared) is ctx
        assert reused == {m: _outcome(make_semigroup(xs), m) for m in methods}

    @given(small_gen_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_dmax_ignores_order_duplicates_and_redundant_generators(self, xs, data):
        S = make_semigroup(xs)
        gens = list(S.generators)
        duplicates = data.draw(st.lists(st.sampled_from(gens), max_size=3))
        redundant = data.draw(
            st.lists(st.lists(st.sampled_from(gens), min_size=2, max_size=3).map(sum), max_size=3)
        )
        variant = data.draw(st.permutations(gens + duplicates + redundant))
        T = make_semigroup(variant)
        assert dmax(T) == dmax(S)
        assert _dmax_dispatch(T, "auto") == _dmax_dispatch(S, "auto")
