import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxdenum
from maxdenum import (
    AperySet,
    DuplicateEntry,
    Ed3Input,
    EmptyInput,
    Factorization,
    GcdNotOne,
    GeneratingSet,
    NonPositiveEntry,
    NotAMember,
    NotRepresentable,
    Semigroup,
    apery_set,
    blowup,
    contains,
    count_factorizations,
    denumerant,
    dmax_arithmetic,
    dmax_ed3,
    enumerate_factorizations,
    frobenius_number,
    least_in_class,
    make_semigroup,
    max_apery,
    max_denumerant_element,
    min_order,
    order,
)

raw_gen_lists = st.lists(st.integers(1, 60), min_size=1, max_size=6).filter(
    lambda xs: __import__("math").gcd(*xs) == 1
)


def naive_member(gens, n, memo=None):
    """n is a sum of entries of gens, by recursion on n - g. Calls on the
    same gens may share one memo dict."""
    if n <= 0:
        return n == 0
    if memo is None:
        memo = {}
    if n not in memo:
        memo[n] = any(naive_member(gens, n - g, memo) for g in gens)
    return memo[n]


def reach_minimalize(entries):
    """Minimal generators by a reachability list up to the largest entry: a
    candidate is redundant when the kept smaller ones already reach it."""
    candidates = sorted(set(entries))
    top = candidates[-1]
    reach = [True] + [False] * top
    kept = []
    for g in candidates:
        if reach[g]:
            continue
        kept.append(g)
        for v in range(g, top + 1):
            if reach[v - g]:
                reach[v] = True
    return tuple(kept)


def assert_least_table(gens, modulus, least):
    """least[r] is the least sum of entries of gens congruent to r mod
    modulus, for every class r."""
    assert len(least) == modulus
    memo = {}
    # settle membership from below so that each recursion stays shallow
    member = [naive_member(gens, n, memo) for n in range(max(least) + 1)]
    for r, w in enumerate(least):
        assert w % modulus == r
        assert member[w]
        assert w < modulus or not member[w - modulus]


class TestConstruction:
    def test_minimalization_collapses_redundant_generators(self):
        assert make_semigroup([15, 2, 21, 23, 56]).generators == (2, 15)
        assert make_semigroup([4, 5, 6, 13]).generators == (4, 5, 6)
        assert make_semigroup([1, 7, 9]).generators == (1,)

    def test_minimalization_is_idempotent_and_order_insensitive(self):
        a = make_semigroup([71, 38, 17, 36, 15])
        b = make_semigroup(a.generators)
        assert a.generators == b.generators == (15, 17, 36, 38, 71)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            make_semigroup([])

    def test_non_positive_entries_rejected(self):
        with pytest.raises(NonPositiveEntry):
            make_semigroup([0, 3])
        with pytest.raises(NonPositiveEntry):
            make_semigroup([-2, 3])

    def test_gcd_above_one_rejected(self):
        with pytest.raises(GcdNotOne):
            make_semigroup([2, 4])
        with pytest.raises(GcdNotOne):
            make_semigroup([6, 10, 15, 21][:2])

    def test_generating_set_keeps_order_and_rejects_duplicates(self):
        g = GeneratingSet([15, 2, 21, 23, 56])
        assert g.elements == (15, 2, 21, 23, 56)
        with pytest.raises(DuplicateEntry):
            GeneratingSet([3, 5, 3])
        with pytest.raises(EmptyInput):
            GeneratingSet([])

    def test_semigroup_properties(self):
        S = make_semigroup([6, 9, 20])
        assert S.multiplicity == 6
        assert S.embedding_dimension == 3
        assert repr(S) == "Semigroup<6, 9, 20>"

    @given(raw_gen_lists)
    @settings(max_examples=60, deadline=None)
    def test_minimal_generators_are_increasing_and_distinct_mod_e(self, xs):
        S = make_semigroup(xs)
        gens = S.generators
        assert all(a < b for a, b in zip(gens, gens[1:]))
        e = S.multiplicity
        assert len({g % e for g in gens}) == len(gens)

    @given(raw_gen_lists)
    @settings(max_examples=60, deadline=None)
    def test_no_minimal_generator_is_a_sum_of_the_others(self, xs):
        S = make_semigroup(xs)
        for g in S.generators:
            others = [h for h in S.generators if h != g]
            assert not naive_member(others, g)


class TestMembership:
    def test_small_complements(self):
        S = make_semigroup([4, 5, 6])
        gaps = [n for n in range(20) if not contains(S, n)]
        assert gaps == [1, 2, 3, 7]
        assert frobenius_number(S) == 7

    def test_chicken_nugget_frobenius(self):
        assert frobenius_number(make_semigroup([6, 9, 20])) == 43

    def test_two_generator_frobenius_formula(self):
        # a*b - a - b for coprime pairs
        for a, b in [(2, 3), (3, 5), (19, 149)]:
            assert frobenius_number(make_semigroup([a, b])) == a * b - a - b

    def test_whole_numbers_have_frobenius_minus_one(self):
        assert frobenius_number(make_semigroup([1])) == -1

    def test_negative_numbers_never_members(self):
        S = make_semigroup([3, 5])
        assert not contains(S, -1)
        assert not contains(S, -300)

    def test_least_in_class_is_member_and_minimal(self):
        S = make_semigroup([7, 11, 13])
        for r in range(7):
            w = least_in_class(S, r)
            assert w % 7 == r
            assert contains(S, w)
            assert not contains(S, w - 7)

    @given(raw_gen_lists, st.integers(0, 120))
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_naive_recursion(self, xs, n):
        S = make_semigroup(xs)
        assert contains(S, n) == naive_member(S.generators, n)


class TestLeastTables:
    @given(raw_gen_lists, st.integers(1, 150))
    # folds with gcd(a, m) > 1 that leave some cycles unreached: 9 and 20
    # mod 9, 6 mod 10, 2 mod 4
    @example([6, 9, 20], 9)
    @example([6, 10, 15], 10)
    @example([15, 2, 21, 23, 56], 4)
    @settings(max_examples=80, deadline=None)
    def test_tables_match_naive_membership(self, xs, k):
        S = make_semigroup(xs)
        assert S.generators == reach_minimalize(xs)
        e = S.multiplicity
        assert_least_table(xs, e, [least_in_class(S, r) for r in range(e)])
        ctx = blowup(S)
        assert_least_table(
            ctx.dset.elements, e, [ctx.least_blowup_in_class(r) for r in range(e)]
        )
        memo = {}
        u = next(n for n in itertools.count(k) if naive_member(xs, n, memo))
        ap = apery_set(S, u)
        assert ap.base_element == u
        assert_least_table(xs, u, sorted(ap.elements, key=lambda w: w % u))


# the calls must not allocate by the size of the generators or of the
# queried elements: at 10**12 a table indexed by value would need terabytes,
# so the child's address space is capped and a regression fails as
# MemoryError. min_order is left out: its cost follows the largest generator.
MAGNITUDE_CHILD = """
import contextlib, dataclasses, io, json, resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
from maxdenum import (
    adjustment_table, apery_set, blowup, classify, dmax, frobenius_number,
    least_in_class, make_semigroup, order,
)
from maxdenum.cli import main
out = []
for gens in ([3, 10**12 + 1], [5, 7, 10**12 + 3, 2 * 10**12]):
    S = make_semigroup(gens)
    e = S.multiplicity
    ctx = blowup(S)
    out.append({
        "generators": S.generators,
        "frobenius": frobenius_number(S),
        "least": [least_in_class(S, r) for r in range(e)],
        "apery": apery_set(S).elements,
        "least_blowup": [ctx.least_blowup_in_class(r) for r in range(e)],
        "blowup": ctx.blowup.generators,
    })
engine = []
for gens in ENGINE_INPUTS:
    S = make_semigroup(gens)
    ctx = blowup(S)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["dmax", *map(str, gens), "--verify", "--format", "json"])
    engine.append({
        "dmax": dmax(S)[0],
        "orders": [order(S, n) for n in ORDER_TARGETS],
        "orders_of_input": [order(gens, n) for n in ORDER_TARGETS],
        "tables": [
            [t.scan_log, [[x.value, x.min_order] for x in t.entries]]
            for t in (adjustment_table(ctx, r) for r in range(S.multiplicity))
        ],
        "classify": dataclasses.asdict(classify(S)),
        "cli": [code, json.loads(stdout.getvalue())["result"]["value"]],
    })
print(json.dumps({"least": out, "engine": engine}))
"""

BIG = 10**12
# [3, BIG + 1] is an arithmetic sequence and [4, 6, BIG + 1] has three
# generators, so their closed forms give dmax; BIG + 7 is redundant beside
# 6, 9 and 10, which makes the third input <6, 9, 10> with its orders asked
# far beyond every generator
ENGINE_INPUTS = ([3, BIG + 1], [4, 6, BIG + 1], [6, 9, 10, BIG + 7])
ORDER_TARGETS = range(10**15, 10**15 + 6)


def longest_by_exchange(gens, n):
    """Longest factorization length of n over gens, smallest first. Some
    longest factorization uses every other generator a fewer than gens[0]
    times, since gens[0] copies of a trade for a copies of gens[0]."""
    e, *rest = gens
    lengths = [
        (n - v) // e + sum(cs)
        for cs in itertools.product(range(e), repeat=len(rest))
        for v in [sum(c * a for c, a in zip(cs, rest))]
        if v <= n and (n - v) % e == 0
    ]
    return max(lengths)


def single_pair_tables(gens, pairs):
    """Adjustment tables, as the child prints them, of a semigroup whose
    every class has one adjustment value: pairs lists the least element s of
    each nonzero class with its longest length r, and the class's scan is
    the one row (s, r, s - r*e)."""
    e = gens[0]
    tables = {0: [[[0, 0, 0]], [[0, 0]]]}
    for s, r in pairs:
        tables[s % e] = [[[s, r, s - r * e]], [[s - r * e, r]]]
    return [tables[i] for i in range(e)]


class TestMagnitude:
    def test_huge_generators_cost_nothing_by_size(self):
        env = dict(os.environ, PYTHONPATH=str(Path(maxdenum.__file__).parents[1]))
        child = (
            f"ENGINE_INPUTS = {ENGINE_INPUTS!r}\n"
            f"ORDER_TARGETS = {list(ORDER_TARGETS)!r}\n" + MAGNITUDE_CHILD
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        big = BIG
        assert got["least"] == [
            {
                "generators": [3, big + 1],
                "frobenius": 2 * big - 1,
                "least": [0, 2 * big + 2, big + 1],
                "apery": [0, big + 1, 2 * big + 2],
                "least_blowup": [0, 2 * (big - 2), big - 2],
                "blowup": [3, big - 2],
            },
            {
                "generators": [5, 7],
                "frobenius": 23,
                "least": [0, 21, 7, 28, 14],
                "apery": [0, 7, 14, 21, 28],
                "least_blowup": [0, 6, 2, 8, 4],
                "blowup": [2, 5],
            },
        ]
        # every class of these semigroups has one adjustment value: its
        # least element s is a short sum of the non-multiplicity generators,
        # and every later element of the class adds copies of e to it
        expected_tables = [
            single_pair_tables([3, big + 1], [(big + 1, 1), (2 * big + 2, 2)]),
            single_pair_tables([4, 6, big + 1], [(big + 1, 1), (6, 1), (big + 7, 2)]),
            single_pair_tables([6, 9, 10], [(19, 2), (20, 2), (9, 1), (10, 1), (29, 3)]),
        ]
        ed3 = Ed3Input.from_generators
        expected = [
            (dmax_arithmetic(3, big - 2, 1), [3, big + 1], (3, big - 2, 1)),
            (dmax_ed3(ed3(4, 6, big + 1)), [4, 6, big + 1], None),
            (dmax_ed3(ed3(6, 9, 10)), [6, 9, 10], None),
        ]
        assert len(got["engine"]) == len(expected)
        for row, (value, gens, arithmetic), tables in zip(
            got["engine"], expected, expected_tables
        ):
            orders = [longest_by_exchange(gens, n) for n in ORDER_TARGETS]
            assert row["dmax"] == value, gens
            assert row["orders"] == row["orders_of_input"] == orders, gens
            assert row["tables"] == json.loads(json.dumps(tables)), gens
            # one adjustment value per class makes each input additive; the
            # blowups <3, BIG - 2>, <2, BIG - 3> and <3, 4> have two
            # generators, so they are symmetric
            assert row["classify"] == {
                "additive": True,
                "blowup_symmetric": True,
                "supersymmetric": True,
                "arithmetic_sequence": json.loads(json.dumps(arithmetic)),
            }, gens
            assert row["cli"] == [0, value], gens


class TestAperySet:
    def test_small_example_by_hand(self):
        S = make_semigroup([4, 5, 6])
        assert apery_set(S).elements == (0, 5, 6, 11)

    def test_default_base_is_multiplicity(self):
        S = make_semigroup([5, 7, 9])
        ap = apery_set(S)
        assert ap.base_element == 5
        assert len(ap.elements) == 5

    def test_general_base_gives_one_element_per_class(self):
        S = make_semigroup([4, 5, 6])
        ap = apery_set(S, 5)
        assert len(ap.elements) == 5
        assert sorted(w % 5 for w in ap.elements) == [0, 1, 2, 3, 4]
        for w in ap.elements:
            assert contains(S, w)
            assert not contains(S, w - 5)

    def test_base_outside_semigroup_rejected(self):
        S = make_semigroup([4, 5, 6])
        with pytest.raises(NotAMember):
            apery_set(S, 3)
        with pytest.raises(NotAMember):
            apery_set(S, 0)
        with pytest.raises(NotAMember):
            apery_set(S, -4)

    def test_apery_set_is_a_frozen_record(self):
        ap = apery_set(make_semigroup([3, 5]))
        assert ap == AperySet(base_element=3, elements=(0, 5, 10))

    def test_max_apery_of_symmetric_example(self):
        S = make_semigroup([4, 5, 6])
        assert max_apery(S, 4) == [11]
        assert 11 == frobenius_number(S) + 4

    def test_max_apery_of_non_symmetric_example(self):
        S = make_semigroup([5, 6, 7])
        assert max_apery(S, 5) == [13, 14]


class TestFactorizations:
    def test_enumeration_order_largest_generator_first(self):
        facts = enumerate_factorizations((4, 1, 2), 5)
        assert [f.coefficients for f in facts] == [
            (1, 1, 0),
            (0, 1, 2),
            (0, 3, 1),
            (0, 5, 0),
        ]

    def test_enumeration_against_blowup_generating_set(self):
        dset = GeneratingSet([15, 2, 21, 23, 56])
        facts = enumerate_factorizations(dset, 56)
        assert [f.coefficients for f in facts] == [
            (0, 0, 0, 0, 1),
            (0, 5, 0, 2, 0),
            (0, 6, 1, 1, 0),
            (1, 9, 0, 1, 0),
            (0, 7, 2, 0, 0),
            (1, 10, 1, 0, 0),
            (2, 13, 0, 0, 0),
            (0, 28, 0, 0, 0),
        ]
        assert denumerant(dset, 56) == 8

    def test_zero_has_the_empty_factorization(self):
        facts = enumerate_factorizations((3, 5), 0)
        assert [f.coefficients for f in facts] == [(0, 0)]
        assert facts[0].length == 0

    def test_negative_and_unrepresentable_targets(self):
        assert enumerate_factorizations((3, 5), -2) == []
        assert enumerate_factorizations((3, 5), 4) == []
        assert denumerant((3, 5), 7) == 0

    def test_factorization_value_roundtrip(self):
        gens = (15, 2, 21, 23, 56)
        for f in enumerate_factorizations(gens, 56):
            assert f.value(gens) == 56

    def test_factorization_value_needs_matching_arity(self):
        with pytest.raises(ValueError):
            Factorization((1, 2)).value((3, 5, 7))

    @given(
        st.lists(st.integers(1, 25), min_size=1, max_size=4, unique=True),
        st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_enumeration_is_complete_distinct_and_valued_correctly(self, gens, n):
        facts = enumerate_factorizations(gens, n)
        vecs = {f.coefficients for f in facts}
        assert len(vecs) == len(facts)
        for f in facts:
            assert f.value(gens) == n
        # completeness against an independent count
        def count(i, rem):
            if i == len(gens) - 1:
                return 1 if rem % gens[i] == 0 else 0
            return sum(
                count(i + 1, rem - c * gens[i]) for c in range(rem // gens[i] + 1)
            )
        assert len(facts) == count(0, n)



def _filtered_count(gens, n, max_len):
    lengths = [
        f.length
        for f in enumerate_factorizations(gens, n)
        if max_len is None or f.length <= max_len
    ]
    return (len(lengths), max(lengths)) if lengths else (0, None)


class TestCountFactorizations:
    def test_reference_blowup_values(self):
        dset = GeneratingSet([15, 2, 21, 23, 56])
        assert count_factorizations(dset, 56) == (8, 28)
        assert count_factorizations(dset, 56, 8) == (3, 8)
        assert count_factorizations(dset, 56, 0) == (0, None)
        assert count_factorizations(dset, 0) == (1, 0)
        assert count_factorizations(dset, -3) == (0, None)

    @given(
        st.lists(st.integers(1, 25), min_size=1, max_size=5, unique=True),
        st.integers(-2, 90),
        st.none() | st.integers(-1, 45),
    )
    @example([9, 6, 4], 38, None)  # last pair 6 > 4 shares the factor 2
    @example([10, 6, 3], 45, 9)  # last pair 6 > 3: b/gcd = 1
    @example([7, 3], 42, None)  # two generators in all
    @example([7, 3], 42, 9)
    @example([5, 3], 30, 5)  # cap below every length (the shortest is 6)
    @example([11, 8, 5, 2], 60, 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_filtered_enumeration(self, gens, n, max_len):
        assert count_factorizations(gens, n, max_len) == _filtered_count(gens, n, max_len)
        assert denumerant(gens, n) == len(enumerate_factorizations(gens, n))

class TestOrders:
    def test_order_of_zero_is_zero(self):
        assert order((4, 5, 6), 0) == 0
        assert min_order((4, 5, 6), 0) == 0

    @given(st.lists(st.integers(1, 25), min_size=1, max_size=4, unique=True))
    @example([5, 6, 7])
    @example([7, 3])  # the first generator is not the smallest
    @example([6, 4, 10])  # gcd 2: every odd n is unrepresentable
    @example([4])
    @settings(max_examples=80, deadline=None)
    def test_orders_match_enumeration_extremes(self, gens):
        # a GeneratingSet keeps its frontiers across the calls; a plain list
        # builds them afresh on each call
        held = GeneratingSet(gens)
        for n in range(-3, 80):
            lengths = [f.length for f in enumerate_factorizations(gens, n)]
            for g in (gens, held):
                if not lengths:
                    with pytest.raises(NotRepresentable):
                        order(g, n)
                    with pytest.raises(NotRepresentable):
                        min_order(g, n)
                    continue
                assert order(g, n) == max(lengths), (g, n)
                assert min_order(g, n) == min(lengths), (g, n)

    def test_order_grows_by_at_least_one_per_multiplicity_step(self):
        S = make_semigroup([15, 17, 36, 38, 71])
        for s in range(0, 300):
            if contains(S, s):
                assert order(S, s + 15) >= order(S, s) + 1

    def test_negative_values_not_representable(self):
        with pytest.raises(NotRepresentable):
            order((3, 5), -3)

    def test_max_denumerant_element_counts_longest_factorizations(self):
        S = make_semigroup([15, 17, 36, 38, 71])
        assert max_denumerant_element(S, 176) == 3
        assert max_denumerant_element(S, 71) == 1
        with pytest.raises(NotAMember):
            max_denumerant_element(S, 16)

    def test_reference_semigroup_order_values(self):
        S = make_semigroup([15, 17, 36, 38, 71])
        expected = {71: 1, 86: 2, 101: 3, 116: 4, 131: 5, 146: 6, 161: 7,
                    176: 8, 191: 10, 206: 11, 221: 13}
        for s, r in expected.items():
            assert order(S, s) == r
