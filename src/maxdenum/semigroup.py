"""Numerical semigroups and their basic factorization invariants.

Everything here is exact integer arithmetic on Python ints, so there is no
overflow to guard against. A numerical semigroup is the set of nonnegative
integer combinations of finitely many positive integers with gcd 1; its
complement in the nonnegative integers is then finite.

Two routines carry the tables. The round-robin fold of Boecker and Liptak
("A fast and simple algorithm for the money changing problem", Algorithmica
2007) adds one generator to a table of least elements mod m in O(m); it
minimalizes generators and gives the Apery table of S, the blowup's table mod
the source multiplicity and Apery sets for any base. The frontier keeps, per
class mod one generator, the Pareto-least (value, weight) sums of the others;
it gives longest and shortest factorization lengths and the blowup's
adjustment scans. Neither holds anything indexed by value, so their cost
depends on the moduli, the number of generators and the number of adjustment
values, not on how large the generators are.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, inf

from .errors import (
    DuplicateEntry,
    EmptyInput,
    GcdNotOne,
    NonPositiveEntry,
    NotAMember,
    NotRepresentable,
)


@dataclass(frozen=True)
class Factorization:
    """Coefficient vector aligned with an ordered generating set."""

    coefficients: tuple[int, ...]

    @property
    def length(self) -> int:
        return sum(self.coefficients)

    def value(self, generators) -> int:
        """Dot product with the generating set the coefficients belong to."""
        gens = elements_of(generators)
        return sum(c * g for c, g in zip(self.coefficients, gens, strict=True))


@dataclass(frozen=True)
class AperySet:
    """Elements w of S with w - base_element not in S, sorted increasing."""

    base_element: int
    elements: tuple[int, ...]


class GeneratingSet:
    """Ordered generating set: positive, duplicate-free, in any order.

    Unlike the minimal generators of a Semigroup, no minimality or gcd
    condition is imposed here; factorization coefficients stay aligned with
    the order given at construction.
    """

    __slots__ = ("elements", "_frontiers")

    def __init__(self, elements) -> None:
        elems = tuple(int(x) for x in elements)
        if not elems:
            raise EmptyInput("generating set is empty")
        if any(x <= 0 for x in elems):
            raise NonPositiveEntry(f"generating set entries must be positive: {list(elems)}")
        if len(set(elems)) != len(elems):
            raise DuplicateEntry(f"duplicate entries in generating set: {list(elems)}")
        self.elements = elems
        self._frontiers: dict = {}

    def __repr__(self) -> str:
        return f"GeneratingSet({list(self.elements)})"


class Semigroup:
    """Numerical semigroup held by its minimal generating set.

    Construct through make_semigroup, which reduces the input to minimal
    generators and validates the gcd condition. The least element of each
    residue class modulo the multiplicity (the Apery table) is a by-product
    of that reduction and is stored at construction, so membership is
    constant time. _frontiers keeps the frontier per pivot that order (pivot
    e) and min_order build on first use. _blowup holds a weak reference to the blowup
    context that blowup.blowup shares among its callers; the context holds
    the semigroup strongly, so the pair forms no reference cycle and the
    context is freed once its last caller drops it.
    """

    __slots__ = ("generators", "_least", "_frontiers", "_blowup")

    def __init__(self, generators: tuple[int, ...], least: list[int]) -> None:
        self.generators = generators
        self._least = least
        self._frontiers: dict = {}
        self._blowup = None

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"Semigroup<{', '.join(str(g) for g in self.generators)}>"


def elements_of(generators) -> tuple[int, ...]:
    """Generator tuple of a Semigroup, GeneratingSet, or plain sequence."""
    if isinstance(generators, Semigroup):
        return generators.generators
    if isinstance(generators, GeneratingSet):
        return generators.elements
    return GeneratingSet(generators).elements


def make_semigroup(raw_generators) -> Semigroup:
    """Minimal generating set of the monoid generated by the input.

    Idempotent on already-minimal input. Raises EmptyInput, NonPositiveEntry,
    or GcdNotOne when the input cannot generate a numerical semigroup.
    """
    entries = [int(x) for x in raw_generators]
    if not entries:
        raise EmptyInput("no generators given")
    if any(x <= 0 for x in entries):
        raise NonPositiveEntry(f"generators must be positive: {entries}")
    if gcd(*entries) != 1:
        raise GcdNotOne(f"gcd({entries}) > 1: the complement would be infinite")
    candidates = sorted(set(entries))
    # fold the kept generators into a table mod the smallest one; a larger
    # candidate is redundant exactly when the kept ones already reach its
    # class at or below it (sums only use smaller generators)
    m = candidates[0]
    least = [0] + [inf] * (m - 1)
    kept = [m]
    for g in candidates[1:]:
        if least[g % m] <= g:
            continue
        kept.append(g)
        _fold(least, g)
    return Semigroup(tuple(kept), least)


def _fold(least: list, a: int) -> None:
    """Fold generator a into least, a table of least combinations per class
    mod len(least) with inf for a class not yet reached, in place.

    Round robin: adding a splits the classes into gcd(a, m) cycles of +a.
    A cycle's least entry cannot improve, since any other entry plus a
    multiple of a exceeds it. Walking on from it, each class takes the
    smaller of its own entry and the previous class's new entry plus a, so
    one pass settles the cycle. A cycle with no entry yet stays unreached.
    """
    m = len(least)
    d = gcd(a, m)
    for p in range(d):
        cycle = least[p::d]
        cur = min(cycle)
        if cur == inf:
            continue
        r = p + d * cycle.index(cur)
        for _ in range(m // d - 1):
            r = (r + a) % m
            cur += a
            if least[r] < cur:
                cur = least[r]
            else:
                least[r] = cur


def _least_table(gens, modulus: int) -> list[int]:
    """Least nonnegative combination of gens in each class mod modulus.
    Every class is reached when gcd(gens) is coprime to modulus; all callers
    pass gcd-1 generating sets."""
    least = [0] + [inf] * (modulus - 1)
    for a in gens:
        _fold(least, a)
    return least


def least_in_class(S: Semigroup, residue: int) -> int:
    """Least element of S congruent to residue modulo the multiplicity."""
    return S._least[residue % S.multiplicity]


def contains(S: Semigroup, n: int) -> bool:
    """Membership test in constant time: n is in S exactly when it is at
    least the least element of its class."""
    if n < 0:
        return False
    return n >= least_in_class(S, n)


def frobenius_number(S: Semigroup) -> int:
    """Largest integer outside S; -1 when S is all nonnegative integers."""
    return max(S._least) - S.multiplicity


def apery_set(S: Semigroup, u: int | None = None) -> AperySet:
    """All w in S with w - u not in S, that is the least element of S in
    each residue class mod u. Defaults to u = multiplicity."""
    e = S.multiplicity
    if u is None:
        u = e
    if u <= 0 or not contains(S, u):
        raise NotAMember(f"base element {u} is not a nonzero element of {S}")
    least = S._least if u == e else _least_table(S.generators, u)
    return AperySet(base_element=u, elements=tuple(sorted(least)))


def enumerate_factorizations(generators, n: int) -> list[Factorization]:
    """All coefficient vectors over the generating set that represent n.

    Deterministic order: lexicographically decreasing on the coefficients
    read from the largest generator down to the smallest.
    """
    gens = elements_of(generators)
    if n < 0:
        return []
    by_size = sorted(range(len(gens)), key=lambda k: gens[k], reverse=True)
    coeffs = [0] * len(gens)
    out: list[Factorization] = []

    def descend(i: int, rem: int) -> None:
        pos = by_size[i]
        g = gens[pos]
        if i == len(by_size) - 1:
            q, r = divmod(rem, g)
            if r == 0:
                coeffs[pos] = q
                out.append(Factorization(tuple(coeffs)))
                coeffs[pos] = 0
            return
        for c in range(rem // g, -1, -1):
            coeffs[pos] = c
            descend(i + 1, rem - c * g)
        coeffs[pos] = 0

    descend(0, n)
    return out


def count_factorizations(
    generators, n: int, max_len: int | None = None
) -> tuple[int, int | None]:
    """(count, longest) over the factorizations of n of length at most
    max_len (no cap when None); longest is None when the count is 0.

    Walks the generators in the same decreasing order as
    enumerate_factorizations without building a vector. A coefficient is
    skipped when even the shortest completion by the next generator down
    would pass max_len. The last two generators a > b are counted in closed
    form: the solutions of a*x + b*y = r form one progression in x with step
    b/gcd(a, b), along which the length x + y falls linearly as x grows, so
    the capped count and the longest length take a few divisions.
    """
    gens = sorted(elements_of(generators), reverse=True)
    if n < 0 or (max_len is not None and max_len < 0):
        return 0, None
    if max_len is None:
        max_len = n // gens[-1]  # no factorization is longer
    if len(gens) == 1:
        q, r = divmod(n, gens[0])
        return (1, q) if r == 0 and q <= max_len else (0, None)
    a, b = gens[-2], gens[-1]
    g = gcd(a, b)
    step = b // g
    inv = pow(a // g, -1, step)  # x = (r/g) * inv solves a*x = r (mod b)
    drop = a - b  # length lost per unit of x
    last = len(gens) - 2
    count = 0
    longest = -1
    # depth-first over (generator index, value left, length left)
    todo = [(0, n, max_len)]
    while todo:
        i, rem, room = todo.pop()
        if i < last:
            big, nxt = gens[i], gens[i + 1]
            # c + ceil((rem - c*big)/nxt) <= room  <=>  c >= (rem - room*nxt)/(big - nxt)
            lo = max(0, -((room * nxt - rem) // (big - nxt)))
            for c in range(lo, min(rem // big, room) + 1):
                todo.append((i + 1, rem - c * big, room - c))
            continue
        if rem % g:
            continue
        x = (rem // g * inv) % step
        # length x + (rem - a*x)/b <= room  <=>  x >= (rem - room*b)/drop
        lo = -((room * b - rem) // drop)
        if lo > x:
            x -= ((x - lo) // step) * step
        top = rem // a
        if x > top:
            continue
        count += (top - x) // step + 1
        used = max_len - room + x + (rem - a * x) // b
        if used > longest:
            longest = used
    return (count, longest) if count else (0, None)


def denumerant(generators, n: int) -> int:
    """Number of factorizations of n over the generating set, counted
    without building them."""
    return count_factorizations(generators, n)[0]


def _frontier(gens, pivot: int) -> dict[int, tuple[list[int], list[int]]]:
    """Pareto-least (value, weight) sums of the generators other than pivot:
    class r mod pivot maps to (values, weights), values rising and weights
    falling, where generator a adds |a - pivot| to the weight.

    A factorization of n is such a sum of value v <= n in n's class plus
    copies of pivot, of length (n - w)/pivot when pivot is the smallest
    generator and (n + w)/pivot when it is the largest, so the lightest sum
    up to n gives the extreme length. Sums leave a heap in (value, weight) order and are kept
    only when lighter than the last kept in their class. Only kept sums step
    on, by each generator, since a step from a discarded sum is matched, no
    larger and no heavier, by the same step from the sum that beat it.
    """
    steps = [(a, abs(a - pivot)) for a in gens if a != pivot]
    front: dict[int, tuple[list[int], list[int]]] = {}
    heap = [(0, 0)]
    while heap:
        v, w = heappop(heap)
        got = front.get(v % pivot)
        if got is None:
            got = front[v % pivot] = ([], [])
        elif w >= got[1][-1]:
            continue
        got[0].append(v)
        got[1].append(w)
        for a, d in steps:
            heappush(heap, (v + a, w + d))
    return front


def _frontier_of(held, pivot: int) -> dict[int, tuple[list[int], list[int]]]:
    """The frontier of a Semigroup or GeneratingSet, built once per pivot."""
    front = held._frontiers.get(pivot)
    if front is None:
        front = held._frontiers[pivot] = _frontier(elements_of(held), pivot)
    return front


def _lightest(generators, n: int, pick) -> tuple[int, int]:
    """The pivot p = pick(generators) and the weight of the last frontier
    pair of value at most n in n's class mod p."""
    if not isinstance(generators, (Semigroup, GeneratingSet)):
        generators = GeneratingSet(generators)  # a frontier for this call only
    gens = elements_of(generators)
    p = pick(gens)
    got = _frontier_of(generators, p).get(n % p) if n >= 0 else None
    k = bisect_right(got[0], n) if got else 0
    if not k:
        raise NotRepresentable(f"{n} has no factorization over {gens}")
    return p, got[1][k - 1]


def order(generators, n: int) -> int:
    """Length of a longest factorization of n over the generating set. The
    frontier mod the smallest generator follows the structure (for a
    semigroup, one pair per adjustment value), not the size of n or of the
    generators."""
    p, w = _lightest(generators, n, min)
    return (n - w) // p


def min_order(generators, n: int) -> int:
    """Length of a shortest factorization of n over the generating set. The
    frontier mod the largest generator has a pair in each class it reaches,
    so its cost follows the largest generator."""
    p, w = _lightest(generators, n, max)
    return (n + w) // p


def max_denumerant_element(S: Semigroup, s: int) -> int:
    """Number of factorizations of s in S attaining the maximal length."""
    if not contains(S, s):
        raise NotAMember(f"{s} is not in {S}")
    facts = enumerate_factorizations(S, s)
    top = max(f.length for f in facts)
    return sum(1 for f in facts if f.length == top)


def max_apery(S: Semigroup, u: int) -> list[int]:
    """Maximal nonzero members of apery_set(S, u), where w is below w' when
    w' - w lands in S without being zero."""
    ap = apery_set(S, u).elements
    out = []
    for w in ap:
        if w == 0:
            continue
        if not any(wp != w and contains(S, wp - w) for wp in ap):
            out.append(w)
    return out
