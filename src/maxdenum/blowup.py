"""Blowup semigroups, adjustment tables, and the maximal denumerant engine.

The engine passes from S to its blowup B, the semigroup generated by the
multiplicity e together with every other minimal generator minus e. That
generating set is kept in source order (it need not be minimal for B), so a
factorization of s in S of length r corresponds position by position to a
factorization of s - r*e over it.

Scanning a residue class of S records the adjustment s - ord(s)*e of each
element. Adjustments never increase along the class and stabilize at the
least element of B in the class, and the distinct ones with their shortest
lengths over that generating set are the frontier pairs of S mod e in the
class (semigroup._frontier), so the scan is read off them. For each distinct
adjustment value the candidate factorizations, the ones short enough to come
from a maximal-length factorization in S, are counted without being built;
the largest count is the exact maximum number of maximal-length
factorizations over the class, attained at an explicit witness element. The
candidate vectors themselves are enumerated only when a report's candidates
are read.

All of this is one analysis per semigroup: blowup(S) returns the same
context to every caller for as long as one of them holds it, and the
context keeps each class's scan once made, so the general engine, the fast
paths and the classification share the blowup and the scans instead of
rebuilding them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, InternalCheckError, NotAMember
from .semigroup import (
    Factorization,
    GeneratingSet,
    Semigroup,
    _frontier_of,
    _least_table,
    contains,
    count_factorizations,
    enumerate_factorizations,
    least_in_class,
    make_semigroup,
    order,
)


class BlowupContext:
    """The blowup B of a source semigroup with its generating set.

    dset keeps the source generator order: position 0 holds the multiplicity
    e, position i holds generators[i] - e. It generates B but need not be
    minimal; blowup holds B reduced to minimal generators. The context also
    keeps the adjustment table of each class scanned so far. Obtain it
    through blowup(S), which shares one context per semigroup.
    """

    __slots__ = ("source", "dset", "blowup", "_least_b", "_facts", "_tables", "__weakref__")

    def __init__(self, source: Semigroup) -> None:
        self.source = source
        e = source.multiplicity
        dset_elems = (e,) + tuple(a - e for a in source.generators[1:])
        self.dset = GeneratingSet(dset_elems)
        self.blowup = make_semigroup(dset_elems)
        self._least_b = _least_table(self.blowup.generators, e)
        self._facts: dict[int, tuple[Factorization, ...]] = {}
        self._tables: dict[int, AdjustmentTable] = {}

    def least_blowup_in_class(self, residue: int) -> int:
        """Least element of B congruent to residue mod the multiplicity of
        the source (not of B, whose own multiplicity may be smaller)."""
        return self._least_b[residue]

    def factorizations_over_dset(self, b: int) -> tuple[Factorization, ...]:
        """All factorizations of b over dset, memoized per context."""
        got = self._facts.get(b)
        if got is None:
            got = tuple(enumerate_factorizations(self.dset, b))
            self._facts[b] = got
        return got


@dataclass(frozen=True)
class AdjustmentEntry:
    value: int  # a distinct adjustment value, an element of B
    min_order: int  # shortest factorization length of value over dset


@dataclass(frozen=True)
class AdjustmentTable:
    residue: int
    entries: tuple[AdjustmentEntry, ...]  # increasing by value
    scan_log: tuple[tuple[int, int, int], ...]  # rows (s, ord(s), adjustment)


@dataclass(frozen=True)
class CandidateCount:
    value: int  # an adjustment value
    count: int  # candidate factorizations of value over dset
    longest: int  # length of the longest candidate
    max_len: int | None  # length cap on the candidates; None for the least value


@dataclass(frozen=True)
class ResidueReport:
    residue: int
    counts: tuple[CandidateCount, ...]  # increasing by value
    dmax_si: int  # max candidate count: the class's maximal denumerant
    witness: int  # element of the class attaining dmax_si
    ctx: BlowupContext = field(compare=False, repr=False)

    @cached_property
    def candidates(self) -> tuple[tuple[int, tuple[Factorization, ...]], ...]:
        """Pairs (adjustment value, candidate factorizations over dset),
        enumerated on first read."""
        return tuple(
            (
                c.value,
                tuple(
                    x
                    for x in self.ctx.factorizations_over_dset(c.value)
                    if c.max_len is None or x.length <= c.max_len
                ),
            )
            for c in self.counts
        )


def blowup(S: Semigroup) -> BlowupContext:
    """Blowup context of S: generating set (e, a1-e, ..., at-e) in source
    order plus the semigroup it generates.

    While any caller holds the context, every call on S returns that same
    context, with the scans already made. S refers to it only weakly, so
    it is freed, tables and scans with it, when its last holder drops it;
    the next call then builds a new one.
    """
    ctx = S._blowup() if S._blowup is not None else None
    if ctx is None:
        ctx = BlowupContext(S)
        S._blowup = weakref.ref(ctx)
    return ctx


def adjustment(S: Semigroup, s: int) -> int:
    """s minus its maximal factorization length times the multiplicity."""
    if not contains(S, s):
        raise NotAMember(f"{s} is not in {S}")
    return s - order(S, s) * S.multiplicity


def adjustment_table(ctx: BlowupContext, residue: int) -> AdjustmentTable:
    """Scan residue class `residue` of the source and log adjustments.

    The scan is read off S's frontier mod e: the class's pairs (v, w) are
    the distinct adjustment values w, each first reached at v with shortest
    dset length (v - w)/e, and the adjustment of s is the weight of the last
    pair with v <= s. Past the last pair the adjustment stays at f, the least
    element of B in the class. The first value and f are checked against the
    least tables of S and B. Each class is scanned once per context; later
    calls return the stored table.
    """
    S = ctx.source
    e = S.multiplicity
    if not 0 <= residue < e:
        raise InputError(f"residue {residue} out of range for multiplicity {e}")
    table = ctx._tables.get(residue)
    if table is not None:
        return table
    values, weights = _frontier_of(S, e)[residue]
    start, f = least_in_class(S, residue), ctx.least_blowup_in_class(residue)
    if (values[0], weights[-1]) != (start, f):
        raise InternalCheckError(
            f"scan of class {residue} runs from {values[0]} to adjustment "
            f"{weights[-1]}, expected {start} and {f}"
        )
    ends = values[1:] + [values[-1] + e]
    rows = tuple(
        (s, (s - w) // e, w) for v, w, end in zip(values, weights, ends) for s in range(v, end, e)
    )
    entries = tuple(AdjustmentEntry(w, (v - w) // e) for v, w in zip(values[::-1], weights[::-1]))
    table = ctx._tables[residue] = AdjustmentTable(residue, entries, rows)
    return table


def residue_report(ctx: BlowupContext, table: AdjustmentTable) -> ResidueReport:
    """Candidate counts per adjustment value, and the class max.

    The least adjustment value admits every factorization over dset as a
    candidate. Each later value u admits only factorizations strictly
    shorter than min_order(previous value) - (u - previous value)/e; longer
    ones cannot arise from a maximal-length factorization in S. Candidates
    are counted, not built: the report keeps each value's count and longest
    candidate length, and enumerates the vectors only when its candidates
    are read. The largest count is the class's maximal denumerant, attained
    at witness = value + (longest candidate length) * e.
    """
    e = ctx.source.multiplicity
    counts: list[CandidateCount] = []
    prev: AdjustmentEntry | None = None
    for entry in table.entries:
        if prev is None:
            cap = None
        else:
            gap, rem = divmod(entry.value - prev.value, e)
            if rem:
                raise InternalCheckError(
                    f"adjustment values {prev.value} and {entry.value} differ "
                    f"by a non-multiple of {e}"
                )
            cap = prev.min_order - gap - 1  # strictly below min_order - gap
        n, longest = count_factorizations(ctx.dset, entry.value, cap)
        if not n:
            raise InternalCheckError(
                f"empty candidate set at adjustment value {entry.value} "
                f"in class {table.residue}"
            )
        counts.append(CandidateCount(entry.value, n, longest, cap))
        prev = entry
    best = max(c.count for c in counts)
    # ties resolve toward the smallest value
    top = next(c for c in counts if c.count == best)
    return ResidueReport(table.residue, tuple(counts), best, top.value + top.longest * e, ctx)


def dmax(S: Semigroup) -> tuple[int, list[ResidueReport]]:
    """Maximal denumerant of S with one report per residue class, in
    residue order."""
    ctx = blowup(S)
    reports = [residue_report(ctx, adjustment_table(ctx, i)) for i in range(S.multiplicity)]
    return max(r.dmax_si for r in reports), reports


def max_denumerant_element_via_blowup(ctx: BlowupContext, s: int) -> int:
    """Count maximal-length factorizations of s without enumerating them in
    S: factorizations of the adjustment over dset, length capped at ord(s),
    are in bijection with them."""
    S = ctx.source
    if not contains(S, s):
        raise NotAMember(f"{s} is not in {S}")
    r = order(S, s)
    return count_factorizations(ctx.dset, s - r * S.multiplicity, r)[0]
