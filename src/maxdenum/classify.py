"""Structural classification and closed-form maximal denumerants.

Fast paths cover additive semigroups (all class maxima sit at the blowup
Apery elements), additive semigroups with symmetric blowup (one denumerant
evaluation), arithmetic sequences (bounded integer partitions), and
three-generator input (two ceiling formulas that must agree). Each fast path
raises a PreconditionError when its input does not qualify. classify and the
blowup fast paths hold the shared blowup context for their whole run, so
their checks build it once and scan each residue class at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .blowup import adjustment_table, blowup
from .errors import (
    InternalCheckError,
    InvalidParameters,
    NotAdditive,
    PreconditionFailed,
)
from .semigroup import (
    Semigroup,
    apery_set,
    contains,
    count_factorizations,
    frobenius_number,
    make_semigroup,
    max_apery,
    order,
)


def ceil_div(p: int, q: int) -> int:
    """Exact ceiling of p/q for q > 0, valid for negative p too."""
    return (p + q - 1) // q


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a*x + b*y = gcd(a, b), extended Euclid."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def is_additive(S: Semigroup) -> bool:
    """True when every residue class adjusts straight to the least blowup
    element, equivalently when ord(u + e) = ord(u) + 1 throughout S."""
    ctx = blowup(S)
    return all(
        len(adjustment_table(ctx, i).entries) == 1 for i in range(S.multiplicity)
    )


def is_symmetric(S: Semigroup) -> bool:
    """Apery pairing test: with the Apery set of the multiplicity sorted as
    w_0 < ... < w_{e-1}, demand w_i + w_j = w_{e-1} whenever i + j = e - 1.

    Cross-checked against the equivalent condition that frobenius + e is the
    only maximal nonzero Apery element; a disagreement raises
    InternalCheckError. The semigroup of all nonnegative integers is
    symmetric (the pairing is trivial) and returns True directly, since the
    maximal-element condition degenerates there.
    """
    e = S.multiplicity
    if e == 1:
        return True
    w = apery_set(S).elements
    top = w[-1]
    paired = all(w[i] + w[e - 1 - i] == top for i in range(e))
    only_max = max_apery(S, e) == [frobenius_number(S) + e]
    if paired is not only_max:
        raise InternalCheckError(f"symmetry characterizations disagree on {S}")
    return paired


def is_supersymmetric(S: Semigroup) -> bool:
    """Additive, with the Apery pairing holding in values and in orders."""
    if not is_additive(S):
        return False
    e = S.multiplicity
    w = apery_set(S).elements
    orders = [order(S, x) for x in w]
    return all(
        w[i] + w[e - 1 - i] == w[e - 1]
        and orders[i] + orders[e - 1 - i] == orders[e - 1]
        for i in range(e)
    )


def arithmetic_parameters(S: Semigroup) -> tuple[int, int, int] | None:
    """(e, d, t) when the minimal generators are e, e+d, ..., e+t*d."""
    gens = S.generators
    if len(gens) < 2:
        return None
    e = gens[0]
    d = gens[1] - e
    if all(gens[j] == e + j * d for j in range(len(gens))):
        return e, d, len(gens) - 1
    return None


@dataclass(frozen=True)
class Classification:
    additive: bool
    blowup_symmetric: bool
    supersymmetric: bool
    arithmetic_sequence: tuple[int, int, int] | None


def classify(S: Semigroup) -> Classification:
    """The structural facts that select the fast paths."""
    ctx = blowup(S)  # held so that every check below shares it
    return Classification(
        additive=is_additive(S),
        blowup_symmetric=is_symmetric(ctx.blowup),
        supersymmetric=is_supersymmetric(S),
        arithmetic_sequence=arithmetic_parameters(S),
    )


def dmax_additive(S: Semigroup) -> int:
    """Maximal denumerant of an additive semigroup: the largest denumerant
    over the blowup generating set among maximal Apery elements of the
    blowup."""
    ctx = blowup(S)
    if not is_additive(S):
        raise NotAdditive(f"{S} is not additive")
    tops = max_apery(ctx.blowup, S.multiplicity)
    if not tops:
        # the blowup Apery set is {0} alone, so S is all nonnegative
        # integers and k*1 is the one maximal factorization of each k
        return 1
    return max(count_factorizations(ctx.dset, f)[0] for f in tops)


def dmax_symmetric_blowup(S: Semigroup) -> int:
    """One-evaluation path for additive S with symmetric blowup B: the
    denumerant of frobenius(B) + e over the blowup generating set."""
    ctx = blowup(S)
    if not is_additive(S):
        raise PreconditionFailed(f"{S} is not additive")
    if not is_symmetric(ctx.blowup):
        raise PreconditionFailed(f"the blowup of {S} is not symmetric")
    target = frobenius_number(ctx.blowup) + S.multiplicity
    return count_factorizations(ctx.dset, target)[0]


def partition_count(n: int, max_part: int) -> int:
    """Partitions of n into parts of size at most max_part."""
    if n < 0 or max_part < 1:
        raise InvalidParameters(f"partition_count needs n >= 0, max_part >= 1: {n}, {max_part}")
    dp = [1] + [0] * n
    for part in range(1, max_part + 1):
        for v in range(part, n + 1):
            dp[v] += dp[v - part]
    return dp[n]


def dmax_arithmetic(e: int, d: int, t: int) -> int:
    """Maximal denumerant of the arithmetic-sequence semigroup generated by
    e, e+d, ..., e+t*d with gcd(e, d) = 1: partitions of e - 1 into parts
    of size at most t."""
    if t < 1 or d < 1 or e <= t or gcd(e, d) != 1:
        raise InvalidParameters(
            f"not a minimally generated arithmetic sequence: e={e} d={d} t={t}"
        )
    return partition_count(e - 1, t)


@dataclass(frozen=True)
class Ed3Input:
    """Three generators a1 < a2 < a3 with gcd 1, possibly non-minimal, plus
    the derived quantities the closed-form paths share."""

    a1: int
    a2: int
    a3: int
    g: int  # gcd(a2 - a1, a3 - a1)
    m: int  # (a2 - a1)/g
    n: int  # (a3 - a1)/g
    alpha: int  # -a1 reduced mod m*n into [0, m*n)

    @classmethod
    def from_generators(cls, a1: int, a2: int, a3: int) -> Ed3Input:
        if not 0 < a1 < a2 < a3:
            raise InvalidParameters(f"need 0 < a1 < a2 < a3, got {(a1, a2, a3)}")
        if gcd(a1, a2, a3) != 1:
            raise InvalidParameters(f"gcd of {(a1, a2, a3)} exceeds 1")
        g = gcd(a2 - a1, a3 - a1)
        m = (a2 - a1) // g
        n = (a3 - a1) // g
        return cls(a1, a2, a3, g, m, n, (-a1) % (m * n))


def dmax_ed3_ceiling(inp: Ed3Input) -> int:
    """Ceiling formula for three generators: ceil(a1/(m*n)), plus 1 exactly
    when alpha falls outside the semigroup generated by m and n."""
    base = ceil_div(inp.a1, inp.m * inp.n)
    if contains(make_semigroup([inp.m, inp.n]), inp.alpha):
        return base
    return base + 1


def dmax_ed3_bezout(inp: Ed3Input, pair: tuple[int, int] | None = None) -> int:
    """Bezout formula for three generators: ceil(x/n) + ceil(y/m) for any
    integer solution of m*x + n*y = a1. The value does not depend on which
    solution is used; pass pair to evaluate with a specific one."""
    if pair is None:
        x0, y0 = _bezout(inp.m, inp.n)  # gcd(m, n) = 1 by construction
        pair = (x0 * inp.a1, y0 * inp.a1)
    x, y = pair
    if inp.m * x + inp.n * y != inp.a1:
        raise InvalidParameters(
            f"({x}, {y}) does not solve {inp.m}*x + {inp.n}*y = {inp.a1}"
        )
    return ceil_div(x, inp.n) + ceil_div(y, inp.m)


def dmax_ed3(inp: Ed3Input) -> int:
    """Both three-generator formulas, cross-asserted equal."""
    a = dmax_ed3_ceiling(inp)
    b = dmax_ed3_bezout(inp)
    if a != b:
        raise InternalCheckError(
            f"three-generator formulas disagree on {inp}: {a} vs {b}"
        )
    return a
