"""Seeded input streams, one per workload.

Every stream is a pure function of its seed: the same seed gives the same
inputs in the same order. A stream never yields a generator tuple twice.

The size parameter of each input (the multiplicity e, or the scan reach on
sparse-large) follows a golden-ratio sequence with a seeded offset, so any
prefix of the stream covers the size range evenly. A run completes however
many operations fit in its time, and that count differs between runs; with
plain random sizes the cost mix of the completed prefix, and so every timing,
would wander from seed to seed. The other choices are random.

Each item is a dict with "gens" (the generators, as given to the program),
"argv" (the command line of the operation, without the program name) and
"tag" (the subcommand; "dmax" for the in-process workloads).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, prod

from maxdenum import GcdNotOne, make_semigroup

WORKLOADS = ("auto-mix", "dense", "sparse-large", "cli-cold")

RETRIES = 100
_PHI = (5**0.5 - 1) / 2
_SQRT2 = 2**0.5 - 1


class _Stream:
    """Endless seeded stream of items; subclasses implement _make."""

    def __init__(self, seed: int, name: str) -> None:
        self.rng = random.Random(f"{name}:{seed}")
        self.u0 = self.rng.random()
        self.count = 0
        self.seen: set[tuple[int, ...]] = set()

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        # u places the item's size in its range; a stream that cannot find a
        # fresh item for RETRIES sizes in a row is exhausted
        for _ in range(RETRIES):
            item = self._draw((self.u0 + self.count * _PHI) % 1.0, self.count)
            self.count += 1
            if item is not None:
                return item
        raise StopIteration

    def warm_up(self) -> dict:
        """An input from the middle of the size range, for the warm-up
        operation, so that its cost, part of set-up time, does not depend on
        the seed."""
        item = self._draw(0.5, 0)
        if item is None:
            raise StopIteration
        return item

    def _draw(self, u: float, i: int) -> dict | None:
        """A fresh item of size u; retries redraw only the random choices."""
        for _ in range(RETRIES):
            item = self._make(u, i)
            if item is not None and tuple(item["gens"]) not in self.seen:
                self.seen.add(tuple(item["gens"]))
                return item
        return None

    def _make(self, u: float, i: int) -> dict | None:
        raise NotImplementedError


def _scale(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _small_semigroup(rng: random.Random, e: int, k: int) -> tuple[int, ...] | None:
    """k minimal generators below 3e with multiplicity e, or None."""
    picks = rng.sample(range(e + 1, 3 * e), k - 1)
    try:
        S = make_semigroup([e, *picks])
    except GcdNotOne:
        return None
    if S.embedding_dimension != k or S.multiplicity != e:
        return None
    return S.generators


def dmax_item(gens) -> dict:
    """The item of one dmax operation on these generators."""
    return {"gens": list(gens), "tag": "dmax", "argv": ["dmax", *map(str, gens), "--format", "json"]}


class AutoMix(_Stream):
    """e in 8..40, 4..6 minimal generators below 3e, through `auto`."""

    def _make(self, u: float, i: int) -> dict | None:
        gens = _small_semigroup(self.rng, _scale(u, 8, 40), 4 + i % 3)
        return None if gens is None else dmax_item(gens)


class Dense(_Stream):
    """Near-arithmetic: e, e+1, ..., e+k-1 with one or two generators other
    than e moved up to at most e+12. k alternates 5 and 6; e is 50..100 for
    k=5 and 50..70 for k=6, where one operation costs about as much.

    The cost of an input falls about as the product of its gaps a_i - e
    rises, by 13 times across the variants of one e. So the variants of each
    (e, k) are sorted by that product and picked by a second low-discrepancy
    sequence, and every 50th input is the costliest unused variant of the
    largest e: each run then meets the same spread of costs, and the same
    heaviest inputs, which set its peak memory."""

    def __init__(self, seed: int, name: str) -> None:
        super().__init__(seed, name)
        self.variants: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def _variants(self, e: int, k: int) -> list[tuple[int, ...]]:
        got = self.variants.get((e, k))
        if got is None:
            found = set()
            for moved in (1, 2):
                for pos in combinations(range(k - 1), moved):
                    for new in combinations(range(k, 13), moved):
                        gaps = list(range(1, k))
                        for p, g in zip(pos, new):
                            gaps[p] = g
                        if gcd(e, *gaps) == 1:
                            found.add(tuple(sorted(gaps)))
            # every generator is below 2e, so all k of them are minimal
            got = sorted(found, key=lambda gaps: (-prod(gaps), gaps))
            self.variants[(e, k)] = got
        return got

    def _make(self, u: float, i: int) -> dict | None:
        k = 5 + i % 2
        v = (i * _SQRT2) % 1.0
        if i % 50 == 49:
            u = v = 1.0 - 1e-9
        e = _scale(u, 50, 100 if k == 5 else 70)
        variants = self._variants(e, k)
        at = int(v * len(variants))
        for gaps in variants[at::-1] + variants[at + 1 :]:
            gens = (e, *(e + g for g in gaps))
            if gens not in self.seen:
                return dmax_item(gens)
        return None


# The scan reach of sparse-large: (d - 1) * G, where G is the large generator
# and d the gcd of the others. Least tables and order tables grow to about
# this size, so it fixes the cost of an operation.
SPARSE_REACH = (60_000, 200_000)


class SparseLarge(_Stream):
    """e in 2..12, 2 or 3 minimal generators, alternating: e, for k=3 a
    multiple of a divisor d > 1 of e below 3e, and one large generator G
    coprime to d (d = e for k=2). G is chosen so that the reach (d - 1) * G
    is log-uniform over SPARSE_REACH; G is then 9_000..300_000, at least
    750 * e.

    Four generators are left out: with two small generators beside e, the
    candidate sets of the large adjustment values hold about G**2 / 2000
    vectors (10**7 and more), so one operation runs for hours."""

    def _make(self, u: float, i: int) -> dict | None:
        lo, hi = SPARSE_REACH
        reach = lo * (hi / lo) ** u
        if i % 2 == 0:
            e = self.rng.randint(2, 12)
            d, small = e, []
        else:
            e = self.rng.choice((4, 6, 8, 9, 10, 12))
            d = self.rng.choice([d for d in range(2, e) if e % d == 0])
            small = [self.rng.choice([m for m in range(e + d, 3 * e, d) if m % e])]
            d = gcd(e, *small)
        big = max(int(reach / (d - 1)), 3 * e)
        while gcd(big, d) != 1:
            big += 1
        # big is minimal: the others only reach multiples of d
        return dmax_item((e, *small, big))


CLI_COMMANDS = ("dmax", "table", "classify", "apery", "blowup", "factorizations")


class CliCold(_Stream):
    """One fresh interpreter per operation, cycling through the subcommands.
    Generators: e in 8..16, 3..5 minimal generators below 3e. The
    factorizations target is 10e..25e, which lists up to thousands of
    vectors; the table residue is any class mod e."""

    def _make(self, u: float, i: int) -> dict | None:
        tag = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        e = _scale(u, 8, 16)
        gens = _small_semigroup(self.rng, e, self.rng.randint(3, 5))
        if gens is None:
            return None
        extra: list[str] = []
        if tag == "table":
            extra = ["--residue", str(self.rng.randrange(e))]
        elif tag == "factorizations":
            extra = ["--target", str(self.rng.randint(10 * e, 25 * e))]
        argv = [tag, *map(str, gens), *extra, "--format", "json"]
        return {"gens": list(gens), "tag": tag, "argv": argv}


_STREAMS = {"auto-mix": AutoMix, "dense": Dense, "sparse-large": SparseLarge, "cli-cold": CliCold}


def stream(workload: str, seed: int) -> _Stream:
    return _STREAMS[workload](seed, workload)


class Properties:
    """Input properties of a run, gathered one item at a time: ranges of e
    and k, the largest generator, the number of inputs."""

    def __init__(self) -> None:
        self.es: set[int] = set()
        self.ks: set[int] = set()
        self.largest = 0
        self.inputs = 0

    def add(self, item: dict) -> None:
        gens = item["gens"]
        self.es.add(gens[0])
        self.ks.add(len(gens))
        self.largest = max(self.largest, *gens)
        self.inputs += 1

    def summary(self) -> dict:
        return {
            "e_range": [min(self.es), max(self.es)],
            "k_range": [min(self.ks), max(self.ks)],
            "largest_generator": self.largest,
            "inputs": self.inputs,
        }
