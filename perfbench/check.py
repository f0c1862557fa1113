"""Answer checks, run after the worker process has exited.

No check runs inside a timed region, and each one takes a path other than
the code that was timed:

- auto-mix, and dmax on cli-cold: a fast-path value against the general
  engine; a general-engine value by recounting its witness;
- dense and sparse-large: a recount of the witness with
  max_denumerant_element, which enumerates factorizations in S directly;
- every workload: the brute-force oracle_dmax wherever it is small enough
  to finish within ORACLE_BUDGET_S, and the frozen CANARIES;
- the other cli-cold subcommands: the one result field that carries the
  answer, recomputed by brute force.

Operations are checked in the order they ran until CHECK_BUDGET_S is spent.
Only the exit code and the answer fields are read, never the full JSON, so
changes to the rest of the envelope do not break the benchmark.
"""

from __future__ import annotations

import time
from math import prod

from maxdenum import (
    arithmetic_parameters,
    auto_bound,
    dmax,
    make_semigroup,
    max_denumerant_element,
    oracle_dmax,
    oracle_dmax_profile,
    oracle_factorizations,
)

# Frozen expected values, the NAMED table of tests/conftest.py.
CANARIES = {
    (1,): 1,
    (2, 3): 1,
    (3, 5): 1,
    (4, 5, 6): 2,
    (5, 6, 7): 3,
    (5, 7, 8): 2,
    (6, 9, 20): 1,
    (6, 10, 15): 1,
    (7, 10, 12): 1,
    (6, 7, 8, 9): 5,
    (8, 13, 18, 23): 8,
    (9, 11, 13): 5,
    (13, 17, 22, 40): 3,
    (14, 17, 20, 23): 21,
    (19, 149): 1,
    (10, 11, 12, 13, 14): 18,
    (11, 13, 15, 17, 19): 23,
    (15, 17, 36, 38, 71): 3,
}

# Seconds of checking per run; past them only exit codes, raised errors and
# canaries are checked. A dense recount can cost more than the operation.
CHECK_BUDGET_S = 4.0
ORACLE_BUDGET_S = 2.0
# oracle_dmax_profile visits about bound**k / (k! * prod(gens)) vectors
ORACLE_MAX_VECTORS = 100_000


def _oracle_bound(gens) -> int | None:
    """The oracle's scan ceiling when its sweep is small, else None."""
    if max(gens) > 80 or len(gens) > 5:
        return None
    S = make_semigroup(gens)
    bound = auto_bound(S).max_element
    k = len(S.generators)
    if bound**k / (prod(range(1, k + 1)) * prod(S.generators)) > ORACLE_MAX_VECTORS:
        return None
    return bound


class Checker:
    """Checks records from one run and counts the wrong ones."""

    def __init__(self, canaries: dict | None = None) -> None:
        self.canaries = CANARIES if canaries is None else canaries
        self.check_left = CHECK_BUDGET_S
        self.oracle_left = ORACLE_BUDGET_S
        self.failed = 0
        self.checked = 0
        self.unchecked = 0
        self.oracle_checked = 0
        self.messages: list[str] = []

    def _fail(self, rec: dict, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{' '.join(rec['argv'])}: {why}")

    def record(self, rec: dict) -> None:
        if rec.get("error") is not None:
            self._fail(rec, f"raised {rec['error']}")
            return
        if rec["code"] != 0:
            self._fail(rec, f"exit code {rec['code']}")
            return
        if self.check_left <= 0 and not rec.get("canary"):
            self.unchecked += 1
            return
        t = time.perf_counter()
        try:
            why = self._wrong(rec)
        except Exception as exc:  # a record the checker cannot read is wrong
            why = f"unreadable result: {exc!r}"
        self.check_left -= time.perf_counter() - t
        self.checked += 1
        if why:
            self._fail(rec, why)

    def _wrong(self, rec: dict) -> str | None:
        gens, out = tuple(rec["gens"]), rec["out"]
        tag = rec["tag"]
        if tag == "dmax":
            value = out["value"]
            if rec.get("canary"):
                want = self.canaries[gens]
                return None if value == want else f"canary value {value}, expected {want}"
            why = self._dmax_wrong(gens, out)
            return why or self._oracle_wrong(gens, value)
        S = make_semigroup(gens)
        if tag == "table":
            if out["witness"] % S.multiplicity != int(rec["argv"][rec["argv"].index("--residue") + 1]):
                return f"witness {out['witness']} outside the requested class"
            recount = max_denumerant_element(S, out["witness"])
            return None if recount == out["dmax_si"] else f"dmax_si {out['dmax_si']}, recount {recount}"
        if tag == "factorizations":
            target = int(rec["argv"][rec["argv"].index("--target") + 1])
            want = len(oracle_factorizations(gens, target))
            return None if out["count"] == want else f"count {out['count']}, oracle {want}"
        if tag == "apery":
            return _apery_wrong(S.generators, out["elements"])
        if tag == "blowup":
            e = S.multiplicity
            want = [e] + [a - e for a in S.generators[1:]]
            return None if out["dset"] == want else f"dset {out['dset']}, expected {want}"
        if tag == "classify":
            arith = arithmetic_parameters(S)
            if out["arithmetic_sequence"] != (list(arith) if arith else None):
                return f"arithmetic_sequence {out['arithmetic_sequence']}"
            bound = _oracle_bound(gens)
            if bound is not None and out["additive"] != _additive_by_oracle(S, bound):
                return f"additive {out['additive']} disagrees with the oracle orders"
            return None
        return f"unknown subcommand {tag}"

    def _dmax_wrong(self, gens, out) -> str | None:
        value = out["value"]
        S = make_semigroup(gens)
        if out.get("method", "general") != "general":
            engine = dmax(S)[0]
            return None if engine == value else f"{out['method']} gave {value}, general engine {engine}"
        recount = max_denumerant_element(S, out["witness"])
        return None if recount == value else f"value {value}, witness {out['witness']} recounts {recount}"

    def _oracle_wrong(self, gens, value) -> str | None:
        if self.oracle_left <= 0:
            return None
        t = time.perf_counter()
        bound = _oracle_bound(gens)
        want = None if bound is None else oracle_dmax(make_semigroup(gens))
        self.oracle_left -= time.perf_counter() - t
        if want is None:
            return None
        self.oracle_checked += 1
        return None if want == value else f"value {value}, oracle {want}"


def _apery_wrong(gens, elements) -> str | None:
    """Each element is the least member of its class mod e, by brute force."""
    e = gens[0]
    if sorted(w % e for w in elements) != list(range(e)):
        return f"apery elements {elements} do not cover every class once"
    for w in elements:
        if not oracle_factorizations(gens, w):
            return f"apery element {w} is not in S"
        if w >= e and oracle_factorizations(gens, w - e):
            return f"apery element {w} has {w - e} in S"
    return None


def _additive_by_oracle(S, bound: int) -> bool:
    """ord(u + e) = ord(u) + 1 for every member u with u + e under the
    oracle's ceiling, which lies past every class's stabilization point."""
    e = S.multiplicity
    profile = oracle_dmax_profile(S)
    return all(
        profile[u + e][0] == length + 1 for u, (length, _) in profile.items() if u + e <= bound
    )
