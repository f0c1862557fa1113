"""Command line interface over the exact semigroup computations.

One result envelope per invocation goes to stdout as json (the default when
stdout is not a terminal), csv, or aligned text; diagnostics go to stderr.
Exit codes: 0 success, 2 invalid input, 3 method precondition failure,
4 internal cross-check failure.

Environment: MAXDENUM_WIDTH caps text table width (default 100).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .blowup import adjustment_table, blowup, dmax, residue_report
from .classify import (
    Ed3Input,
    arithmetic_parameters,
    classify,
    dmax_additive,
    dmax_arithmetic,
    dmax_ed3,
    dmax_symmetric_blowup,
)
from .errors import (
    InputError,
    InternalCheckError,
    InvalidParameters,
    PreconditionError,
)
from .oracle import oracle_dmax
from .semigroup import (
    GeneratingSet,
    Semigroup,
    apery_set,
    enumerate_factorizations,
    make_semigroup,
)

METHODS = ("auto", "general", "additive", "symmetric-blowup", "ed3", "arithmetic", "oracle")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdenum",
        description="Exact maximal denumerants of numerical semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("generators", nargs="+", type=int, metavar="GEN")
    common.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=None,
        help="output format; defaults to text on a terminal, json otherwise",
    )

    p = sub.add_parser("dmax", parents=[common], help="maximal denumerant of the semigroup")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the result against the general engine",
    )

    p = sub.add_parser("table", parents=[common], help="adjustment scan of one residue class")
    p.add_argument("--residue", type=int, required=True)

    sub.add_parser("classify", parents=[common], help="structural classification")

    p = sub.add_parser("apery", parents=[common], help="Apery set of the semigroup")
    p.add_argument("--unit", type=int, default=None, help="base element, default multiplicity")

    sub.add_parser("blowup", parents=[common], help="blowup generating set and semigroup")

    p = sub.add_parser(
        "factorizations",
        parents=[common],
        help="factorizations of a target over the generators as given",
    )
    p.add_argument("--target", type=int, required=True)
    p.add_argument(
        "--maximal-only",
        action="store_true",
        help="keep only factorizations of maximal length",
    )
    return parser


def _dmax_dispatch(S: Semigroup, method: str):
    """Returns (value, method_used, per-residue reports or None)."""
    if method == "general":
        value, reports = dmax(S)
        return value, "general", reports
    if method == "arithmetic":
        params = arithmetic_parameters(S)
        if params is None:
            raise InvalidParameters(f"{S} is not generated by an arithmetic sequence")
        return dmax_arithmetic(*params), "arithmetic", None
    if method == "ed3":
        if S.embedding_dimension != 3:
            raise InvalidParameters(f"{S} does not have three minimal generators")
        return dmax_ed3(Ed3Input.from_generators(*S.generators)), "ed3-ceiling", None
    if method == "symmetric-blowup":
        return dmax_symmetric_blowup(S), "symmetric-blowup", None
    if method == "additive":
        return dmax_additive(S), "additive", None
    if method == "oracle":
        return oracle_dmax(S), "oracle", None
    # auto: the first fast path, cheapest first, whose own precondition
    # check passes, else the general engine
    for candidate in ("arithmetic", "ed3", "symmetric-blowup", "additive"):
        try:
            return _dmax_dispatch(S, candidate)
        except PreconditionError:
            pass
    return _dmax_dispatch(S, "general")


def _report_payload(report) -> dict:
    return {
        "residue": report.residue,
        "dmax_si": report.dmax_si,
        "witness": report.witness,
        "adjustments": [
            {"value": c.value, "count": c.count, "longest": c.longest}
            for c in report.counts
        ],
    }


def _run(args: argparse.Namespace) -> dict:
    gens = list(args.generators)
    if args.command == "dmax":
        S = make_semigroup(gens)
        ctx = blowup(S)  # held so that dispatch and --verify share one scan
        value, used, reports = _dmax_dispatch(S, args.method)
        if args.verify and used != "general":
            check, _ = dmax(S)
            if check != value:
                raise InternalCheckError(
                    f"method {used} returned {value} but the general engine says {check}"
                )
        result: dict = {"value": value, "generators": list(S.generators)}
        if reports is not None:
            result["per_residue"] = [_report_payload(r) for r in reports]
        return _envelope("dmax", {"generators": gens, "method": args.method, "verify": args.verify}, used, result)

    if args.command == "table":
        S = make_semigroup(gens)
        ctx = blowup(S)
        table = adjustment_table(ctx, args.residue)
        report = residue_report(ctx, table)
        result = {
            "generators": list(S.generators),
            "multiplicity": S.multiplicity,
            "residue": table.residue,
            "rows": [list(row) for row in table.scan_log],
            "adjustments": [
                {
                    "value": entry.value,
                    "min_order": entry.min_order,
                    "candidates": [
                        list(f.coefficients) for f in dict(report.candidates)[entry.value]
                    ],
                }
                for entry in table.entries
            ],
            "dmax_si": report.dmax_si,
            "witness": report.witness,
        }
        return _envelope("table", {"generators": gens, "residue": args.residue}, "general", result)

    if args.command == "classify":
        S = make_semigroup(gens)
        c = classify(S)
        result = {
            "generators": list(S.generators),
            "additive": c.additive,
            "blowup_symmetric": c.blowup_symmetric,
            "supersymmetric": c.supersymmetric,
            "arithmetic_sequence": list(c.arithmetic_sequence) if c.arithmetic_sequence else None,
        }
        return _envelope("classify", {"generators": gens}, "general", result)

    if args.command == "apery":
        S = make_semigroup(gens)
        ap = apery_set(S, args.unit)
        result = {
            "generators": list(S.generators),
            "base_element": ap.base_element,
            "elements": list(ap.elements),
        }
        return _envelope("apery", {"generators": gens, "unit": args.unit}, "general", result)

    if args.command == "blowup":
        S = make_semigroup(gens)
        ctx = blowup(S)
        result = {
            "generators": list(S.generators),
            "dset": list(ctx.dset.elements),
            "blowup_generators": list(ctx.blowup.generators),
        }
        return _envelope("blowup", {"generators": gens}, "general", result)

    if args.command == "factorizations":
        G = GeneratingSet(gens)
        if args.target < 0:
            raise InputError(f"target must be nonnegative, got {args.target}")
        facts = enumerate_factorizations(G, args.target)
        if args.maximal_only and facts:
            top = max(f.length for f in facts)
            facts = [f for f in facts if f.length == top]
        result = {
            "target": args.target,
            "count": len(facts),
            "factorizations": [list(f.coefficients) for f in facts],
            "lengths": [f.length for f in facts],
        }
        inputs = {
            "generators": gens,
            "target": args.target,
            "maximal_only": args.maximal_only,
        }
        return _envelope("factorizations", inputs, "general", result)

    raise InputError(f"unknown command {args.command}")


def _envelope(command: str, inputs: dict, method_used: str, result: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "method_used": method_used,
        "result": result,
    }


def _angle(gens) -> str:
    return "<" + ", ".join(str(g) for g in gens) + ">"


def _fact_str(coeffs) -> str:
    return "(" + ",".join(str(c) for c in coeffs) + ")"


def _three_row_blocks(labels: list[str], columns: list[tuple], width: int) -> list[str]:
    """Aligned label | cells rows, chunked so lines stay within width."""
    label_w = max(len(s) for s in labels)
    col_w = [max(len(str(cell)) for cell in col) for col in columns]
    lines: list[str] = []
    start = 0
    while start < len(columns):
        used = label_w + 2  # label plus " |"
        end = start
        while end < len(columns) and (end == start or used + col_w[end] + 1 <= width):
            used += col_w[end] + 1
            end += 1
        for r, label in enumerate(labels):
            cells = " ".join(
                str(columns[c][r]).rjust(col_w[c]) for c in range(start, end)
            )
            lines.append(f"{label.ljust(label_w)} | {cells}")
        start = end
    return lines


def _text_dmax(env: dict, width: int) -> str:
    result = env["result"]
    out = [f"S = {_angle(result['generators'])}", f"method = {env['method_used']}"]
    if "per_residue" in result:
        rows = [
            (
                str(r["residue"]),
                str(r["dmax_si"]),
                str(r["witness"]),
                ", ".join(str(a["value"]) for a in r["adjustments"]),
            )
            for r in result["per_residue"]
        ]
        headers = ("residue", "dmax", "witness", "adjustments")
        widths = [
            max(len(headers[j]), max(len(row[j]) for row in rows)) for j in range(3)
        ]
        out.append("  ".join(h.rjust(widths[j]) for j, h in enumerate(headers[:3])) + "  " + headers[3])
        for row in rows:
            out.append("  ".join(row[j].rjust(widths[j]) for j in range(3)) + "  " + row[3])
    out.append(f"d_max(S) = {result['value']}")
    return "\n".join(out) + "\n"


def _text_table(env: dict, width: int) -> str:
    result = env["result"]
    i = result["residue"]
    out = [
        f"S = {_angle(result['generators'])}, residue {i} mod {result['multiplicity']}"
    ]
    labels = [f"s in S_{i}", "ord(s)", "adj(s)"]
    columns = [tuple(row) for row in result["rows"]]
    out.extend(_three_row_blocks(labels, columns, width))
    for adj in result["adjustments"]:
        facts = " ".join(_fact_str(c) for c in adj["candidates"])
        out.append(
            f"adjustment {adj['value']}: min length {adj['min_order']}, "
            f"candidates {len(adj['candidates'])}: {facts}"
        )
    out.append(f"d_max(S_{i}) = {result['dmax_si']}, witness {result['witness']}")
    return "\n".join(out) + "\n"


def _text_other(env: dict) -> str:
    result = env["result"]
    cmd = env["command"]
    if cmd == "classify":
        arith = result["arithmetic_sequence"]
        arith_s = "e={} d={} t={}".format(*arith) if arith else "no"
        return (
            f"S = {_angle(result['generators'])}\n"
            f"additive: {'yes' if result['additive'] else 'no'}\n"
            f"blowup symmetric: {'yes' if result['blowup_symmetric'] else 'no'}\n"
            f"supersymmetric: {'yes' if result['supersymmetric'] else 'no'}\n"
            f"arithmetic sequence: {arith_s}\n"
        )
    if cmd == "apery":
        elems = ", ".join(str(x) for x in result["elements"])
        return (
            f"S = {_angle(result['generators'])}\n"
            f"Ap(S; {result['base_element']}) = {{{elems}}}\n"
        )
    if cmd == "blowup":
        return (
            f"S = {_angle(result['generators'])}\n"
            f"blowup generating set (source order) = {result['dset']}\n"
            f"blowup minimal generators = {result['blowup_generators']}\n"
        )
    if cmd == "factorizations":
        lines = [f"target {result['target']}, count {result['count']}"]
        for coeffs, length in zip(result["factorizations"], result["lengths"]):
            lines.append(f"{_fact_str(coeffs)} length {length}")
        return "\n".join(lines) + "\n"
    raise InternalCheckError(f"no text renderer for {cmd}")


def _render_csv(env: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = env["command"]
    result = env["result"]
    if cmd == "dmax":
        writer.writerow(["value", "method_used"])
        writer.writerow([result["value"], env["method_used"]])
    elif cmd == "table":
        writer.writerow(["s", "ord", "adj"])
        writer.writerows(result["rows"])
    elif cmd == "classify":
        writer.writerow(["additive", "blowup_symmetric", "supersymmetric", "arithmetic_sequence"])
        arith = result["arithmetic_sequence"]
        writer.writerow(
            [
                result["additive"],
                result["blowup_symmetric"],
                result["supersymmetric"],
                ":".join(str(x) for x in arith) if arith else "",
            ]
        )
    elif cmd == "apery":
        writer.writerow(["element"])
        writer.writerows([x] for x in result["elements"])
    elif cmd == "blowup":
        writer.writerow(["position", "element"])
        writer.writerows(enumerate(result["dset"]))
    elif cmd == "factorizations":
        k = len(env["inputs"]["generators"])
        writer.writerow([f"c{j}" for j in range(k)] + ["length"])
        for coeffs, length in zip(result["factorizations"], result["lengths"]):
            writer.writerow(list(coeffs) + [length])
    else:
        raise InternalCheckError(f"no csv renderer for {cmd}")
    return buf.getvalue()


def _render(env: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(env, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(env)
    width = max(_env_int("MAXDENUM_WIDTH", 100), 24)
    if env["command"] == "dmax":
        return _text_dmax(env, width)
    if env["command"] == "table":
        return _text_table(env, width)
    return _text_other(env)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        env = _run(args)
        fmt = args.format or ("text" if sys.stdout.isatty() else "json")
        sys.stdout.write(_render(env, fmt))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    return 0
