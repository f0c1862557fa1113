"""Run one workload of the maxdenum benchmark, check its answers, print its
metrics.

    python3 perfbench/run.py --workload auto-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. With --trace 0 it prints the end-to-end
metrics of one timed run; with --trace 1 the per-layer metrics of one traced
replay. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people. Reports,
with every latency or every span, go to perfbench/out/.

Set-up: SETUP_PROBES fresh processes each set up and exit, and the timed
process sets up once more; setup_s is the median of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("auto-mix", "dense", "sparse-large", "cli-cold")
SETUP_PROBES = 4
WORKER_SLACK_S = 120  # beyond --seconds, before a worker counts as hung

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "share",
}

_UNIT_BY_SUFFIX = (
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_pct", "%"),
    ("_bytes", "B"),
    ("_yield", "share"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in _UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "share" if ".method_share." in name else "count"


def _worker(args, mode: str, report: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--report", str(report),
    ]
    t0 = time.perf_counter()
    subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, check=True, timeout=args.seconds + WORKER_SLACK_S)
    return json.loads(report.read_text())


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timed(args, canaries) -> tuple[dict, int, int, list[str]]:
    from check import Checker
    from worker import records_path

    stem = OUT / f"{args.workload}-seed{args.seed}"
    setups = [_worker(args, "setup", Path(f"{stem}-setup{i}.json"))["setup_s"] for i in range(SETUP_PROBES)]
    run_report = Path(f"{stem}-run.json")
    report = _worker(args, "run", run_report)
    setups.append(report["setup_s"])
    checker = Checker(canaries)
    attempted = 0
    with open(records_path(run_report)) as records:
        for line in records:
            checker.record(json.loads(line))
            attempted += 1
    lat = report["latencies"]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": _quantile90(lat) * 1000,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_frac": 1 - checker.failed / attempted,
    }
    props = report["properties"]
    notes = [
        f"{len(lat)} timed operations (the p90 sample count) and {attempted - len(lat)} canaries",
        f"inputs: e {props['e_range']}, k {props['k_range']}, largest generator {props['largest_generator']}",
        f"checked {checker.checked} answers ({checker.oracle_checked} also against the oracle),"
        f" {checker.unchecked} left unchecked when the check budget ran out",
        *checker.messages,
    ]
    return metrics, attempted, checker.failed, notes


def traced(args) -> tuple[dict, int, int, list[str]]:
    report = _worker(args, "trace", OUT / f"{args.workload}-seed{args.seed}-trace.json")
    props = report["properties"]
    shares = {k.rsplit(".", 1)[1]: round(v, 3) for k, v in report["metrics"].items() if ".method_share." in k}
    notes = [
        f"{report['attempted']} replayed operations",
        f"inputs: e {props['e_range']}, k {props['k_range']}, largest generator {props['largest_generator']}",
        f"auto dispatch shares: {shares}",
        *report["messages"],
    ]
    return report["metrics"], report["attempted"], report["failed"], notes


def main(argv=None, canaries: dict | None = None) -> int:
    """canaries replaces the expected canary values (the self-test plants a
    wrong one)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "maxdenum" / "__init__.py").is_file():
        print(f"error: no maxdenum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    metrics, attempted, failed, notes = traced(args) if args.trace else timed(args, canaries)
    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
