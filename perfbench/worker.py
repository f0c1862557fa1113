"""The fresh process of one benchmark run.

It sets up (import, input stream, one warm-up operation on an input that is
not measured), then either runs the timed closed loop or the traced replay,
and writes a JSON report for run.py. One caller, one operation at a time.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode run|setup|trace --t0 T --report PATH

T is the parent's time.perf_counter() just before it started this process;
on Linux that clock is system-wide, so set-up time counts interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# sparse-large runs under an address-space cap, so a memory blow-up becomes
# a counted failure (MemoryError) instead of exhausting a shared machine
ADDRESS_SPACE_CAP = 2 << 30
CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _best_witness(reports) -> int:
    return max(reports, key=lambda r: r.dmax_si).witness


def _cli_summary(tag: str, env: dict) -> dict:
    """The answer fields of one CLI envelope."""
    result = env["result"]
    if tag == "dmax":
        out = {"value": result["value"], "method": env["method_used"]}
        if "per_residue" in result:
            out["witness"] = max(result["per_residue"], key=lambda r: r["dmax_si"])["witness"]
        return out
    keys = {
        "table": ("dmax_si", "witness"),
        "classify": ("additive", "arithmetic_sequence"),
        "apery": ("elements",),
        "blowup": ("dset",),
        "factorizations": ("count",),
    }[tag]
    return {k: result[k] for k in keys}


class Runner:
    """The operation of a workload, split into the timed call and the
    untimed reading of its answer."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        if workload == "cli-cold":
            self.env = cli_env()
        else:
            from maxdenum import dmax, make_semigroup
            from maxdenum.cli import main

            self.dmax, self.make_semigroup, self.cli_main = dmax, make_semigroup, main

    def call(self, item: dict):
        if self.workload == "cli-cold":
            return subprocess.run(
                [sys.executable, "-m", "maxdenum", *item["argv"]],
                cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
            )
        if self.workload == "auto-mix":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli_main(item["argv"])
            return code, buf
        return self.dmax(self.make_semigroup(item["gens"]))

    def read(self, item: dict, raw) -> dict:
        rec = {"gens": item["gens"], "tag": item["tag"], "argv": item["argv"], "code": 0, "error": None}
        if isinstance(raw, BaseException):
            rec["error"] = repr(raw)
        elif self.workload == "cli-cold":
            rec["code"] = raw.returncode
            if raw.returncode == 0:
                rec["out"] = _cli_summary(item["tag"], json.loads(raw.stdout))
        elif self.workload == "auto-mix":
            rec["code"] = raw[0]
            if raw[0] == 0:
                rec["out"] = _cli_summary("dmax", json.loads(raw[1].getvalue()))
        else:
            value, reports = raw
            rec["out"] = {"value": value, "witness": _best_witness(reports)}
        return rec

    def run(self, item: dict) -> tuple[float, dict]:
        t = time.perf_counter()
        try:
            raw = self.call(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        elapsed = time.perf_counter() - t
        return elapsed, self.read(item, raw)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args(argv)
    if args.workload == "sparse-large":
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(SRC))
    import inputs

    if args.mode == "trace":
        import trace_layers

        report = trace_layers.traced_run(args.workload, args.seed, args.seconds)
    else:
        report = timed_run(args, inputs.stream(args.workload, args.seed), inputs)
    Path(args.report).write_text(json.dumps(report))
    return 0


def timed_run(args, stream, inputs) -> dict:
    """Times are reported raw and calibrated (see calibrate.py): set-up
    against interpreter starts, operations against the workload's clock.
    Records go to a file as they come, so they do not add to peak memory."""
    import calibrate

    runner = Runner(args.workload)
    runner.run(stream.warm_up())  # not measured
    item = next(stream)
    setup_end = time.perf_counter()
    raw_setup = setup_end - args.t0
    setup_s = raw_setup * calibrate.Clock(spawn=True).scale_at(setup_end)
    if args.mode == "setup":
        return {"raw_setup_s": raw_setup, "setup_s": setup_s}
    clock = calibrate.Clock(spawn=args.workload == "cli-cold")
    starts, raw_latencies = array("d"), array("d")
    props = inputs.Properties()
    with open(records_path(args.report), "w") as records:
        # the loop runs until the operations, not counting the reference
        # timings between them, have taken args.seconds
        while True:
            clock.tick()
            starts.append(time.perf_counter())
            elapsed, rec = runner.run(item)
            raw_latencies.append(elapsed)
            props.add(item)
            records.write(json.dumps(rec) + "\n")
            item = next(stream, None)
            if item is None or sum(raw_latencies) >= args.seconds:
                break
        rss = peak_rss_mb(args.workload)
        from check import CANARIES

        for gens in CANARIES:
            _, rec = runner.run(inputs.dmax_item(gens))
            records.write(json.dumps({**rec, "canary": True}) + "\n")
    return {
        "raw_setup_s": raw_setup,
        "setup_s": setup_s,
        "raw_latencies": list(raw_latencies),
        "latencies": [t * clock.scale_at(at) for t, at in zip(raw_latencies, starts)],
        "reference_s": [s for _, s in clock.samples],
        "peak_rss_mb": rss,
        "properties": props.summary(),
    }


def records_path(report) -> Path:
    return Path(f"{report}.records")


if __name__ == "__main__":
    sys.exit(main())
