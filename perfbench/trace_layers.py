"""Traced replay: spans around the public calls of each layer.

Spans are recorded from the benchmark's side of each call, so nothing under
src/ changes. Each replayed operation has three roots:

- "general": the engine's stages, one public call each, in the order dmax
  needs them: make_semigroup, least_in_class, blowup, least_blowup_in_class
  for every residue, min_order over the blowup set, order up to the largest
  scan stop, adjustment_table and residue_report for every residue;
- "auto": the `auto` dispatch of the CLI replayed through classify's public
  calls on a fresh semigroup. Every precondition and the general engine are
  timed on every operation, also past the step where `auto` would stop, so
  that each classify time is measured on every workload; the spans `auto`
  itself would run give the replayed library time;
- "cli.main": the in-process CLI on the operation's command line.

A span is [name, start_ns, end_ns, parent index, operation index], held in
memory and written with the report. Self time is a span's duration minus the
durations of its children.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
import tracemalloc

import calibrate
import inputs
from maxdenum import (
    Ed3Input,
    adjustment_table,
    arithmetic_parameters,
    blowup,
    dmax,
    dmax_additive,
    dmax_arithmetic,
    dmax_ed3,
    dmax_symmetric_blowup,
    is_additive,
    is_symmetric,
    least_in_class,
    make_semigroup,
    min_order,
    order,
    residue_report,
)
from maxdenum.cli import main as cli_main

LAYERS = ("semigroup", "blowup", "classify", "cli")
METHODS = ("arithmetic", "ed3-ceiling", "symmetric-blowup", "additive", "general")
ALLOC_PASS = (8, 3.0)  # at most this many inputs, and seconds, under tracemalloc
PROBES = 5  # child processes per start-up probe


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op])
        tr.stack.append(self.index)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr.stack.pop()


def general_chain(gens, step):
    """The engine's stages for one input, each inside step(name)."""
    with step("semigroup.minimalize"):
        S = make_semigroup(gens)
    e = S.multiplicity
    with step("semigroup.least"):
        least_in_class(S, 0)
    with step("blowup.context"):
        ctx = blowup(S)
    with step("blowup.least"):
        fs = [ctx.least_blowup_in_class(r) for r in range(e)]
    with step("blowup.dset_orders"):
        min_order(ctx.dset, max(fs))
    stop = max(f + min_order(ctx.dset, f) * e for f in fs)
    with step("semigroup.orders"):
        order(S, stop)
    with step("blowup.scan"):
        tables = [adjustment_table(ctx, r) for r in range(e)]
    with step("blowup.candidates"):
        reports = [residue_report(ctx, t) for t in tables]
    return S, ctx, tables, reports, stop


def auto_replay(gens, step):
    """Returns (method auto picks, its value, general value, names of the
    spans auto itself runs)."""
    with step("semigroup.minimalize"):
        S = make_semigroup(gens)
    with step("classify.arithmetic"):
        params = arithmetic_parameters(S)
    with step("classify.is_additive"):
        additive = is_additive(S)
    with step("classify.is_symmetric"):
        symmetric = is_symmetric(blowup(S).blowup)
    path = ["semigroup.minimalize", "classify.arithmetic"]
    if params is not None:
        method, closed = "arithmetic", lambda: dmax_arithmetic(*params)
    elif S.embedding_dimension == 3:
        method, closed = "ed3-ceiling", lambda: dmax_ed3(Ed3Input.from_generators(*S.generators))
    elif additive:
        path += ["classify.is_additive", "classify.is_symmetric"]
        method = "symmetric-blowup" if symmetric else "additive"
        closed = (lambda: dmax_symmetric_blowup(S)) if symmetric else (lambda: dmax_additive(S))
    else:
        path += ["classify.is_additive", "classify.general"]
        method, closed = "general", None
    value = None
    if closed is not None:
        path.append("classify.closed_form")
        with step("classify.closed_form"):
            value = closed()
    with step("classify.general"):
        general = dmax(S)[0]
    return method, general if value is None else value, general, path


STAGES = (
    "semigroup.minimalize",
    "semigroup.least",
    "blowup.context",
    "blowup.least",
    "blowup.dset_orders",
    "semigroup.orders",
    "blowup.scan",
    "blowup.candidates",
)
CLASSIFY_STEPS = (
    "classify.arithmetic",
    "classify.is_additive",
    "classify.is_symmetric",
    "classify.closed_form",
    "classify.general",
)


class _Totals:
    """Per-run sums of the counters recorded at the layer boundaries."""

    def __init__(self) -> None:
        self.ops = 0
        self.counts = dict.fromkeys(
            (
                "semigroup.minimalize_cells",
                "semigroup.orders_cells",
                "blowup.scan_rows",
                "blowup.adjustment_values",
                "blowup.factorizations_enumerated",
                "blowup.candidates_kept",
                "cli.output_bytes",
            ),
            0,
        )
        self.methods = dict.fromkeys(METHODS, 0)
        self.untraced_ns = 0
        self.general_ns = 0
        self.cli_overhead_ns: list[int] = []
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, item: dict, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{' '.join(item['argv'])}: {why}")


def _untraced_ns(gens) -> int:
    t = time.perf_counter_ns()
    dmax(make_semigroup(gens))
    return time.perf_counter_ns() - t


def replay_one(tr: Tracer, item: dict, totals: _Totals) -> None:
    gens = item["gens"]
    c = totals.counts
    # the untraced engine call and the traced stages take turns going first,
    # so that what the first one leaves warm does not count as overhead
    if totals.ops % 2 == 0:
        totals.untraced_ns += _untraced_ns(gens)
    first = len(tr.spans)
    with tr("general"):
        S, ctx, tables, reports, stop = general_chain(gens, tr)
    totals.general_ns += tr.spans[first][2] - tr.spans[first][1]
    if totals.ops % 2 == 1:
        totals.untraced_ns += _untraced_ns(gens)
    value = max(r.dmax_si for r in reports)
    c["semigroup.minimalize_cells"] += max(gens) + 1
    c["semigroup.orders_cells"] += stop + 1
    c["blowup.scan_rows"] += sum(len(t.scan_log) for t in tables)
    c["blowup.adjustment_values"] += sum(len(t.entries) for t in tables)
    values = {v for r in reports for v, _ in r.candidates}
    c["blowup.factorizations_enumerated"] += sum(len(ctx.factorizations_over_dset(v)) for v in values)
    c["blowup.candidates_kept"] += sum(len(facts) for r in reports for _, facts in r.candidates)

    auto_first = len(tr.spans)
    with tr("auto"):
        method, picked, general, path = auto_replay(gens, tr)
    totals.methods[method] += 1
    if not picked == general == value:
        totals.fail(item, f"{method} {picked}, general {general}, staged engine {value}")
    auto_ns = sum(s[2] - s[1] for s in tr.spans[auto_first + 1 :] if s[0] in path and s[3] == auto_first)

    buf = io.StringIO()
    cli_first = len(tr.spans)
    with contextlib.redirect_stdout(buf):
        with tr("cli.main"):
            code = cli_main(item["argv"])
    c["cli.output_bytes"] += len(buf.getvalue().encode())
    if code != 0:
        totals.fail(item, f"cli.main exit code {code}")
    elif item["tag"] == "dmax":
        totals.cli_overhead_ns.append(tr.spans[cli_first][2] - tr.spans[cli_first][1] - auto_ns)
    totals.ops += 1


def alloc_peaks(workload: str, seed: int) -> dict:
    """Largest tracemalloc peak of any semigroup and any blowup stage, in MB,
    over the first inputs of the stream."""
    peaks = dict.fromkeys(("semigroup", "blowup"), 0)

    @contextlib.contextmanager
    def step(name):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        layer = name.split(".")[0]
        peaks[layer] = max(peaks[layer], tracemalloc.get_traced_memory()[1] - base)

    count, budget = ALLOC_PASS
    stream = inputs.stream(workload, seed)
    deadline = time.perf_counter() + budget
    tracemalloc.start()
    try:
        for _ in range(count):
            general_chain(next(stream)["gens"], step)
            if time.perf_counter() > deadline:
                break
    finally:
        tracemalloc.stop()
    return {f"{layer}.alloc_peak_mb": peak / 2**20 for layer, peak in peaks.items()}


def startup_probes() -> dict:
    """Median wall time of a bare interpreter, and median import time of
    maxdenum.cli timed inside a fresh interpreter, in ms."""
    from worker import cli_env

    env = cli_env()
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import maxdenum.cli; print(time.perf_counter() - t)"
    for _ in range(PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - t)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        imports.append(float(out.stdout))
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1000,
        "cli.import_ms": statistics.median(imports) * 1000,
    }


def self_times(spans: list[list]) -> list[int]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], totals: _Totals) -> dict:
    n = max(totals.ops, 1)
    ms = 1e6 * n
    timed = {"general": STAGES, "auto": CLASSIFY_STEPS}
    metrics = {f"{name}_ms": 0.0 for names in timed.values() for name in names}
    root = []
    for s in spans:
        root.append(s[0] if s[3] < 0 else root[s[3]])
        if s[3] >= 0 and s[0] in timed.get(root[-1], ()):
            metrics[f"{s[0]}_ms"] += (s[2] - s[1]) / ms
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        layer = s[0].split(".")[0]
        if layer in LAYERS:
            metrics[f"{layer}.self_ms"] += own / ms
    for name, total in totals.counts.items():
        metrics[name] = total / n
    enumerated = totals.counts["blowup.factorizations_enumerated"]
    metrics["blowup.candidate_yield"] = totals.counts["blowup.candidates_kept"] / max(enumerated, 1)
    for method, count in totals.methods.items():
        metrics[f"classify.method_share.{method}"] = count / n
    overhead = totals.cli_overhead_ns
    metrics["cli.overhead_ms"] = statistics.fmean(overhead) / 1e6 if overhead else 0.0
    metrics["trace.overhead_pct"] = 100 * (totals.general_ns - totals.untraced_ns) / max(totals.untraced_ns, 1)
    metrics["trace.ops"] = totals.ops
    return metrics


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Replays the workload's inputs traced for the given time, then the
    tracemalloc pass and the start-up probes. The replay's times are
    calibrated against the in-process reference (see calibrate.py); the
    start-up probes stay raw, since a bare interpreter start is itself the
    reference for process starts."""
    tr = Tracer()
    totals = _Totals()
    clock = calibrate.Clock()
    props = inputs.Properties()
    stream = inputs.stream(workload, seed)
    replay_one(Tracer(), stream.warm_up(), _Totals())  # not recorded
    deadline = time.perf_counter() + seconds
    while True:
        clock.tick()
        item = next(stream, None)
        if item is None:
            break
        tr.op = props.inputs
        props.add(item)
        replay_one(tr, item, totals)
        if time.perf_counter() >= deadline:
            break
    scale = clock.scale()
    metrics = {
        name: value * scale if name.endswith("_ms") else value
        for name, value in layer_metrics(tr.spans, totals).items()
    }
    metrics.update(alloc_peaks(workload, seed))
    metrics.update(startup_probes())
    return {
        "metrics": metrics,
        "attempted": totals.ops,
        "failed": totals.failed,
        "messages": totals.messages,
        "properties": props.summary(),
        "spans": tr.spans,
    }
