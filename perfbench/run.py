"""dwfnet benchmark: three workloads, oracle-checked, with a traced per-layer run.

Run from the repository root (needs numpy; the workload processes import
dwfnet from ``src``):

    python3 perfbench/run.py --workload stream-n4 --seed 1 --seconds 25 --trace 0

Workloads (each measured in fresh processes started from this one):

* ``stream-n4`` -- warm, in-process closed loop.  Four seeded n = 4 nets stay
  fixed; 200 seeded states, alternating pure and mixed, go through
  ``stokes_from_rho`` once and, on every net, ``dwf_from_rho``,
  ``rho_from_dwf``, S = H W via ``hadamard_matrix``, ``reduce_dwf`` to qubits
  {0} and {1,3} and ``convert_net`` to the next net.  An item is one state;
  the states repeat in rounds until ``--seconds`` is used.
* ``census`` -- cold per net.  Each process classifies the n = 2 nets, then
  runs all 1024 through build, Hadamard, product detection, one transform
  and one reduction (shortcuts A and B on the 32 product nets), then 256
  distinct seeded n = 3 nets through build, Hadamard and a 3 -> 2 reduction
  map.  An item is one net; processes, all with the same inputs, repeat
  until ``--seconds`` is used.
* ``cli-cold`` -- closed loop, one client.  Each request is a fresh
  ``python -m dwfnet.cli`` process on a seeded document: compute, to-rho,
  reduce, convert and ``nets --describe`` at n = 3; stokes, spinflip,
  conjugate and concurrence at n = 2; and four invalid n = 2 documents that
  must exit 2.  The 13 requests of a cycle run in a seeded order; whole
  cycles repeat until ``--seconds`` is used.  An item is one request.  The expected exit
  code and stdout of each request come from calling ``dwfnet.cli.main``
  in-process on the same commit.

Each workload thus runs in passes -- a stream round, a census process, a
CLI request cycle -- that time every item once.  On a shared host the CPU
runs slower or faster by up to 1.5x in phases longer than a run, so every
pass carries samples of a fixed reference computation that does not touch
dwfnet (``hostspeed.py``), taken between its items or beside its processes.
Every time the benchmark reports is scaled to the nominal host speed, the
speed at which one reference sample takes ``hostspeed.NOMINAL_S``: measured
time * NOMINAL_S / median of the pass's reference samples.  The scaled
times are medians over all passes of a run.

Checks run outside the timed intervals: round trips, S = H W against
``stokes_from_rho``, reductions against ``verify.partial_trace``, H H^T =
N^2 I, 64 orbits and 32 product nets, shortcuts against the reduction map,
and CLI stdout byte-identical to ``jsonio.dumps`` of the same in-process
call.  A repeated stream state must reproduce its checked output exactly.
``attempted`` counts checked operations and ``failed`` the ones that raised
or disagreed; error_rate = failed / attempted.

Output.  Lines starting with "# " record the environment (Python and numpy
versions, nproc, BLAS threads), each metric with its sample count, the p90
latency and the error rate.  The last line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {"<name>": {"value": number, "unit": "<unit>"}, ...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off,
every time scaled to the nominal host speed:

* ``setup_s`` (s): median over set-up samples spread over the run.  For
  stream-n4 and census, process start to the first timed item: three
  set-up-only processes before the measured one and four after, each
  scaled by reference samples taken just before and after it; every census
  process, scaled by its own samples.  For cli-cold, spawn to exit of a
  process that only imports ``dwfnet.cli``, one after every third request.
* ``items_per_s`` (1/s): states/s, nets/s or calls/s: median over the
  passes of a pass's items over its scaled busy time (for census including
  ``classify_nets``).
* ``p50_s`` (s): median scaled item time over all passes.  The p90 is
  printed beside it, ungated: its run-to-run spread is too wide for a bound.
* ``peak_rss_mb`` (MB): largest resident set of a measuring process; for
  cli-cold the largest CLI process.

``--trace 1`` reports the per-layer metrics of a traced run, 0 where the
workload does not reach a layer:

* ``<module>.<function>.calls`` and ``.self_s`` (totals over the run) for
  every traced call, ``.cold_calls`` where a cache sits behind it (keys the
  benchmark had not requested before in that process), and
  ``nets.detect_product_structure.useful_ratio`` (product nets found per
  detection).
* ``cli.interpreter_s`` and ``cli.import_s`` (median per call), and
  ``jsonio.bytes_in`` / ``jsonio.bytes_out`` (totals), for cli-cold, whose
  traced requests call ``dwfnet.cli.main`` with ``jsonio.parse_state``,
  ``jsonio.parse_dwf`` (together ``jsonio.parse``) and ``jsonio.dumps``
  traced as well.
* ``trace.busy_s`` (timed item time of the traced part), ``trace.layer_self_s``
  (the layers' self time inside those items), ``trace.coverage`` (their
  ratio), ``trace.spans`` and ``trace.overhead``: median scaled busy time
  of the traced passes over that of the untraced passes, minus 1, for
  stream-n4 (same process, first half untraced) and census (alternating
  processes); 0 for cli-cold.
* The size ladder, n = 1..5 in a fresh process, suffix ``.n1`` .. ``.n5``:
  self time of ``ffield.GF2m``, ``phasespace.PhaseSpace``,
  ``translations.TranslationTable``, ``translations.build_eigensystems``
  and ``nets.build_net``; cold time of ``stokes.hadamard_matrix`` and
  ``reduction.reduction_map`` (keep qubit 0); median of five
  ``dwf_from_rho``, ``rho_from_dwf`` and ``stokes_from_rho`` calls; and the
  bytes of a net's point operators and of its Hadamard matrix.

Spans of a traced run (source, name, start, end, parent, item) are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Exit status is 0 after a complete run (even with failed checks, which show
in ``correct``), 2 on bad arguments or when ``src/dwfnet`` is missing, and
1 if a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; one thread keeps runs steady on a shared host
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402
from tracer import item_self_seconds, layer_stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-n4", "census", "cli-cold")
STREAM_SETUPS = 7  # set-up-only processes per stream-n4 run: 3 before the measured one
CLI_SETUP_EVERY = 3  # cli-cold takes a set-up sample after every third request
CLI_REF_EVERY = 2  # cli-cold takes a process host-speed sample after every second request
CHILD_TIMEOUT = 170.0

SPAN_LAYERS = (
    "nets.net_context", "nets.build_net", "nets.classify_nets",
    "nets.detect_product_structure", "wigner.dwf_from_rho", "wigner.rho_from_dwf",
    "stokes.stokes_from_rho", "stokes.bridge_apply", "stokes.hadamard_matrix",
    "stokes.conjugation_matrix", "stokes.spinflip_matrix", "reduction.reduction_map",
    "reduction.reduce_dwf", "reduction.convert_net", "reduction.shortcut_reduce",
    "reduction.concurrence_from_dwf", "jsonio.parse", "jsonio.dumps",
)
COLD_LAYERS = ("nets.net_context", "stokes.hadamard_matrix", "reduction.reduction_map",
               "reduction.convert_net")
LADDER_UNITS = {
    "ffield.GF2m.self_s": "s", "phasespace.PhaseSpace.self_s": "s",
    "translations.TranslationTable.self_s": "s",
    "translations.build_eigensystems.self_s": "s", "nets.build_net.self_s": "s",
    "stokes.hadamard_matrix.cold_s": "s", "wigner.dwf_from_rho.self_s": "s",
    "wigner.rho_from_dwf.self_s": "s", "stokes.stokes_from_rho.self_s": "s",
    "reduction.reduction_map.cold_s": "s", "nets.point_ops_bytes": "bytes",
    "stokes.hadamard_bytes": "bytes",
}
ITEM_NAMES = {"stream-n4": "states", "census": "nets", "cli-cold": "calls"}


class Child:
    """A finished process: exit code, stdout, spawn/exit times, peak RSS."""

    def __init__(self, code, stdout, spawned, ended, maxrss_kb):
        self.code, self.stdout = code, stdout
        self.spawned, self.ended, self.maxrss_kb = spawned, ended, maxrss_kb

    def result(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"workload process exited with {self.code}")
        return json.loads(self.stdout.splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdin: str = "", quiet: bool = False) -> Child:
    """Run one process to completion; its stderr passes through unless quiet."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    status = None
    try:
        try:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps it, with its rusage
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if status is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, spawned, time.monotonic(), usage.ru_maxrss)


def workload_child(role, seed, *extra) -> Child:
    return run_child([str(ROOT / "perfbench" / "workloads.py"), role, "--seed", str(seed),
                      *map(str, extra)])


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Report:
    """Collects metrics, sample notes and check counts; prints the result."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.env = {}

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes.append(f"{name} = {value:.6g} {unit} ({note})")

    def count(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.env = result.get("env", self.env)

    def emit(self) -> None:
        env = {**self.env, "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}
        print(f"# env {json.dumps(env)}")
        for note in self.notes:
            print(f"# {self.workload} {note}")
        print(f"# {self.workload} error_rate = {self.failed}/{self.attempted}")
        print(json.dumps({"correct": self.failed == 0 and self.attempted > 0,
                          "attempted": self.attempted, "failed": self.failed,
                          "metrics": self.metrics}))


def scaled_pass(p) -> tuple:
    """(busy seconds, item seconds) of one pass, scaled to the nominal host speed.

    A pass {"durations", "refs"[, "busy_s"][, "nominal"]} times every item
    of the workload once; "refs" are the host-speed samples taken beside it,
    "busy_s" (census) adds untimed-per-item work to the items' sum, and
    "nominal" is the samples' nominal time when they are process samples.
    Items that failed (None) drop out.
    """
    f = hostspeed.scale(p["refs"], p.get("nominal", hostspeed.NOMINAL_S))
    durations = [d for d in p["durations"] if d is not None]
    return p.get("busy_s", sum(durations)) * f, [d * f for d in durations]


def end_to_end(report: Report, setups, passes, rss_kb) -> None:
    """Medians over scaled set-up samples, passes and items."""
    scaled = [scaled_pass(p) for p in passes]
    durations = [d for _, ds in scaled for d in ds]
    items = ITEM_NAMES[report.workload]
    note = f"n={len(durations)} {items} in {len(passes)} passes"
    report.add("setup_s", statistics.median(setups), "s", f"median of {len(setups)} samples")
    report.add("items_per_s", statistics.median(len(ds) / busy for busy, ds in scaled), "1/s",
               f"{items}/s, median of {len(passes)} passes")
    report.add("p50_s", statistics.median(durations), "s", note)
    report.notes.append(f"p90_s = {p90(durations):.6g} s ({note})")
    report.add("peak_rss_mb", rss_kb / 1024.0, "MB", "largest measuring process")
    raw = statistics.median(x for p in passes for x in p["refs"])
    nominal = passes[0].get("nominal", hostspeed.NOMINAL_S)
    report.notes.append(f"host speed: reference median {raw:.6g} s, nominal {nominal} s; "
                        "times above are scaled by the ratio")


def tracing_overhead(traced, untraced) -> float:
    """Median scaled busy time of the traced passes over the untraced ones, minus 1."""
    def busy(passes):
        return statistics.median(scaled_pass(p)[0] for p in passes)
    return busy(traced) / busy(untraced) - 1.0


def stream(report: Report, seed, seconds, trace):
    if trace:
        main = workload_child("stream", seed, "--mode", "traced", "--seconds", seconds)
        result = main.result()
        report.count(result)
        traced = result["traced_passes"]
        busy = sum(sum(filter(None, p["durations"])) for p in traced)
        return [result["trace"]], busy, tracing_overhead(traced, result["passes"]), {}

    def setup_s():
        refs = hostspeed.sample(3)
        child = workload_child("stream", seed, "--mode", "setup")
        refs += hostspeed.sample(3)
        return (child.result()["first_item"] - child.spawned) * hostspeed.scale(refs)

    # set-up-only processes before and after the measured one, to spread them in time
    setups = [setup_s() for _ in range(STREAM_SETUPS // 2)]
    main = workload_child("stream", seed, "--mode", "untraced", "--seconds", seconds)
    result = main.result()
    report.count(result)
    setups += [setup_s() for _ in range(STREAM_SETUPS - len(setups))]
    end_to_end(report, setups, result["passes"], main.maxrss_kb)


def census(report: Report, seed, seconds, trace):
    start = time.monotonic()
    runs = {False: [], True: []}
    while len(runs[False]) + len(runs[True]) < (2 if trace else 1) \
            or time.monotonic() - start < seconds:
        traced = trace and len(runs[True]) < len(runs[False])
        child = workload_child("census", seed, "--mode", "traced" if traced else "untraced")
        result = child.result()
        report.count(result)
        result["setup_s"] = (result["first_item"] - child.spawned) * hostspeed.scale(
            result["refs"])
        result["busy_s"] = result["classify_s"] + sum(filter(None, result["durations"]))
        result["maxrss_kb"] = child.maxrss_kb
        runs[traced].append(result)
    if trace:
        ratio = statistics.median(r["useful_ratio"] for r in runs[True])
        extra = {"nets.detect_product_structure.useful_ratio": (ratio, "ratio")}
        busy = sum(r["busy_s"] for r in runs[True])
        overhead = tracing_overhead(runs[True], runs[False])
        return [r["trace"] for r in runs[True]], busy, overhead, extra
    done = runs[False]
    end_to_end(report, [r["setup_s"] for r in done], done,
               max(r["maxrss_kb"] for r in done))


def cli_ok(req: dict, code: int, stdout: str) -> bool:
    """A call passes when exit code and stdout match the in-process call."""
    return code == req["code"] and stdout == req["stdout"]


def cli_setup_s() -> float:
    """Spawn to exit of a process that only loads the CLI: its set-up."""
    child = run_child(["-c", "import dwfnet.cli"], quiet=True)
    if child.code != 0:
        raise RuntimeError(f"importing dwfnet.cli exited with {child.code}")
    return child.ended - child.spawned


def cli_cold(report: Report, seed, seconds, trace):
    prep = workload_child("cli-prepare", seed).result()
    report.count(prep)
    requests = prep["requests"]
    order = random.Random(seed)
    cycles, setups, traces, interp, imports = [], [], [], [], []
    bytes_in = bytes_out = 0
    rss_kb = 0
    start = time.monotonic()
    while not cycles or time.monotonic() - start < seconds:
        cycle, refs, cycle_setups = [None] * len(requests), [], []
        for k, i in enumerate(order.sample(range(len(requests)), len(requests))):
            req = requests[i]
            if not trace and k % CLI_SETUP_EVERY == 0:  # interleaved, to spread them in time
                cycle_setups.append(cli_setup_s())
            if trace:
                argv = [str(ROOT / "perfbench" / "cli_step.py"), json.dumps(req["argv"])]
            else:
                argv = ["-m", "dwfnet.cli", *req["argv"]]
            child = run_child(argv, req["stdin"], quiet=True)
            cycle[i] = child.ended - child.spawned
            rss_kb = max(rss_kb, child.maxrss_kb)
            out = child.stdout
            if trace:
                out, _, last = out.rstrip("\n").rpartition("\n")
                out = out + "\n" if out else ""
                t = json.loads(last)
                interp.append(t["started"] - child.spawned)
                imports.append(next(e - b for name, b, e, _, _ in t["spans"]
                                    if name == "cli.import"))
                t["spans"].append(["cli.interpreter", 0.0, interp[-1], None, 0])
                bytes_in += t["bytes_in"]
                bytes_out += t["bytes_out"]
                traces.append(t)
            ok = cli_ok(req, child.code, out)
            report.count({"attempted": 1, "failed": 0 if ok else 1})
            if not ok:
                print(f"cli check failed: {req['argv']} exit {child.code}", file=sys.stderr)
            if k % CLI_REF_EVERY == 0:
                refs += hostspeed.sample_process()
        cycles.append({"durations": cycle, "refs": refs,
                       "nominal": hostspeed.PROCESS_NOMINAL_S})
        setups += [s * hostspeed.scale(refs, hostspeed.PROCESS_NOMINAL_S)
                   for s in cycle_setups]
    if trace:
        extra = {"cli.interpreter_s": (statistics.median(interp), "s"),
                 "cli.import_s": (statistics.median(imports), "s"),
                 "jsonio.bytes_in": (bytes_in, "bytes"),
                 "jsonio.bytes_out": (bytes_out, "bytes")}
        return traces, sum(sum(c["durations"]) for c in cycles), 0.0, extra
    end_to_end(report, setups, cycles, rss_kb)


def per_layer(report: Report, traces, busy_s, overhead, extra, ladder) -> list:
    spans, stats, layer_self = [], {}, 0.0
    for source, t in enumerate(traces):  # parent indices are per source
        spans.extend([source, *s] for s in t["spans"])
        layer_self += item_self_seconds(t["spans"])
        for layer, (calls, self_s) in layer_stats(t["spans"]).items():
            total = stats.setdefault(layer, [0, 0.0])
            total[0] += calls
            total[1] += self_s
    for layer in SPAN_LAYERS:
        calls, self_s = stats.get(layer, (0, 0.0))
        report.add(f"{layer}.calls", calls, "count")
        report.add(f"{layer}.self_s", self_s, "s")
    for layer in COLD_LAYERS:
        report.add(f"{layer}.cold_calls", sum(t["cold"].get(layer, 0) for t in traces),
                   "count")
    defaults = {"nets.detect_product_structure.useful_ratio": (0.0, "ratio"),
                "cli.interpreter_s": (0.0, "s"), "cli.import_s": (0.0, "s"),
                "jsonio.bytes_in": (0, "bytes"), "jsonio.bytes_out": (0, "bytes")}
    for name, (value, unit) in {**defaults, **extra}.items():
        report.add(name, value, unit)
    report.add("trace.busy_s", busy_s, "s", "timed items of the traced part")
    report.add("trace.layer_self_s", layer_self, "s", "layer self time inside those items")
    report.add("trace.coverage", layer_self / busy_s if busy_s else 0.0, "ratio",
               "layer self time / busy time")
    report.add("trace.spans", len(spans), "count")
    report.add("trace.overhead", overhead, "ratio", "traced / untraced scaled busy time - 1")
    ladder_result = ladder.result()
    report.count(ladder_result)
    for n, row in sorted(ladder_result["rows"].items()):
        for name, unit in LADDER_UNITS.items():
            report.add(f"{name}.n{n}", row[name], unit)
    spans.extend(["ladder", *s] for s in ladder_result["spans"])
    return spans


def write_spans(workload, seed, spans) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["source", "name", "start", "end", "parent", "item"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dwfnet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dwfnet" / "__init__.py").is_file():
        print(f"error: no dwfnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = Report(args.workload)
    body = {"stream-n4": stream, "census": census, "cli-cold": cli_cold}[args.workload]
    # traced, a body returns (span sources, busy seconds, overhead, extra metrics)
    traced = body(report, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        ladder = workload_child("ladder", args.seed)
        spans = per_layer(report, *traced, ladder)
        path = write_spans(args.workload, args.seed, spans)
        print(f"# {len(spans)} spans written to {path.relative_to(ROOT)}")
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
