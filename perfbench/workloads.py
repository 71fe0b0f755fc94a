"""Workload bodies of the dwfnet benchmark, one role per process.

    python3 perfbench/workloads.py <role> --seed S [--seconds T] [--mode M]

Roles (perfbench/run.py starts them; each prints one JSON object as its
last stdout line):

* ``stream``  -- warm n = 4 transform stream, in rounds over the same states.
  ``--mode setup`` stops at the first timed item, ``untraced`` measures for
  ``--seconds``, ``traced`` measures half the time untraced and half traced.
* ``census``  -- one cold census: the full n = 2 census plus
  ``N3_PER_PROCESS`` distinct n = 3 nets.
* ``cli-prepare`` -- the cli-cold requests with their in-process exit code
  and stdout.
* ``ladder``  -- the traced n = 1..5 size ladder.

Every output is checked against an oracle outside the timed intervals:
``verify.partial_trace`` on density matrices, functions bound below before
any tracer is installed, and exact integer identities.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import dwfnet
from dwfnet import jsonio, nets, reduction, stokes, wigner
from dwfnet.verify import partial_trace
from dwfnet.wigner import DensityState
import hostspeed
from cli_step import run_cli
from tracer import CONTEXT_TARGETS, Tracer, layer_stats

perf_counter = time.perf_counter

# Oracle references, bound before a tracer can patch the module attributes.
_dwf = wigner.dwf_from_rho
_build = nets.build_net
_rmap = reduction.reduction_map
_reduce = reduction.reduce_dwf

N4_NETS = 4
STREAM_STATES = 200  # the stream repeats in rounds over the same states
N3_PER_PROCESS = 256
REF_EVERY = 10  # stream states between two host-speed samples
CENSUS_REF_EVERY = 64  # census nets between two host-speed samples
LADDER_SIZES = (1, 2, 3, 4, 5)
LADDER_REPEATS = 5
KEEP_20 = reduction.KeepSet(2, (0,))
KEEP_40 = reduction.KeepSet(4, (0,))
KEEP_413 = reduction.KeepSet(4, (1, 3))
N3_KEEPS = tuple(reduction.KeepSet(3, k) for k in ((0, 1), (0, 2), (1, 2)))


class Checks:
    """Counts checked operations and failures (the benchmark's error rate)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.failed <= 5:
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()


def _close(a, b, tol: float) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b))) < tol


def random_net_id(rng, n: int) -> int:
    """Seeded net id drawn as a digit vector: 16**17 > 2**63 at n = 4."""
    order = 2**n
    return nets.id_of([int(d) for d in rng.integers(0, order, size=order + 1)], order)


def _hadamard_ok(h) -> bool:
    """H H^T == N^2 I, exactly: float products of +-1 entries are exact here."""
    hf = h.h.astype(np.float64)
    return np.array_equal(hf @ hf.T, 4**h.n * np.eye(4**h.n))


def bridge_apply(h, w):
    """S = H W: the Stokes side of the Hadamard bridge."""
    return h.h @ w.w


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


# -- stream-n4 -------------------------------------------------------------


class Stream:
    """Four fixed n = 4 nets; every state goes through each of them."""

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 4])
        ctx = nets.net_context(4)
        ids = []
        while len(ids) < N4_NETS:
            net_id = random_net_id(self.rng, 4)
            if net_id not in ids:
                ids.append(net_id)
        self.nets = [nets.build_net(ctx, i) for i in ids]
        ctx1, ctx2 = nets.net_context(1), nets.net_context(2)
        self.targets = [
            (nets.build_net(ctx1, random_net_id(self.rng, 1)),
             nets.build_net(ctx2, random_net_id(self.rng, 2)))
            for _ in ids
        ]
        self.count = 0
        # One untimed item fills the Hadamard and reduction-map caches.
        self.process(self.next_state())

    def next_state(self) -> DensityState:
        """Seeded input stream, alternating pure and mixed states."""
        self.count += 1
        make = wigner.random_pure if self.count % 2 else wigner.random_density
        return make(4, self.rng)

    def process(self, state):
        s = stokes.stokes_from_rho(state)
        out = []
        for i, net in enumerate(self.nets):
            t1, t2 = self.targets[i]
            w = wigner.dwf_from_rho(state, net)
            back = wigner.rho_from_dwf(w, net)
            h = stokes.hadamard_matrix(net)
            if self.tracer is None:
                sv = bridge_apply(h, w)
            else:
                sv = self.tracer.call("stokes.bridge_apply", bridge_apply, h, w)
            r1 = reduction.reduce_dwf(w, reduction.reduction_map(net, t1, KEEP_40))
            r2 = reduction.reduce_dwf(w, reduction.reduction_map(net, t2, KEEP_413))
            conv = reduction.convert_net(w, self.nets[(i + 1) % N4_NETS])
            out.append((back, sv, r1, r2, conv))
        return s, out

    def check(self, state, result, chk: Checks) -> None:
        s, out = result
        for i, (back, sv, r1, r2, conv) in enumerate(out):
            net_id = self.nets[i].net_id
            chk.expect(_close(back.rho, state.rho, 1e-9), f"net {net_id}: rho round trip")
            chk.expect(_close(sv, s.s, 1e-9), f"net {net_id}: H W != stokes_from_rho")
            for got, tgt, keep in ((r1, self.targets[i][0], KEEP_40),
                                   (r2, self.targets[i][1], KEEP_413)):
                reduced = DensityState(keep.k, partial_trace(state.rho, 4, keep.keep))
                oracle = _dwf(reduced, tgt)
                chk.expect(got.net_id == tgt.net_id and _close(got.w, oracle.w, 1e-10),
                           f"net {net_id} keep {keep.keep}: reduction != partial trace")
            nxt = self.nets[(i + 1) % N4_NETS]
            chk.expect(conv.net_id == nxt.net_id and _close(conv.w, _dwf(state, nxt).w, 1e-10),
                       f"net {net_id}: convert_net != dwf_from_rho on net {nxt.net_id}")


def _arrays(result) -> list:
    s, out = result
    return [s.s] + [a for back, sv, r1, r2, conv in out for a in (back.rho, sv, r1.w, r2.w, conv.w)]


def _rounds(bench: Stream, states, chk: Checks, seconds: float, checked: dict) -> list:
    """Time every state once per round, for whole rounds until `seconds` pass.

    Each round is a pass {"durations", "refs"}: the time of every state and
    the host-speed samples taken between them, one every REF_EVERY states.
    A state's first output is checked against the oracles and kept in
    `checked`; later rounds must reproduce it bit for bit.
    """
    runs = []
    end = time.monotonic() + seconds
    while not runs or time.monotonic() < end:
        durations, refs = [], []
        for k, state in enumerate(states):
            if k % REF_EVERY == 0:
                refs += hostspeed.sample()
            if bench.tracer:
                bench.tracer.item = k
            t0 = perf_counter()
            try:
                out = bench.process(state)
            except Exception:
                chk.error(f"state {k}")
                durations.append(None)
                continue
            durations.append(perf_counter() - t0)
            if k in checked:
                chk.expect(all(map(np.array_equal, _arrays(out), checked[k])),
                           f"state {k}: output differs from its checked first round")
            else:
                bench.check(state, out, chk)
                checked[k] = _arrays(out)
        runs.append({"durations": durations, "refs": refs})
    return runs


def run_stream(seed: int, seconds: float, mode: str) -> dict:
    """Rounds over STREAM_STATES fixed states; traced mode spends the first
    half of the time untraced and the second half traced."""
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    bench = Stream(seed, tracer)
    states = [bench.next_state() for _ in range(STREAM_STATES)]
    result = {"first_item": time.monotonic(), "env": environment()}
    if mode == "setup":
        return result
    chk = Checks()
    checked = {}
    if tracer:
        tracer.uninstall()
        bench.tracer = None
        result["passes"] = _rounds(bench, states, chk, seconds / 2, checked)
        tracer.install()
        bench.tracer = tracer
        result["traced_passes"] = _rounds(bench, states, chk, seconds / 2, checked)
        tracer.uninstall()
        result["trace"] = {"spans": tracer.spans, "cold": tracer.cold}
    else:
        result["passes"] = _rounds(bench, states, chk, seconds, checked)
    result.update(attempted=chk.attempted, failed=chk.failed)
    return result


# -- census ----------------------------------------------------------------


def run_census(seed: int, traced: bool) -> dict:
    """One pass over the census: every process of a run gets the same
    inputs, so each net is timed once per process.  Host-speed samples are
    taken three at the start and one every CENSUS_REF_EVERY nets."""
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    rng = np.random.default_rng([seed, 2])
    ctx1, ctx2, ctx3 = (nets.net_context(m) for m in (1, 2, 3))
    state2 = wigner.random_density(2, rng)
    state3 = wigner.random_density(3, rng)
    targets1 = [random_net_id(rng, 1) for _ in range(ctx2.net_count)]
    n3_ids = []
    seen = set()
    while len(n3_ids) < N3_PER_PROCESS:  # distinct, so no cache hit turns a net into a lookup
        net_id = random_net_id(rng, 3)
        if net_id not in seen:
            seen.add(net_id)
            n3_ids.append(net_id)
    n3_jobs = [(net_id, N3_KEEPS[int(rng.integers(0, 3))], random_net_id(rng, 2))
               for net_id in n3_ids]
    reduced2 = DensityState(1, partial_trace(state2.rho, 2, (0,)))
    result = {"first_item": time.monotonic(), "env": environment()}

    chk = Checks()
    if tracer:
        tracer.item = "classify"
    t0 = perf_counter()
    orbits = nets.classify_nets(ctx2)
    classify_s = perf_counter() - t0
    chk.expect(len(orbits) == 64 and sum(map(len, orbits.values())) == ctx2.net_count,
               f"{len(orbits)} translation orbits, expected 64")

    durations, refs = [], hostspeed.sample(3)
    products = 0
    for net_id in range(ctx2.net_count):
        if net_id % CENSUS_REF_EVERY == 0:
            refs += hostspeed.sample()
        if tracer:
            tracer.item = net_id
        t0 = perf_counter()
        try:
            net = nets.build_net(ctx2, net_id)
            h = stokes.hadamard_matrix(net)
            report = nets.detect_product_structure(net)
            w = wigner.dwf_from_rho(state2, net)
            tgt = nets.build_net(ctx1, targets1[net_id])
            r = reduction.reduce_dwf(w, reduction.reduction_map(net, tgt, KEEP_20))
            shortcuts = ()
            if report.is_product:
                shortcuts = (reduction.shortcut_reduce(w, net, "A"),
                             reduction.shortcut_reduce(w, net, "B"))
        except Exception:
            chk.error(f"n=2 net {net_id}")
            durations.append(None)
            continue
        durations.append(perf_counter() - t0)
        chk.expect(_hadamard_ok(h), f"n=2 net {net_id}: H H^T != N^2 I")
        chk.expect(r.net_id == tgt.net_id and _close(r.w, _dwf(reduced2, tgt).w, 1e-10),
                   f"n=2 net {net_id}: reduction != partial trace")
        if shortcuts:
            products += 1
            # a fresh reduction map calls traced layers inside the library
            with tracer.paused() if tracer else nullcontext():
                for got, factor, keep in zip(shortcuts,
                                             (report.factor_a_net, report.factor_b_conj_net),
                                             ((0,), (1,))):
                    rmap = _rmap(net, _build(ctx1, factor), reduction.KeepSet(2, keep))
                    chk.expect(got.net_id == factor
                               and _close(got.w, _reduce(w, rmap).w, 1e-10),
                               f"n=2 net {net_id}: shortcut on {keep} != reduction map")
    chk.expect(products == 32, f"{products} product nets, expected 32")

    for j, (net_id, keep, tgt_id) in enumerate(n3_jobs):
        if j % CENSUS_REF_EVERY == 0:
            refs += hostspeed.sample()
        if tracer:
            tracer.item = ctx2.net_count + j
        t0 = perf_counter()
        try:
            net = nets.build_net(ctx3, net_id)
            h = stokes.hadamard_matrix(net)
            tgt = nets.build_net(ctx2, tgt_id)
            rmap = reduction.reduction_map(net, tgt, keep)
        except Exception:
            chk.error(f"n=3 net {net_id}")
            durations.append(None)
            continue
        durations.append(perf_counter() - t0)
        chk.expect(_hadamard_ok(h), f"n=3 net {net_id}: H H^T != N^2 I")
        oracle = _dwf(DensityState(2, partial_trace(state3.rho, 3, keep.keep)), tgt)
        chk.expect(_close(_reduce(_dwf(state3, net), rmap).w, oracle.w, 1e-10),
                   f"n=3 net {net_id} keep {keep.keep}: reduction map != partial trace")

    if tracer:
        tracer.uninstall()
        result["trace"] = {"spans": tracer.spans, "cold": tracer.cold}
    result.update(classify_s=classify_s, durations=durations, refs=refs,
                  useful_ratio=products / ctx2.net_count,
                  attempted=chk.attempted, failed=chk.failed)
    return result


# -- cli-cold inputs -------------------------------------------------------


def cli_requests(seed: int, chk: Checks) -> list:
    """One cycle of cli-cold requests: seeded documents and net ids.

    Each entry is {"argv", "stdin", "stdout", "code"}: the exit code and
    stdout of the same call to `dwfnet.cli.main` made in this process.  The
    valid requests must exit 0 here and the invalid documents 2.
    """
    rng = np.random.default_rng([seed, 3])
    requests = []

    def add(argv, text, code=0):
        got, expected = run_cli(argv, text)
        chk.expect(got == code, f"dwfnet {' '.join(argv)}: exit {got} in-process, expected {code}")
        requests.append({"argv": argv, "stdin": text, "stdout": expected, "code": got})

    docs = {}
    for n in (2, 3):
        ctx = nets.net_context(n)
        mixed = wigner.random_density(n, rng)
        net_id, other_id = random_net_id(rng, n), random_net_id(rng, n)
        w = _dwf(mixed, _build(ctx, net_id))
        docs[n] = (ctx, mixed, net_id, other_id, w, jsonio.dumps(jsonio.state_to_doc(mixed)),
                   jsonio.dumps(jsonio.dwf_to_doc(w)))

    # Each subcommand once, on a fixed size: the transforms and the net
    # description on n = 3, the rest on n = 2.
    ctx, _, net_id, other_id, _, state_doc, dwf_doc = docs[3]
    keep = sorted(int(q) for q in rng.choice(3, size=2, replace=False))
    target = random_net_id(rng, 2)
    add(["compute", "--net", str(net_id)], state_doc)
    add(["to-rho"], dwf_doc)
    add(["reduce", "--keep", ",".join(map(str, keep)), "--net-out", str(target)], dwf_doc)
    add(["convert", "--net-out", str(other_id)], dwf_doc)
    add(["nets", "--n", "3", "--describe", str(other_id)], "")
    ctx, mixed, net_id, other_id, w, state_doc, dwf_doc = docs[2]
    add(["stokes"], state_doc)
    add(["spinflip"], dwf_doc)
    add(["conjugate"], dwf_doc)
    pure = _dwf(wigner.random_pure(2, rng), _build(ctx, other_id))
    add(["concurrence"], jsonio.dumps(jsonio.dwf_to_doc(pure)))
    # Invalid documents from the README's exit-code list: all exit 2.
    add(["compute", "--net", str(net_id)], state_doc[: len(state_doc) // 2], code=2)
    doubled = jsonio.dumps({"n": 2, "rho": [[[2 * z.real, 2 * z.imag] for z in row]
                                            for row in mixed.rho]})
    add(["compute", "--net", str(net_id)], doubled, code=2)
    short = jsonio.dumps({"n": 2, "net": net_id, "w": list(w.w[:8])})
    add(["to-rho"], short, code=2)
    add(["compute", "--net", str(ctx.net_count)], state_doc, code=2)
    return requests


# -- size ladder -----------------------------------------------------------


def run_ladder(seed: int) -> dict:
    """Cold per-layer costs at n = 1..5, each piece timed as its own span."""
    rng = np.random.default_rng([seed, 5])
    tracer = Tracer()
    tracer.install()
    tracer.install(CONTEXT_TARGETS, into="dwfnet.nets")
    chk = Checks()
    rows = {}
    for n in LADDER_SIZES:
        first = len(tracer.spans)
        ctx = nets.net_context(n)
        net = nets.build_net(ctx, random_net_id(rng, n))
        h = stokes.hadamard_matrix(net)
        state = wigner.random_density(n, rng)
        for _ in range(LADDER_REPEATS):
            w = wigner.dwf_from_rho(state, net)
            back = wigner.rho_from_dwf(w, net)
            s = stokes.stokes_from_rho(state)
        tgt = nets.build_net(nets.net_context(1), random_net_id(rng, 1))
        rmap = reduction.reduction_map(net, tgt, reduction.KeepSet(n, (0,)))
        spans = tracer.spans[first:]
        stats = layer_stats(tracer.spans, first)

        def self_s(name):
            return stats.get(name, [0, 0.0])[1]

        def median_s(name):
            return statistics.median(e - b for nm, b, e, _, _ in spans if nm == name)

        def inclusive_s(name):  # of the rung's first call, the one made here
            return next(e - b for nm, b, e, _, _ in spans if nm == name)

        row = {
            "ffield.GF2m.self_s": self_s("ffield.GF2m"),
            "phasespace.PhaseSpace.self_s": self_s("phasespace.PhaseSpace"),
            "translations.TranslationTable.self_s": self_s("translations.TranslationTable"),
            "translations.build_eigensystems.self_s": self_s("translations.build_eigensystems"),
            "nets.build_net.self_s": inclusive_s("nets.build_net"),  # no child spans
            "stokes.hadamard_matrix.cold_s": inclusive_s("stokes.hadamard_matrix"),
            "wigner.dwf_from_rho.self_s": median_s("wigner.dwf_from_rho"),
            "wigner.rho_from_dwf.self_s": median_s("wigner.rho_from_dwf"),
            "stokes.stokes_from_rho.self_s": median_s("stokes.stokes_from_rho"),
            "reduction.reduction_map.cold_s": inclusive_s("reduction.reduction_map"),
            "nets.point_ops_bytes": sum(a.nbytes for a in net.point_ops) + net.ops_array.nbytes,
            "stokes.hadamard_bytes": h.h.nbytes,
        }
        rows[n] = row
        chk.expect(_hadamard_ok(h), f"ladder n={n}: H H^T != N^2 I")
        chk.expect(_close(back.rho, state.rho, 1e-9), f"ladder n={n}: rho round trip")
        chk.expect(_close(bridge_apply(h, w), s.s, 1e-9), f"ladder n={n}: H W != S")
        oracle = _dwf(DensityState(1, partial_trace(state.rho, n, (0,))), tgt)
        chk.expect(_close(_reduce(w, rmap).w, oracle.w, 1e-10), f"ladder n={n}: reduction")
    tracer.uninstall()
    return {"rows": rows, "spans": tracer.spans, "attempted": chk.attempted,
            "failed": chk.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("stream", "census", "cli-prepare", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), default="untraced")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(dwfnet.__file__).resolve().is_relative_to(src):
        print(f"dwfnet imported from {dwfnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.role == "stream":
        result = run_stream(args.seed, args.seconds, args.mode)
    elif args.role == "census":
        result = run_census(args.seed, args.mode == "traced")
    elif args.role == "cli-prepare":
        chk = Checks()
        result = {"requests": cli_requests(args.seed, chk), "env": environment(),
                  "attempted": chk.attempted, "failed": chk.failed}
    else:
        result = run_ladder(args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
