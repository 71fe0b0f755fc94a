"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a dwfnet layer: (name, start, end, parent, item).
Spans are recorded by wrapping public dwfnet functions from the benchmark's
side: `Tracer.install` replaces each target attribute, in every loaded
dwfnet module that holds the same object, with a timing wrapper, and
`uninstall` puts the originals back.  Calls made inside the library through
a patched name (for example `hadamard_matrix` inside a cold reduction map)
become child spans, so a layer's self time is its own duration minus the
time its child spans cover.

Where a layer sits behind a cache, the wrapper also counts cold calls: calls
whose key the benchmark has not requested before in this process.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


def _net_key(net):
    return (net.n_qubits, net.net_id)


# (span name, module, attribute, cache key of the call or None)
WORKLOAD_TARGETS = (
    ("nets.net_context", "dwfnet.nets", "net_context", lambda m: m),
    ("nets.build_net", "dwfnet.nets", "build_net", None),
    ("nets.classify_nets", "dwfnet.nets", "classify_nets", None),
    ("nets.detect_product_structure", "dwfnet.nets", "detect_product_structure", None),
    ("wigner.dwf_from_rho", "dwfnet.wigner", "dwf_from_rho", None),
    ("wigner.rho_from_dwf", "dwfnet.wigner", "rho_from_dwf", None),
    ("stokes.stokes_from_rho", "dwfnet.stokes", "stokes_from_rho", None),
    ("stokes.hadamard_matrix", "dwfnet.stokes", "hadamard_matrix", _net_key),
    ("stokes.conjugation_matrix", "dwfnet.stokes", "conjugation_matrix", None),
    ("stokes.spinflip_matrix", "dwfnet.stokes", "spinflip_matrix", None),
    ("reduction.reduction_map", "dwfnet.reduction", "reduction_map",
     lambda src, tgt, keep: (keep.n, keep.keep, src.net_id, tgt.net_id)),
    ("reduction.reduce_dwf", "dwfnet.reduction", "reduce_dwf", None),
    ("reduction.convert_net", "dwfnet.reduction", "convert_net",
     lambda w, tgt: (w.n, w.net_id, tgt.net_id)),
    ("reduction.shortcut_reduce", "dwfnet.reduction", "shortcut_reduce", None),
    ("reduction.concurrence_from_dwf", "dwfnet.reduction", "concurrence_from_dwf", None),
)

# The JSON steps of a CLI call; both parsers count as one layer.
CLI_TARGETS = (
    ("jsonio.parse", "dwfnet.jsonio", "parse_state", None),
    ("jsonio.parse", "dwfnet.jsonio", "parse_dwf", None),
    ("jsonio.dumps", "dwfnet.jsonio", "dumps", None),
)

# The pieces of NetContext construction; install them into dwfnet.nets only.
CONTEXT_TARGETS = (
    ("ffield.GF2m", "dwfnet.ffield", "GF2m", None),
    ("phasespace.PhaseSpace", "dwfnet.phasespace", "PhaseSpace", None),
    ("translations.TranslationTable", "dwfnet.translations", "TranslationTable", None),
    ("translations.build_eigensystems", "dwfnet.translations", "build_eigensystems", None),
)


class Tracer:
    """Records spans in memory; `item` tags spans with the current item id."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, item]
        self.item = None
        self.cold = {}  # span name -> cold call count
        self._seen = {}  # span name -> keys already requested
        self._stack = []
        self._patched = []  # (module, attribute, original, wrapper)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.item])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end

    def wrap(self, name, fn, key=None):
        seen = self._seen.setdefault(name, set())

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)  # a recursive call stays in its caller's span
            if key is not None:
                k = key(*args, **kwargs)
                if k not in seen:
                    seen.add(k)
                    self.cold[name] = self.cold.get(name, 0) + 1
            idx = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a span named `name` (for benchmark-side steps)."""
        idx = self._open(name)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, start, perf_counter())

    def record(self, name, start, end):
        """Add a finished top-level span measured elsewhere."""
        self.spans.append([name, start, end, None, self.item])

    def install(self, targets=WORKLOAD_TARGETS, into=None) -> None:
        """Wrap each target in every dwfnet module holding it, or only in `into`.

        Classes are wrapped only where `into` names the caller's module, so
        that isinstance checks in their own module keep working.
        """
        if into is None:
            modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dwfnet"]
        else:
            modules = [sys.modules[into]]
        for name, home, attr, key in targets:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original, key)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original, wrapper))

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    @contextmanager
    def paused(self):
        """Run the block untraced (oracle checks), then restore the wrappers."""
        patched = self._patched
        self.uninstall()
        try:
            yield
        finally:
            for mod, attr, _, wrapper in patched:
                setattr(mod, attr, wrapper)
            self._patched = patched


def layer_stats(spans, first=0):
    """{name: [calls, self seconds]} from the span records spans[first:]."""
    part = spans[first:]
    child = [0.0] * len(part)
    for name, start, end, parent, _ in part:
        if parent is not None:
            child[parent - first] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(part):
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child[i]
    return stats


def item_self_seconds(spans) -> float:
    """Total self time of the spans recorded inside timed items."""
    return sum(end - start for _, start, end, parent, item in spans
               if parent is None and item is not None)
