"""Per-layer spans for the benchmark's traced passes.

Each layer is one public fifkit function, named "<module>.<function>".
The tracer replaces the function at every module attribute where the
package looks it up (a module calls an imported name through its own
globals, so wrapping only the defining module would miss the calls
made by `separation`, `orbits` and `cli`).  Each wrapper records a span;
a layer's self time is its spans' duration minus the time covered by
the spans they caused.  A name missing at every site, for example after
a refactor removes it, is reported as absent rather than raising.

Tracing adds a Python call per span, so traced passes are never used
for the end-to-end metrics.
"""

import importlib
import time

# layer -> modules whose attribute of that name is replaced
SPANS = {
    "separation.wsp_check_1d": ("fifkit.separation", "fifkit.cli"),
    "separation.wsp_check_2d": ("fifkit.separation", "fifkit.cli"),
    "affine.compose_word": ("fifkit.separation",),
    "attractor.sample_attractor": (
        "fifkit.attractor", "fifkit.separation", "fifkit.orbits", "fifkit.cli"),
    "attractor.modulus_of_continuity": ("fifkit.attractor", "fifkit.orbits"),
    "attractor.evaluate_f": ("fifkit.attractor", "fifkit.orbits", "fifkit.cli"),
    "orbits.suggest_eps": ("fifkit.orbits",),
    "orbits.epsilon_net": ("fifkit.orbits", "fifkit.cli"),
    "orbits.iterate_orbit": ("fifkit.orbits", "fifkit.cli"),
    "orbits.detect_parabola": ("fifkit.orbits",),
    "specfile.parse_ifs_file": ("fifkit.specfile", "fifkit.cli"),
    "cli.main": ("fifkit.cli",),
    "svg.graph_svg": ("fifkit.svg", "fifkit.cli"),
}

# layers cheap and frequent enough that only their calls are counted
COUNTS = {
    "affine.compose": ("fifkit.separation",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _words(args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "system"))
    d = _arg(args, kwargs, 1, "depth")
    words = d + 1 if m == 1 else (m ** (d + 1) - 1) // (m - 1)
    return {"separation.words": words,
            "separation.coincidences": result.coincidence_count}


def _sample_points(args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "system"))
    return {"attractor.sample_points": m ** _arg(args, kwargs, 1, "depth") * (m + 2)}


def _orbit_points(args, kwargs, result):
    return {"orbits.orbit_points": result.M}


# work counts derived from a successful call's arguments or result
DERIVED = {
    "separation.wsp_check_1d": _words,
    "separation.wsp_check_2d": _words,
    "attractor.sample_attractor": _sample_points,
    "orbits.iterate_orbit": _orbit_points,
}


class Tracer:
    """Install with `install()`, read with `snapshot()`, undo with `uninstall()`."""

    def __init__(self):
        self.stats = {layer: [0, 0.0, 0.0] for layer in SPANS}  # calls, total, self
        self.stats.update({layer: [0, 0.0, 0.0] for layer in COUNTS})
        self.counts = {}
        self.absent = []
        self._stack = []
        self._saved = []

    def _span(self, layer, fn):
        stat = self.stats[layer]
        stack = self._stack
        derive = DERIVED.get(layer)

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if derive is not None:
                for key, val in derive(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
            return result

        return traced

    def _counter(self, layer, fn):
        stat = self.stats[layer]

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for table, wrap in ((SPANS, self._span), (COUNTS, self._counter)):
            for layer, modules in table.items():
                name = layer.rsplit(".", 1)[1]
                found = False
                for modname in modules:
                    module = importlib.import_module(modname)
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    found = True
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrap(layer, fn))
                if not found:
                    self.absent.append(layer)

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def snapshot(self):
        """Flat {metric: number}: calls, total_s and self_s per layer,
        plus the derived work counts (zero when never reached)."""
        out = {}
        for layer, (calls, total, self_s) in self.stats.items():
            out[f"{layer}.calls"] = calls
            if layer in SPANS:
                out[f"{layer}.total_s"] = total
                out[f"{layer}.self_s"] = self_s
        for key in ("separation.words", "separation.coincidences",
                    "attractor.sample_points", "orbits.orbit_points"):
            out[key] = self.counts.get(key, 0)
        return out
