"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions and value constructors of
each layer (the modules ``_kernels``, ``quatcore``, ``modp``, ``geometry``,
``metacomm``, ``verify`` and ``cli``) with wrappers that time each call.
Nothing under ``src/`` changes: functions are swapped on every
``metacommute.*`` module that holds them, because ``from X import f`` copies
the name, and methods are swapped on their class.

Hot names are called about 10^6 times a run, so every name keeps an
aggregate (calls, inclusive time, self time, time spent in cache misses)
rather than one record per call. Full spans are kept only for the coarse
boundaries in ``SPAN_NAMES`` and for lru_cache misses, which are the cold
per-``p`` builds. A span's self time is its duration minus the durations of
the wrapped calls it made, so the self times of all names plus the
benchmark's own time add up to the traced wall time.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.attr" names a method
TARGETS = [
    ("kernels.mul", "metacommute._kernels", "mul"),
    ("kernels.norm", "metacommute._kernels", "norm"),
    ("kernels.right_divmod", "metacommute._kernels", "right_divmod"),
    ("kernels.gcrd", "metacommute._kernels", "gcrd"),
    ("kernels.canonical_min", "metacommute._kernels", "canonical_min"),
    ("quatcore.HurwitzInt.init", "metacommute.quatcore", "HurwitzInt.__init__"),
    ("quatcore.HurwitzInt.wrap", "metacommute.quatcore", "HurwitzInt._wrap"),
    ("quatcore.gcrd", "metacommute.quatcore", "gcrd"),
    ("quatcore.primes_of_norm", "metacommute.quatcore", "primes_of_norm"),
    ("quatcore.elements_of_norm", "metacommute.quatcore", "elements_of_norm"),
    ("modp.QuotQuat.init", "metacommute.modp", "QuotQuat.__init__"),
    ("modp.FpMat2.init", "metacommute.modp", "FpMat2.__init__"),
    ("modp.reduce_mod", "metacommute.modp", "reduce_mod"),
    ("modp.phi", "metacommute.modp", "phi"),
    ("modp.legendre", "metacommute.modp", "legendre"),
    ("modp.two_square_rep", "metacommute.modp", "two_square_rep"),
    ("geometry.conic_points", "metacommute.geometry", "conic_points"),
    ("geometry.conic_to_proj", "metacommute.geometry", "conic_to_proj"),
    ("geometry.pgl2_act", "metacommute.geometry", "pgl2_act"),
    ("geometry.conic_to_prime", "metacommute.geometry", "conic_to_prime"),
    ("geometry.trace_zero_rep", "metacommute.geometry", "trace_zero_rep"),
    ("geometry.ProjPoint.init", "metacommute.geometry", "ProjPoint.__init__"),
    ("geometry.ConicPoint.init", "metacommute.geometry", "ConicPoint.__init__"),
    ("metacomm.MetaQuery.create", "metacommute.metacomm", "MetaQuery.create"),
    ("metacomm.meta_divide", "metacommute.metacomm", "meta_divide"),
    ("metacomm.meta_conj", "metacommute.metacomm", "meta_conj"),
    ("metacomm.meta_permutation", "metacommute.metacomm", "meta_permutation"),
    ("metacomm.analyze", "metacommute.metacomm", "analyze"),
    ("metacomm.predict", "metacommute.metacomm", "predict"),
    ("verify.verify_oracle", "metacommute.verify", "verify_oracle"),
    ("verify.verify_signs", "metacommute.verify", "verify_signs"),
    ("verify.verify_fixed", "metacommute.verify", "verify_fixed"),
    ("verify.verify_cycles", "metacommute.verify", "verify_cycles"),
    ("cli.main", "metacommute.cli", "main"),
]

LAYERS = ("kernels", "quatcore", "modp", "geometry", "metacomm", "verify", "cli")

# names whose every call is kept as a span; all others are aggregated only
SPAN_NAMES = {
    "cli.main",
    "verify.verify_oracle",
    "verify.verify_signs",
    "verify.verify_fixed",
    "verify.verify_cycles",
}


class Tracer:
    """Wraps the layer boundaries in TARGETS while installed."""

    def __init__(self):
        # stack[-1] accumulates the durations of the running span's children;
        # stack[0] belongs to the benchmark's root span
        self.stack = [0.0]
        self.stats = {}  # name -> [calls, total_s, self_s, miss_s]
        self.spans = []  # (name, start, end, parent, query)
        self.query = None  # identifier of the request being traced
        self._current = ["bench"]
        self._undo = []
        self._caches = {}  # name -> (cached function, cache_info at install)
        self._t0 = 0.0
        self.wall_s = 0.0

    def _wrap(self, name, fn):
        stats = self.stats[name] = [0, 0.0, 0.0, 0.0]
        stack = self.stack
        clock = perf_counter
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is None and name not in SPAN_NAMES:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - stack.pop()
                    stack[-1] += dt
            return traced

        spans = self.spans
        current = self._current

        def traced_span(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            parent = current[-1]
            current.append(name)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                current.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - stack.pop()
                stack[-1] += dt
                if cache_info is None or cache_info().misses != misses:
                    if cache_info:
                        stats[3] += dt
                    spans.append((name, t0 - self._t0, t1 - self._t0, parent, self.query))
        return traced_span

    def install(self):
        """Swap every target for its traced wrapper."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            new = self._wrap(name, orig)
            if hasattr(orig, "cache_info"):
                self._caches[name] = (orig, orig.cache_info())
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "metacommute" and not mod_name.startswith("metacommute."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def start(self):
        """Open the benchmark's root span."""
        self._t0 = perf_counter()

    def stop(self):
        """Close the root span; wall_s is its duration."""
        self.wall_s = perf_counter() - self._t0

    def record(self, name, t0, t1):
        """Keep a span the benchmark timed itself, under the current query."""
        self.spans.append((name, t0 - self._t0, t1 - self._t0, "bench", self.query))

    def cache_deltas(self):
        """name -> (hits, misses) accumulated while installed."""
        out = {}
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            out[name] = (after.hits - before.hits, after.misses - before.misses)
        return out

    def layer_metrics(self, queries):
        """The per-layer metrics, from the aggregates; ``queries`` is the
        number of (p, Q) queries the workload defines."""
        st = self.stats
        caches = self.cache_deltas()

        def calls(name):
            return st[name][0]

        def self_s(name):
            return st[name][2]

        def hit_ratio(name):
            hits, misses = caches[name]
            return hits / (hits + misses) if hits + misses else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        def calls_and_self(name):
            put(f"{name}.calls", calls(name), "count")
            put(f"{name}.self_s", self_s(name), "s")

        for fn in ("mul", "norm", "right_divmod", "gcrd", "canonical_min"):
            calls_and_self(f"kernels.{fn}")
        gcrd_calls = calls("kernels.gcrd")
        put("kernels.gcrd.us_per_call",
            1e6 * self_s("kernels.gcrd") / gcrd_calls if gcrd_calls else 0.0, "us")

        put("quatcore.HurwitzInt.built",
            calls("quatcore.HurwitzInt.init") + calls("quatcore.HurwitzInt.wrap"), "count")
        calls_and_self("quatcore.gcrd")
        put("quatcore.primes_of_norm.build_s", st["quatcore.primes_of_norm"][3], "s")
        put("quatcore.primes_of_norm.hit_ratio", hit_ratio("quatcore.primes_of_norm"), "ratio")
        put("quatcore.elements_of_norm.hit_ratio", hit_ratio("quatcore.elements_of_norm"), "ratio")

        put("modp.QuotQuat.built", calls("modp.QuotQuat.init"), "count")
        put("modp.FpMat2.built", calls("modp.FpMat2.init"), "count")
        calls_and_self("modp.reduce_mod")
        calls_and_self("modp.phi")
        put("modp.two_square_rep.hit_ratio", hit_ratio("modp.two_square_rep"), "ratio")

        put("geometry.conic_points.calls", calls("geometry.conic_points"), "count")
        put("geometry.conic_points.build_s", st["geometry.conic_points"][3], "s")
        for fn in ("conic_to_proj", "pgl2_act", "conic_to_prime"):
            calls_and_self(f"geometry.{fn}")
        put("geometry.conic_to_proj.calls_per_query",
            calls("geometry.conic_to_proj") / queries, "calls/query")
        put("geometry.ProjPoint.built", calls("geometry.ProjPoint.init"), "count")
        put("geometry.ConicPoint.built", calls("geometry.ConicPoint.init"), "count")
        put("geometry.trace_zero_rep.hit_ratio", hit_ratio("geometry.trace_zero_rep"), "ratio")
        put("geometry.conic_to_prime.hit_ratio", hit_ratio("geometry.conic_to_prime"), "ratio")

        for fn in ("meta_divide", "meta_conj", "meta_permutation", "analyze", "predict"):
            calls_and_self(f"metacomm.{fn}")
        put("metacomm.MetaQuery.create.self_s", self_s("metacomm.MetaQuery.create"), "s")

        for fn in ("verify_oracle", "verify_signs", "verify_fixed", "verify_cycles"):
            put(f"verify.{fn}.s", st[f"verify.{fn}"][1], "s")
        put("cli.main.self_s", self_s("cli.main"), "s")

        # layer totals: these plus bench.self_s account for the traced wall time
        for layer in LAYERS:
            if layer != "cli":
                put(f"{layer}.self_s",
                    sum(v[2] for k, v in st.items() if k.split(".")[0] == layer), "s")
        put("bench.self_s", self.wall_s - self.stack[0], "s")
        put("trace.wall_s", self.wall_s, "s")
        return m

    def dump(self):
        """Aggregates and spans, for the side file."""
        return {
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "miss_s": v[3]}
                           for k, v in sorted(self.stats.items())},
            "caches": {k: {"hits": h, "misses": m} for k, (h, m) in sorted(self.cache_deltas().items())},
            "spans": [dict(zip(("name", "start_s", "end_s", "parent", "query"), s))
                      for s in self.spans],
        }
