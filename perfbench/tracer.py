"""Layer spans for the traced benchmark run, installed from outside mackeydim.

`Tracer.install` wraps every public function of the layer modules and
rebinds every attribute of every `mackeydim` module that holds an original,
so copies made by `from .groups import quotient_invariants` are traced as
well.  `uninstall` puts each original back.  A span's self time is its
duration minus the durations of the spans it called; time spent in private
helpers lands in the nearest wrapped caller.  Functions reachable only
through containers or closures (not module attributes) stay untraced.

`lru_cache` hit and miss counts are read from whatever module attributes
expose `cache_info`, so no private cache is named here.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("groups", "posets", "qlinalg", "transfer", "izext", "oracle", "mackey")
CACHE_LAYERS = ("groups", "izext")
MARK = "__perfbench_span__"


class Stat:
    __slots__ = ("calls", "self_s", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.active = 0


def program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mackeydim" or name.startswith("mackeydim."))]


def count_wrappers():
    """Attributes of mackeydim modules that currently hold a tracer wrapper."""
    return sum(1 for m in program_modules() for v in vars(m).values()
               if getattr(v, MARK, None) is not None)


def cache_counts(module):
    """(hits, misses) summed over the module's attributes with cache_info."""
    seen = {}
    for value in vars(module).values():
        if getattr(value, MARK, None) is not None:
            value = value.__wrapped__
        if callable(getattr(value, "cache_info", None)):
            seen[id(value)] = value.cache_info()
    return (sum(i.hits for i in seen.values()),
            sum(i.misses for i in seen.values()))


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self._stack = []
        self._saved = []
        self._cache_base = {}

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"mackeydim.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in program_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, obj))
        self._cache_base = {layer: cache_counts(sys.modules[f"mackeydim.{layer}"])
                            for layer in CACHE_LAYERS}

    def uninstall(self):
        caches = {layer: cache_counts(sys.modules[f"mackeydim.{layer}"])
                  for layer in CACHE_LAYERS}
        for layer, (hits, misses) in caches.items():
            base_hits, base_misses = self._cache_base[layer]
            self.counters[f"{layer}.cache_hits"] = hits - base_hits
            self.counters[f"{layer}.cache_misses"] = misses - base_misses
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        setattr(wrapper, MARK, key)
        return wrapper

    @contextmanager
    def span(self, key):
        """A root span opened by the benchmark itself (one per job)."""
        stat = self.stats[key]
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stat.calls += 1
            stat.self_s += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt

    # -- counts -------------------------------------------------------------

    def _observer(self, key):
        c = self.counters
        enum = self.stats["transfer.enumerate_disk_like"]

        def lattice(args, res):
            c["groups.subgroups_built"] += res.n

        def order_complex(args, res):
            c["posets.simplices"] += res.total_simplices()

        def dismantle(args, res):
            c["posets.dismantle.in"] += args[0].n
            c["posets.dismantle.out"] += res.n

        def cohomology(args, res):
            # computed, not observed: a chain with d+1 elements has d+1
            # faces, and each vertex maps to the empty simplex.
            levels = getattr(args[0], "simplices_by_dim", args[0])
            c["qlinalg.boundary_nnz"] += sum((d + 1) * len(level)
                                             for d, level in enumerate(levels))

        def enumerate_(args, res):
            c["transfer.systems_enumerated"] += len(res[0])

        def close(args, res):
            if enum.active:
                c["transfer.close.in_enumeration"] += 1

        return {
            "groups.subgroup_lattice": lattice,
            "posets.order_complex": order_complex,
            "posets.dismantle": dismantle,
            "qlinalg.reduced_cohomology_dims": cohomology,
            "transfer.enumerate_disk_like": enumerate_,
            "transfer.close": close,
        }.get(key)

    # -- report -------------------------------------------------------------

    def flat(self):
        """Every span's calls and self time, every counter, and the ratios."""
        out = {}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.self_s"] = st.self_s
            out[f"{key}.errors"] = st.errors
        out.update(self.counters)
        c = self.counters
        out["transfer.useful_close_ratio"] = _ratio(
            c["transfer.systems_enumerated"], c["transfer.close.in_enumeration"])
        out["posets.dismantle.kept_ratio"] = _ratio(
            c["posets.dismantle.out"], c["posets.dismantle.in"])
        out["oracle.errors"] = out.get("oracle.ext_table_oracle.errors", 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(st.self_s for key, st in self.stats.items()
                                         if key.startswith(f"{layer}."))
        out["self_s_total"] = sum(st.self_s for st in self.stats.values())
        return out


def _ratio(num, den):
    return num / den if den else 0.0
