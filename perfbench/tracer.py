"""Tracing from outside the library: wrap public functions, record spans, derive per-layer metrics.

`Tracer.install` rebinds every public function of the seven library modules
in every module namespace that holds it by name (so `finish_time` is wrapped
in `capacity`, `model`, `heuristics`, `schemes` and `oracle` alike), plus
`GeometricBuckets.index`.  `uninstall` puts the originals back.  Spans live in
flat arrays while the run lasts and are written out at the end.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("capacity", "model", "heuristics", "schemes", "oracle", "generators", "cli")
METHODS = (("schemes", "GeometricBuckets", "index"),)


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return [
        name
        for name in names
        if inspect.isfunction(getattr(module, name)) and getattr(module, name).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span names; a name keeps its index across installs
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = True
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def paused(self):
        saved, self.active = self.active, False
        try:
            yield
        finally:
            self.active = saved

    def install(self, package) -> None:
        wrapped = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for name in public_functions(module):
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self._wrap(f"{mod_name}.{name}", mod_name, fn))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            fn = vars(cls)[meth]
            self._rebind(cls, meth, fn, self._wrap(f"{mod_name}.{cls_name}.{meth}", mod_name, fn))
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname: str, module: str, fn):
        if qualname not in self.names:
            self.names.append(qualname)
        name_id = self.names.index(qualname)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts = self.stack, self.counts
        errors = f"{module}.errors"
        inspect_result = _RESULT_COUNTERS.get(qualname)
        prepare = _ARGUMENT_HOOKS.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if prepare is not None:
                prepare(counts, args, kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if inspect_result is not None:
                inspect_result(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def layer_stats(self) -> dict[str, float]:
        """`<span>.calls` and `<span>.self_s` for every span name, plus the hook counts.

        Self time is a span's duration minus its child spans' durations.
        """
        n = len(self.span_start)
        child = [0.0] * n
        parents, starts, ends, names = self.span_parent, self.span_start, self.span_end, self.span_name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        stats: dict[str, float] = {}
        for name_id, qualname in enumerate(self.names):
            stats[f"{qualname}.calls"] = calls[name_id]
            stats[f"{qualname}.self_s"] = self_s[name_id]
        stats.update(dict.fromkeys(HOOK_COUNTS, 0))
        stats.update((f"{mod_name}.errors", 0) for mod_name in MODULES)
        stats.update(self.counts)
        extended = stats.get("schemes.totaltime_scheme.states_extended", 0)
        kept = stats.get("schemes.totaltime_scheme.states_kept", 0)
        stats["schemes.totaltime_scheme.kept_ratio"] = kept / extended if extended else 0.0
        return stats

    def write_spans(self, path) -> None:
        """Write every span as `index parent name start_s end_s`, tab-separated, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (p, nm, s, e) in enumerate(zip(self.span_parent, self.span_name, self.span_start, self.span_end)):
                out.write(f"{i}\t{p}\t{names[nm]}\t{s:.9f}\t{e:.9f}\n")


def _count_branches(counts, args, kwargs, result):
    inst = args[0]
    d = args[1] if len(args) > 1 else kwargs["d"]
    counts["schemes.makespan_scheme.branches"] += inst.m**d


def _count_leaves(counts, args, kwargs, result):
    counts["oracle.exact_optimal.leaves"] += result.states_explored


def _hook_states(counts, args, kwargs):
    """Count DP states through the public `on_step` hook, unless the caller set one."""
    if kwargs.get("on_step") is not None or len(args) > 4:
        return
    m = args[0].m
    prev = [1]

    def on_step(job, states):
        counts["schemes.totaltime_scheme.states_extended"] += prev[0] * m
        counts["schemes.totaltime_scheme.states_kept"] += len(states)
        prev[0] = len(states)

    kwargs["on_step"] = on_step


HOOK_COUNTS = (
    "schemes.makespan_scheme.branches",
    "schemes.totaltime_scheme.states_extended",
    "schemes.totaltime_scheme.states_kept",
    "oracle.exact_optimal.leaves",
)
_RESULT_COUNTERS = {
    "schemes.makespan_scheme": _count_branches,
    "oracle.exact_optimal": _count_leaves,
}
_ARGUMENT_HOOKS = {"schemes.totaltime_scheme": _hook_states}
