"""Span tracer that measures symcap's layers from outside the package.

The tracer replaces each traced function with a wrapper at every binding
inside the package: the defining module's global and every module that
imported the name (``from .capacities import ck``), plus the package's own
re-exports.  A call through any of them records a span (name, start, end,
parent span, operation id).  Spans stay in memory, in flat arrays, until
``dump`` writes them out; ``uninstall`` puts the original functions back.

A layer's self time is the time of its spans minus the time of the wrapped
spans nested directly inside them.  Argument-derived counters (DP cells,
spectrum misses, disk-cache bytes) are taken in the wrappers, so nothing
inside symcap changes.  A traced function missing from the package is
skipped and its metrics read 0, so the benchmark keeps running when a later
version renames an internal.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction


def _dir_bytes(path) -> int:
    try:
        entries = list(os.scandir(path))
    except OSError:
        return 0
    return sum(e.stat().st_size for e in entries if e.is_file())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cells(tracer, args, kwargs):
    # (m-1)(K+1)(K+2)/2 inner steps of the max-plus DP over m parts
    try:
        m = len(_arg(args, kwargs, 0, "parts"))
        kmax = int(_arg(args, kwargs, 1, "kmax"))
    except (KeyError, TypeError, ValueError):
        return
    tracer.counters["capacities.union_dp.cells"] += (m - 1) * (kmax + 1) * (kmax + 2) // 2


def _count_spectrum_miss(tracer, args, kwargs):
    # a miss is a request longer than any earlier one for the same axes
    try:
        key = (Fraction(_arg(args, kwargs, 0, "a")), Fraction(_arg(args, kwargs, 1, "b")))
        need = int(_arg(args, kwargs, 2, "k_max"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return
    if need > tracer.spectrum_seen.get(key, -1):
        tracer.spectrum_seen[key] = need
        tracer.counters["capacities.ellipsoid_spectrum.misses"] += 1


def _cache_dir(args, kwargs):
    try:
        return _arg(args, kwargs, 0, "cache_dir")
    except (KeyError, TypeError):
        return None


def _before_load(tracer, args, kwargs):
    tracer.counters["capacities.disk_cache.bytes"] += _dir_bytes(_cache_dir(args, kwargs))


def _after_cache_io(tracer, args, kwargs, result):
    if isinstance(result, int):
        tracer.counters["capacities.disk_cache.entries"] += result


def _after_save(tracer, args, kwargs, result):
    tracer.counters["capacities.disk_cache.bytes"] += _dir_bytes(_cache_dir(args, kwargs))
    _after_cache_io(tracer, args, kwargs, result)


# (defining module, function, span name, before hook, after hook)
TARGETS = (
    ("symcap.capacities", "ck", "capacities.ck", None, None),
    ("symcap.capacities", "_dispatch", "capacities.memo.miss", None, None),
    ("symcap.capacities", "_union_table", "capacities.union_dp", _count_cells, None),
    ("symcap.capacities", "ellipsoid_spectrum", "capacities.ellipsoid_spectrum",
     _count_spectrum_miss, None),
    ("symcap.capacities", "ck_polydisk", "capacities.ck_polydisk", None, None),
    ("symcap.capacities", "capacity_sequence", "capacities.capacity_sequence", None, None),
    ("symcap.capacities", "load_disk_cache", "capacities.disk_cache.load",
     _before_load, _after_cache_io),
    ("symcap.capacities", "save_disk_cache", "capacities.disk_cache.save",
     None, _after_save),
    ("symcap.weights", "weight_expansion", "weights.weight_expansion", None, None),
    ("symcap.weights", "negative_weight_sequence", "weights.negative_weight_sequence",
     None, None),
    ("symcap.paths", "min_convex", "paths.min_convex", None, None),
    ("symcap.paths", "max_concave", "paths.max_concave", None, None),
    ("symcap.geometry", "lattice_points_under_path",
     "geometry.lattice_points_under_path", None, None),
    ("symcap.domains", "validate", "domains.validate", None, None),
    ("symcap.domains", "domain_key", "domains.domain_key", None, None),
    ("symcap.domains", "domain_from_json", "domains.domain_from_json", None, None),
    ("symcap.norms", "convex_context", "norms.context", None, None),
    ("symcap.norms", "concave_context", "norms.context", None, None),
    ("symcap.obstructions", "check_embedding", "obstructions.check_embedding", None, None),
    ("symcap.cli", "main", "cli.main", None, None),
)

# bindings whose calls also bump a counter: every lattice count requested
# from inside the path searches scores one candidate path
BINDING_COUNTERS = {
    ("symcap.paths", "lattice_points_under_path"): "paths.candidates_scored",
}

# (metric, unit) reported by a traced run, in output order
PER_LAYER = (
    ("capacities.union_dp.calls", "count"),
    ("capacities.union_dp.cells", "count"),
    ("capacities.union_dp.self_s", "s"),
    ("capacities.ellipsoid_spectrum.calls", "count"),
    ("capacities.ellipsoid_spectrum.misses", "count"),
    ("capacities.ellipsoid_spectrum.self_s", "s"),
    ("capacities.ck_polydisk.self_s", "s"),
    ("capacities.ck.calls", "count"),
    ("capacities.memo.misses", "count"),
    ("capacities.memo.hit_ratio", "ratio"),
    ("capacities.disk_cache.load_s", "s"),
    ("capacities.disk_cache.save_s", "s"),
    ("capacities.disk_cache.bytes", "B"),
    ("capacities.disk_cache.entries", "count"),
    ("weights.weight_expansion.calls", "count"),
    ("weights.weight_expansion.self_s", "s"),
    ("weights.negative_weight_sequence.calls", "count"),
    ("weights.negative_weight_sequence.self_s", "s"),
    ("paths.min_convex.calls", "count"),
    ("paths.min_convex.self_s", "s"),
    ("paths.max_concave.calls", "count"),
    ("paths.max_concave.self_s", "s"),
    ("paths.candidates_scored", "count"),
    ("geometry.lattice_points_under_path.calls", "count"),
    ("geometry.lattice_points_under_path.self_s", "s"),
    ("domains.validate.calls", "count"),
    ("domains.validate.self_s", "s"),
    ("domains.domain_key.calls", "count"),
    ("domains.domain_key.self_s", "s"),
    ("domains.domain_from_json.self_s", "s"),
    ("norms.context.calls", "count"),
    ("norms.context.self_s", "s"),
    ("obstructions.check_embedding.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans around the package's traced functions.

    ``op`` is the id of the operation in progress; the benchmark sets it
    before each timed operation so spans of one operation share it.
    """

    def __init__(self, package: str = "symcap", targets=TARGETS,
                 binding_counters=None):
        self.package = package
        self.targets = targets
        self.binding_counters = (BINDING_COUNTERS if binding_counters is None
                                 else binding_counters)
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.spectrum_seen: dict = {}
        self._stack = [-1]
        self._patched: list = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, fn, span, before, after, counter):
        nid = self._name_id(span)
        add_name, add_parent, add_op = self.name.append, self.parent.append, self.op_id.append
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter] += 1
            if before is not None:
                before(tracer, args, kwargs)
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for modname, attr, span, before, after in self.targets:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            shared = self._wrap(original, span, before, after, None)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    counter = self.binding_counters.get((mod.__name__, name))
                    wrapper = (shared if counter is None
                               else self._wrap(original, span, before, after, counter))
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    def dump(self, path) -> None:
        """Write names, counters and every span to one file."""
        header = {"names": self.names, "counters": dict(self.counters),
                  "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op_id, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        return summarize(self.names, self.name, self.parent, self.start, self.end,
                         self.counters)


def load(path) -> dict:
    """Summary of a file written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iiidd":
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    name, parent, _, start, end = arrays
    return summarize(header["names"], name, parent, start, end, header["counters"])


def summarize(names, name, parent, start, end, counters) -> dict:
    """{"spans": {span: [calls, total_s, self_s]}, "counters": {...}}"""
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(len(start)):
        nid = name[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        total[nid] += dur
        self_s[nid] += dur
        p = parent[i]
        if p >= 0:
            self_s[name[p]] -= dur
    return {"spans": {n: [calls[i], total[i], self_s[i]] for i, n in enumerate(names)},
            "counters": dict(counters)}


def merge(summaries) -> dict:
    spans: dict = {}
    counters: Counter = Counter()
    for s in summaries:
        for n, (c, t, st) in s["spans"].items():
            acc = spans.setdefault(n, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += t
            acc[2] += st
        counters.update(s["counters"])
    return {"spans": spans, "counters": dict(counters)}


def layer_metrics(summary, startup_s: float = 0.0, overhead_s: float = 0.0) -> dict:
    """Every PER_LAYER metric, 0 where the layer did no work."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(span):
        return spans.get(span, (0, 0.0, 0.0))[0]

    def total(span):
        return spans.get(span, (0, 0.0, 0.0))[1]

    def self_time(span):
        return spans.get(span, (0, 0.0, 0.0))[2]

    ck_calls = calls("capacities.ck")
    misses = calls("capacities.memo.miss")
    values = {"capacities.memo.misses": misses,
              "capacities.memo.hit_ratio": (ck_calls - misses) / ck_calls if ck_calls else 0.0,
              "capacities.disk_cache.load_s": total("capacities.disk_cache.load"),
              "capacities.disk_cache.save_s": total("capacities.disk_cache.save"),
              "cli.startup_s": startup_s,
              "trace.overhead_s": overhead_s}
    out = {}
    for metric, unit in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric in counters:
            value = counters[metric]
        elif metric.endswith(".calls"):
            value = calls(metric[:-len(".calls")])
        elif metric.endswith(".self_s"):
            value = self_time(metric[:-len(".self_s")])
        else:
            value = 0
        out[metric] = {"value": value, "unit": unit}
    return out
