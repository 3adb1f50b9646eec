"""Tests of the benchmark's tracer.

Exact call counts are checked on a small package written here, where the
hand count cannot drift; on symcap itself the tests check only what must
hold whatever the implementation: every binding is patched and restored,
tracing leaves outputs unchanged, and the formulas workload runs no path
search.
"""

import os
import sys

import pytest

import tracing
import workloads
from tracing import Tracer

PKG = "tracer_fixture_pkg"
FILES = {
    "__init__.py": "from .core import inner\n",
    "core.py": (
        "def leaf(x):\n"
        "    return x + 1\n"
        "\n"
        "def inner(n):\n"
        "    return sum(leaf(i) for i in range(n))\n"
    ),
    "by_name.py": (
        "from .core import inner\n"
        "\n"
        "def run():\n"
        "    return inner(3)\n"
    ),
    "by_attr.py": (
        "from . import core\n"
        "\n"
        "def run():\n"
        "    return core.inner(2) + core.leaf(0)\n"
    ),
}
TARGETS = ((f"{PKG}.core", "inner", "core.inner", None, None),
           (f"{PKG}.core", "leaf", "core.leaf", None, None))


@pytest.fixture
def pkg(tmp_path, monkeypatch):
    root = tmp_path / PKG
    root.mkdir()
    for name, text in FILES.items():
        (root / name).write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    import importlib
    mods = {name: importlib.import_module(f"{PKG}.{name}") for name in ("core", "by_name", "by_attr")}
    yield mods
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]


def test_counts_calls_through_every_binding(pkg, tmp_path):
    core = pkg["core"]
    originals = (core.inner, core.leaf, pkg["by_name"].inner, sys.modules[PKG].inner)
    tracer = Tracer(package=PKG, targets=TARGETS, binding_counters={})
    tracer.install()
    tracer.op = 7
    assert pkg["by_name"].run() == 6  # inner(3): leaf x3, via an imported name
    assert pkg["by_attr"].run() == 4  # inner(2): leaf x2, plus leaf(0), via the module
    tracer.uninstall()
    assert (core.inner, core.leaf, pkg["by_name"].inner, sys.modules[PKG].inner) == originals

    summary = tracer.summary()["spans"]
    assert summary["core.inner"][0] == 2
    assert summary["core.leaf"][0] == 6
    # five leaves nest inside the two inner spans, one leaf is top level
    assert sum(1 for p in tracer.parent if p >= 0) == 5
    assert set(tracer.op_id) == {7}
    calls, total, self_s = summary["core.inner"]
    assert 0 <= self_s <= total
    leaf_in_inner = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
                        if tracer.parent[i] >= 0)
    assert self_s == pytest.approx(total - leaf_in_inner)

    path = tmp_path / "spans.bin"
    tracer.dump(path)
    assert tracing.load(path)["spans"] == tracer.summary()["spans"]


def test_binding_counter_counts_only_its_binding(pkg):
    tracer = Tracer(package=PKG, targets=TARGETS,
                    binding_counters={(f"{PKG}.by_name", "inner"): "by_name.inner"})
    tracer.install()
    pkg["by_name"].run()
    pkg["by_attr"].run()
    tracer.uninstall()
    assert tracer.counters["by_name.inner"] == 1
    assert tracer.summary()["spans"]["core.inner"][0] == 2


def test_missing_target_is_skipped(pkg):
    tracer = Tracer(package=PKG, targets=TARGETS + ((f"{PKG}.core", "gone", "x", None, None),))
    tracer.install()
    tracer.uninstall()
    assert "x" not in tracer.summary()["spans"]


def test_patches_the_bindings_symcap_callers_use():
    import symcap.capacities
    import symcap.cli
    import symcap.geometry
    import symcap.obstructions
    import symcap.paths
    bindings = [(symcap.paths, "lattice_points_under_path"), (symcap.obstructions, "ck"),
                (symcap.cli, "capacity_sequence"), (symcap.capacities, "_union_table")]
    originals = [getattr(m, n) for m, n in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, n) is not o for (m, n), o in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert [getattr(m, n) for m, n in bindings] == originals


def _digests(workload, traced):
    ops = workloads.build(workload, seed=3, seconds=0, smoke=True)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        results = [op.call() for op in ops]
    finally:
        if tracer:
            tracer.uninstall()
    checked = [op.check(r) for op, r in zip(ops, results)]
    assert [err for _, err in checked] == [None] * len(ops)
    return [text for text, _ in checked], tracer


@pytest.mark.parametrize("workload", ["formulas", "toric-search"])
def test_tracing_leaves_outputs_unchanged(workload):
    import symcap.capacities
    symcap.capacities.clear_memo()
    plain, _ = _digests(workload, traced=False)
    symcap.capacities.clear_memo()
    traced, tracer = _digests(workload, traced=True)
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.summary())
    assert metrics["capacities.ck.calls"]["value"] > 0
    assert metrics["capacities.disk_cache.entries"]["value"] == 0
    searches = sum(metrics[m]["value"] for m in ("paths.min_convex.calls",
                                                 "paths.max_concave.calls",
                                                 "geometry.lattice_points_under_path.calls"))
    assert (searches == 0) == (workload == "formulas")


def test_benchmark_json_lists_the_reported_metrics():
    import json
    with open(os.path.join(os.path.dirname(workloads.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
