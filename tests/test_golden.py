"""The CLI contract, locked: sha256 digests of stdout and the exit code of
fixed invocations on every domain family, of all demos, and of the cache
files a session of runs leaves behind, replayed against tests/data.

Each invocation runs in-process on an empty store, as a fresh `symcap`
process would.  After an intended output change, record the digests again
with `PYTHONPATH=src python tests/test_golden.py --record`.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import symcap.capacities as cap
from cache_files import domain_files
from symcap.cli import main, parse_domain_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data", "golden_cli.json")


def _spec(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _toric(kind, *vertices) -> str:
    return _spec({"type": kind, "vertices": [[str(x), str(y)] for x, y in vertices]})


# the eight families, then a pentagon and a staircase
DOMAINS = {
    "ball": _spec({"type": "ball", "a": "3/2"}),
    "ellipsoid": _spec({"type": "ellipsoid", "a": "1", "b": "5/3"}),
    "polydisk": _spec({"type": "polydisk", "a": "1", "b": "3/2"}),
    "convex_toric": _toric("convex_toric", (0, 0), (2, 0), (0, 1)),
    "concave_toric": _toric("concave_toric", (0, 0), ("3/2", 0), (0, 1)),
    "disjoint_union": _spec({"type": "disjoint_union", "parts": [
        {"type": "polydisk", "a": "1/2", "b": "1"}, {"type": "ball", "a": "1"},
        {"type": "ellipsoid", "a": "1", "b": "2"}]}),
    "cp2": _spec({"type": "cp2", "a": "2"}),
    "s2xs2": _spec({"type": "s2xs2", "a": "1", "b": "2"}),
    "pent": _toric("convex_toric", (0, 0), (2, 0), (2, 1), (1, 2), (0, 2)),
    "staircase": _toric("concave_toric", (0, 0), (5, 0), (3, "1/2"), (1, 2), (0, 4)),
}

OBSTRUCT_PAIRS = [("ball", "ellipsoid"), ("ellipsoid", "pent"), ("disjoint_union", "cp2"),
                  ("staircase", "polydisk"), ("pent", "s2xs2"), ("concave_toric", "convex_toric")]

BAD_INPUT = [
    ["capacity", "-d", '{"type":"ball","a":}', "-k", "1"],
    ["capacity", "-d", '{"type":"torus","a":"1"}', "-k", "1"],
    ["capacity", "-d", '{"type":"ellipsoid","a":"1","b":"-2"}', "-k", "1"],
    ["capacity", "-d", '{"type":"disjoint_union","parts":[{"type":"cp2","a":"1"}]}', "-k", "1"],
    ["capacity", "-d", _toric("convex_toric", (0, 0), (3, 0), (1, 1), (0, 3)), "-k", "1"],
]

# E(1,100) as a concave triangle: a weight expansion 100 steps long
LONG_LEG = _toric("concave_toric", (0, 0), (1, 0), (0, 100))
LONG_EXPANSION = [
    ["weights", "-d", LONG_LEG],
    ["capacity", "-d", LONG_LEG, "-k", "3"],
]


def invocations() -> list:
    runs = []
    for name, spec in DOMAINS.items():
        kmax = "12" if name in ("convex_toric", "pent") else "24"
        for fmt in ("text", "json", "csv"):
            runs.append(["sequence", "-d", spec, "--kmax", kmax, "--format", fmt])
            runs.append(["capacity", "-d", spec, "-k", "7", "--format", fmt])
        runs.append(["capacity", "-d", spec, "-k", "0"])
        runs.append(["weights", "-d", spec])
        runs.append(["asymptotics", "-d", spec, "-k", "9"])
        runs.append(["paths", "-d", spec, "-k", "5"])
        for kind in ("convex", "concave"):
            runs.append(["paths", "-d", spec, "-k", "6", "--kind", kind])
    for src, tgt in OBSTRUCT_PAIRS:
        for fmt in ("table", "json", "csv"):
            runs.append(["obstruct", "--source", DOMAINS[src], "--target", DOMAINS[tgt],
                         "--kmax", "16", "--format", fmt])
    return runs + BAD_INPUT + LONG_EXPANSION


# one CLI run per process: each store cleared, the cache directory shared
SESSION = [
    ["sequence", "-d", DOMAINS["disjoint_union"], "--kmax", "20"],
    ["obstruct", "--source", DOMAINS["ellipsoid"], "--target", DOMAINS["ball"], "--kmax", "20"],
    ["capacity", "-d", DOMAINS["pent"], "-k", "6", "--format", "json"],
    ["sequence", "-d", DOMAINS["staircase"], "--kmax", "10", "--format", "csv"],
    ["obstruct", "--source", DOMAINS["cp2"], "--target", DOMAINS["s2xs2"], "--kmax", "12"],
    ["sequence", "-d", DOMAINS["disjoint_union"], "--kmax", "24"],
]

DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def run_cli(args) -> dict:
    cap.clear_memo()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    return {"exit": code, "stdout_sha256": _digest(out.getvalue())}


def run_session(cache_dir) -> dict:
    old = os.environ.get("CAPACITY_CACHE_DIR")
    os.environ["CAPACITY_CACHE_DIR"] = str(cache_dir)
    try:
        runs = [run_cli(args) for args in SESSION]
    finally:
        if old is None:
            del os.environ["CAPACITY_CACHE_DIR"]
        else:
            os.environ["CAPACITY_CACHE_DIR"] = old
        cap.clear_memo()
    cache = hashlib.sha256()
    for name in sorted(os.listdir(cache_dir)):
        with open(os.path.join(cache_dir, name), "rb") as fh:
            cache.update(name.encode() + b"\0" + fh.read() + b"\0")
    return {"runs": runs, "cache_sha256": cache.hexdigest()}


def run_demo(name) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CAPACITY_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, timeout=120)
    return {"exit": proc.returncode, "stdout_sha256": _digest(proc.stdout)}


def _golden():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_invocations_match_their_recorded_output(monkeypatch):
    monkeypatch.delenv("CAPACITY_CACHE_DIR", raising=False)
    golden = _golden()["cli"]
    assert [g["args"] for g in golden] == invocations()
    changed = [g["args"][:2] + [i] for i, g in enumerate(golden)
               if run_cli(g["args"]) != {k: g[k] for k in ("exit", "stdout_sha256")}]
    assert changed == []


def test_cache_session_matches_its_recorded_output(tmp_path):
    assert run_session(tmp_path) == _golden()["session"]
    # only the union, the staircase and the pentagon run the DP: the
    # ellipsoid, ball, projective plane and sphere product get no file
    assert set(domain_files(tmp_path)) == {parse_domain_spec(DOMAINS[name]).key
                                           for name in ("disjoint_union", "pent", "staircase")}


def test_demos_match_their_recorded_output():
    golden = _golden()["demos"]
    assert sorted(golden) == DEMOS
    assert {name: run_demo(name) for name in DEMOS} == golden


def _record():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        session = run_session(tmp)
    golden = {"cli": [{"args": args, **run_cli(args)} for args in invocations()],
              "session": session,
              "demos": {name: run_demo(name) for name in DEMOS}}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
