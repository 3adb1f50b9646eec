"""The symcap benchmark.

  python3 perfbench/run.py --workload formulas|toric-search|cli-scan
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke [--trace 1]   # all workloads, tiny sizes
  python3 perfbench/run.py --record               # rewrite reference.json

Run from the root of a source checkout; symcap is imported from src/.
Each workload runs in fresh processes (worker.py), because symcap's
ellipsoid spectrum cache outlives clear_memo().

--trace 0 runs the same operations in PASSES passes, each in a fresh
process, and prints the end-to-end metrics: wall_s and peak_rss_mib are
medians over the passes; op_p50_s and op_p90_s are quantiles over the
operations of each one's median latency across the passes; setup_s is the
median set-up time of the passes and SETUP_ONLY_RUNS processes that stop
after set-up, started between the passes.  --trace 1 runs one pass
untraced and one traced and prints the per-layer metrics of the traced pass
plus the tracing overhead (traced wall_s minus untraced wall_s).  The last line of output is one JSON object;
the exit code is 0 only if every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import PASSES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 18
SETUP_ONLY_RUNS = 8
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _worker(workload, mode, args, deadline):
    env = {k: v for k, v in os.environ.items() if k != "CAPACITY_CACHE_DIR"}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0)] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} run passed the time limit") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(workload, args, deadline):
    passes = 1 if args.smoke else PASSES
    setup_only = 0 if args.smoke else SETUP_ONLY_RUNS
    setups, runs = [], []
    for j in range(passes):
        setups += [_worker(workload, "setup", args, deadline)["setup_s"]
                   for _ in range(setup_only * (j + 1) // passes - setup_only * j // passes)]
        runs.append(_worker(workload, "run", args, deadline))
    setups += [run["setup_s"] for run in runs]
    lat = [statistics.median(op) for op in zip(*(run["latencies"] for run in runs))]
    # the passes repeat the same operations, so their outputs must agree too
    unequal = sum(1 for digests in zip(*(run["digests"] for run in runs))
                  if len(set(digests) - {None}) > 1)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(run["wall_s"] for run in runs), "s"),
        "op_p50_s": _metric(statistics.median(lat), "s"),
        "op_p90_s": _metric(statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mib": _metric(statistics.median(run["peak_rss_mib"] for run in runs), "MiB"),
    }
    n = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs) + unequal
    print(f"{workload} seed={args.seed}: {len(runs)} pass(es) of the same {len(lat)} "
          f"operations, closed loop, one caller; wall_s and peak_rss_mib are medians "
          f"over passes; op_p50_s and op_p90_s are over the {len(lat)} operations' "
          f"median latencies; setup_s is the median of {len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<14} {failed / n:.6g} ratio ({failed} failed of {n})")
    return n, failed, metrics, runs[0]["digests"]


def _per_layer(workload, args, deadline):
    base = _worker(workload, "run", args, deadline)
    traced = _worker(workload, "trace", args, deadline)
    mismatched = sum(1 for a, b in zip(base["digests"], traced["digests"])
                     if a is not None and b is not None and a != b)
    metrics = layer_metrics(traced["layers"], traced["startup_s"],
                            traced["wall_s"] - base["wall_s"])
    n = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"] + mismatched
    print(f"{workload} seed={args.seed}: traced run of {traced['attempted']} operations; "
          f"untraced wall_s {base['wall_s']:.6g} s, traced {traced['wall_s']:.6g} s; "
          f"{mismatched} outputs differ between the two")
    for name, _ in PER_LAYER:
        m = metrics[name]
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {failed / n:.6g} ratio ({failed} failed of {n})")
    return n, failed, metrics, base["digests"]


def _record(args, deadline) -> int:
    path = os.path.join(HERE, "reference.json")
    if os.path.exists(path):
        os.remove(path)
    reference = {}
    for smoke in (False, True):
        args.smoke = smoke
        for workload in WORKLOADS:
            n, failed, _, digests = _end_to_end(workload, args, deadline)
            if failed:
                raise BenchError(f"{workload}: {failed} of {n} operations failed; "
                                 "not recording")
            reference[workload + ("-smoke" if smoke else "")] = {
                "seed": args.seed, "digests": digests}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symcap benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symcap", "__init__.py")):
        print(f"error: no symcap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and not (args.smoke or args.record):
        ap.error("--workload is required")
    deadline = time.monotonic() + (10 * DEADLINE_S if args.record else DEADLINE_S)
    try:
        if args.record:
            return _record(args, deadline)
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            measure = _per_layer if args.trace else _end_to_end
            n, failed, metrics, _ = measure(workload, args, deadline)
            ok = ok and failed == 0
            print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                              "metrics": metrics}))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
