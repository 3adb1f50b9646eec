"""One workload run in a fresh process: set up, time the loop, check.

Started by run.py as
  python3 worker.py WORKLOAD --seed N --seconds S --mode setup|run|trace
                    --t0 T [--smoke]
with src/ on PYTHONPATH.  T is time.monotonic() just before the process was
started (CLOCK_MONOTONIC is system-wide on Linux), so set-up time covers
interpreter start-up, importing symcap, generating and validating the
inputs and preparing the cache directory.  Prints one JSON line.

--mode setup stops after set-up; --mode trace runs the loop with the
tracer installed.  The correctness gate runs after the timed loop, with
the tracer removed, so neither its time nor its calls are counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reference(workload: str, smoke: bool, seed: int) -> list:
    """Recorded output digests of the operations, if any."""
    try:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            entry = json.load(fh).get(workload + ("-smoke" if smoke else ""))
    except FileNotFoundError:
        return []
    return entry["digests"] if entry and entry["seed"] == seed else []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import symcap  # noqa: F401  (import time is part of set-up)
    import workloads
    from tracing import Tracer, load, merge

    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    traced = args.mode == "trace"
    cli = None
    if args.workload == "cli-scan":
        os.makedirs(os.path.join(run_dir, "cache"))
        spans_dir = os.path.join(run_dir, "spans") if traced else None
        if spans_dir:
            os.makedirs(spans_dir)
        cli = workloads.Cli(SRC, os.path.join(run_dir, "cache"), spans_dir)
    try:
        ops = workloads.build(args.workload, args.seed, args.seconds, args.smoke, cli)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if traced and cli is None else None
        if tracer:
            tracer.install()
        results, latencies = [], []
        clock = time.perf_counter
        wall0 = clock()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t = clock()
            try:
                result = op.call()
            except Exception as e:  # a failed operation is counted, not fatal
                result = e
            latencies.append(clock() - t)
            results.append(result)
        wall_s = clock() - wall0
        who = resource.RUSAGE_SELF if cli is None else resource.RUSAGE_CHILDREN
        peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024

        layers, startup_s = None, 0.0
        if tracer:
            tracer.uninstall()
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"{args.workload}.spans"))
            layers = tracer.summary()
        elif traced:
            children = [load(path) for path in cli.spans_files]
            layers = merge(children)
            startup_s = sum(lat - child["spans"].get("cli.main", (0, 0.0))[1]
                            for lat, child in zip(latencies, children))
            dest = os.path.join(OUT, f"{args.workload}.spans")
            shutil.rmtree(dest, ignore_errors=True)
            os.replace(spans_dir, dest)

        reference = _reference(args.workload, args.smoke, args.seed)
        digests, errors = [], []
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                digests.append(None)
                errors.append(f"{op.label}: raised {result!r}")
                continue
            try:
                text, err = op.check(result)
            except Exception as e:
                text, err = "", f"{op.label}: check raised {e!r}"
            digests.append(_digest(text))
            if err is None and i < len(reference) and reference[i] != digests[-1]:
                err = f"{op.label}: output differs from the recorded reference"
            if err:
                errors.append(err)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for err in errors[:10]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "latencies": latencies,
                      "attempted": len(ops), "failed": len(errors), "digests": digests,
                      "peak_rss_mib": peak_rss_mib, "layers": layers,
                      "startup_s": startup_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
