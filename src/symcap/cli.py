"""Command-line front end.

Domains are given as JSON, either inline (first non-space character "{")
or as a path to a file.  Rationals in any JSON field are "p/q" strings,
"p" strings, or plain integers.  The weights and paths subcommands take
the decomposition and the default path kind from the domain's family.

Exit codes: 0 success (an obstruction verdict is a successful run), 1
validation or input error, 2 a usage error reported by argparse.

All output is deterministic: a fixed domain, subcommand, and format yields
byte-identical bytes on every run.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
from fractions import Fraction

from . import capacities
from .capacities import capacity_sequence, ck
from .domains import Domain, domain_from_json
from .geometry import rational_str
from .obstructions import asymptotic_ratio, check_embedding
from .paths import max_concave, min_convex, path_to_json
from .weights import negative_weight_sequence, weight_expansion


def parse_domain_spec(text: str) -> Domain:
    try:
        return domain_from_json(json.loads(text))
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed domain JSON at line {e.lineno}, "
                         f"column {e.colno}: {e.msg}") from None
    except RecursionError:  # in the parser or in the parts of a union
        raise ValueError("domain spec is nested too deeply") from None


def _load_domain(arg: str) -> Domain:
    if arg.lstrip().startswith("{"):
        return parse_domain_spec(arg)
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read domain file {arg!r}: {e.strerror}") from None
    return parse_domain_spec(text)


_SIX_DIGITS = decimal.Context(prec=6)


def _decimal_str(v: Fraction) -> str:
    """v to 6 significant digits; outside a float's normal range, past its
    top or nonzero below its least normal value, where float(v) overflows
    or loses digits, v rounded to them exactly by decimal."""
    try:
        if not v or abs(v) >= sys.float_info.min:
            return f"{float(v):.6g}"
    except OverflowError:
        pass
    return f"{_SIX_DIGITS.divide(v.numerator, v.denominator).normalize():.6g}"


def _decimal(v: Fraction) -> float | None:
    """_decimal_str(v) as a float, printed next to the exact rational, or
    None (JSON null) outside a float's normal range."""
    d = float(_decimal_str(v))
    return None if math.isinf(d) or (v and abs(v) < sys.float_info.min) else d


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _print_results(results: list, fmt: str, single: bool) -> int:
    """Print capacity results as text lines, CSV rows under one header, or
    JSON: one object when `single`, else a list."""
    if fmt == "json":
        objs = [{"k": r.k, "c": rational_str(r.value), "decimal": _decimal(r.value),
                 "method": r.method, "witness": r.witness} for r in results]
        print(_dumps(objs[0] if single else objs))
    elif fmt == "csv":
        print("k,c,decimal,method")
        for r in results:
            print(f"{r.k},{rational_str(r.value)},{_decimal_str(r.value)},{r.method}")
    else:
        for r in results:
            print(f"c_{r.k} = {rational_str(r.value)}")
    return 0


def _cmd_capacity(args) -> int:
    return _print_results([ck(_load_domain(args.domain), args.k)], args.format, single=True)


def _cmd_sequence(args) -> int:
    results = capacity_sequence(_load_domain(args.domain), args.kmax)
    return _print_results(results, args.format, single=False)


def _cmd_obstruct(args) -> int:
    src = _load_domain(args.source)
    tgt = _load_domain(args.target)
    rep = check_embedding(src, tgt, args.kmax)
    if args.format == "json":
        print(_dumps({
            "verdict": rep.verdict,
            "first_k": rep.first_k,
            "c_source": None if rep.c_source is None else rational_str(rep.c_source),
            "c_target": None if rep.c_target is None else rational_str(rep.c_target),
            "k_max": rep.k_max,
            "volume_ok": rep.volume_ok,
            "table": [[k, rational_str(cs), rational_str(ct)]
                      for k, cs, ct in rep.table],
        }))
    elif args.format == "csv":
        print("k,c_source,c_target")
        for k, cs, ct in rep.table:
            print(f"{k},{rational_str(cs)},{rational_str(ct)}")
    else:
        print(f"{'k':>4}  {'c_source':>12}  {'c_target':>12}")
        for k, cs, ct in rep.table:
            mark = "  <-- violation" if rep.obstructed and k == rep.first_k else ""
            print(f"{k:>4}  {rational_str(cs):>12}  {rational_str(ct):>12}{mark}")
        if rep.obstructed:
            print(f"obstructed at k={rep.first_k}: "
                  f"{rational_str(rep.c_source)} > {rational_str(rep.c_target)}")
        else:
            print(f"no obstruction up to k={rep.k_max}")
        print(f"volume check (source <= target): {'ok' if rep.volume_ok else 'exceeded'}")
    return 0


def _cmd_weights(args) -> int:
    domain = _load_domain(args.domain)
    if domain.WEIGHTS == "expansion":
        head, ws = None, weight_expansion(domain)
    elif domain.WEIGHTS == "negative":
        dec = negative_weight_sequence(domain)
        head, ws = rational_str(dec.head), dec.negatives
    else:
        raise ValueError("weights apply to toric domains only")
    # both decompositions raise unless their volume identity holds
    print(_dumps({"head": head, "weights": [rational_str(w) for w in ws],
                  "volume_check": True}))
    return 0


def _cmd_asymptotics(args) -> int:
    domain = _load_domain(args.domain)
    rep = asymptotic_ratio(domain, args.k)
    mid = (rep.model_low + rep.model_high) / 2
    print(_dumps({
        "k": rep.k,
        "c": rational_str(rep.value),
        "decimal": _decimal(rep.value),
        "model_low": rational_str(rep.model_low),
        "model_high": rational_str(rep.model_high),
        "model_decimal": _decimal(mid),
        "residual_high": rational_str(rep.residual_high),
        "residual_decimal": _decimal(rep.residual_high),
    }))
    return 0


def _cmd_paths(args) -> int:
    domain = _load_domain(args.domain)
    kind = args.kind or domain.PATHS
    opt = (min_convex if kind == "convex" else max_concave)(domain, args.k)
    print(_dumps({
        "kind": kind,
        "k": args.k,
        "value": rational_str(opt.value),
        "decimal": _decimal(opt.value),
        "count": opt.count_constraint,
        "witness": path_to_json(opt.witness),
    }))
    return 0


def _nonneg(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcap",
        description="Exact capacity sequences of four-dimensional toric "
                    "domains, with embedding-obstruction reports.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_domain(p):
        p.add_argument("-d", "--domain", required=True,
                       help="domain spec: JSON file path or inline JSON")

    p = sub.add_parser("capacity", help="one capacity value c_k")
    add_domain(p)
    p.add_argument("-k", type=_nonneg, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("sequence", help="capacities c_0..c_kmax")
    add_domain(p)
    p.add_argument("--kmax", type=_nonneg, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("obstruct", help="embedding obstruction scan")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kmax", type=_nonneg, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("weights", help="ball decomposition of a toric domain")
    add_domain(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("asymptotics", help="compare c_k against 2*sqrt(vol*k)")
    add_domain(p)
    p.add_argument("-k", type=_nonneg, required=True)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("paths", help="optimal witness path for (domain, k)")
    add_domain(p)
    p.add_argument("-k", type=_nonneg, required=True)
    p.add_argument("--kind", choices=("convex", "concave"), default=None,
                   help="default: concave for concave toric domains, else convex")
    p.set_defaults(func=_cmd_paths)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir = os.environ.get("CAPACITY_CACHE_DIR")
    try:
        if cache_dir:
            capacities.load_disk_cache(cache_dir)
        code = args.func(args)
        if cache_dir and code == 0:
            try:
                capacities.save_disk_cache(cache_dir)
            except OSError as e:
                print(f"note: could not save capacity cache: {e}",
                      file=sys.stderr)
        return code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
