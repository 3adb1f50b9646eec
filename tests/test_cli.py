"""Command-line front end: parsing, formats, exit codes, cache persistence."""

import argparse
import decimal
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F

import pytest

import symcap.capacities as cap
import symcap.domains as dom
from cache_files import file_of, no_growth, opened_paths
from symcap.capacities import capacity_sequence
from symcap.cli import build_parser, main, parse_domain_spec
from symcap.obstructions import asymptotic_ratio

BALL1 = '{"type":"ball","a":"1"}'
E12 = '{"type":"ellipsoid","a":"1","b":"2"}'
SQUARE = '{"type":"polydisk","a":"1","b":"1"}'
TWO_BALLS = '{"type":"disjoint_union","parts":[{"type":"ball","a":"1"},{"type":"ball","a":"1"}]}'
PENT = '{"type":"convex_toric","vertices":[["0","0"],["2","0"],["2","1"],["1","2"],["0","2"]]}'
STAIR = '{"type":"concave_toric","vertices":[["0","0"],["3","0"],["1","1"],["0","3"]]}'
LONG_LEG = '{"type":"concave_toric","vertices":[[0,0],[1,0],[0,100]]}'
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_domain_spec_examples():
    assert parse_domain_spec(BALL1) == dom.ball(1)
    assert parse_domain_spec('{"type":"ellipsoid","a":"1","b":"3/2"}') == \
        dom.ellipsoid(1, F(3, 2))
    assert parse_domain_spec(TWO_BALLS) == dom.disjoint_union(dom.ball(1), dom.ball(1))


def test_parse_domain_spec_diagnostics():
    with pytest.raises(ValueError, match="line 1"):
        parse_domain_spec('{"type":"ball","a":}')
    with pytest.raises(ValueError, match="unknown domain type"):
        parse_domain_spec('{"type":"torus","a":"1"}')
    with pytest.raises(ValueError):
        parse_domain_spec('{"type":"ball","a":"0"}')


def test_capacity_text(capsys):
    rc, out, _ = _run(capsys, "capacity", "-d", BALL1, "-k", "3")
    assert rc == 0 and out == "c_3 = 2\n"


def test_capacity_json(capsys):
    rc, out, _ = _run(capsys, "capacity", "-d", BALL1, "-k", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"k": 3, "c": "2", "decimal": 2.0,
                               "method": "ball_formula", "witness": 2}


def test_capacity_reads_domain_from_file(tmp_path, capsys):
    f = tmp_path / "ball.json"
    f.write_text(BALL1)
    rc, out, _ = _run(capsys, "capacity", "-d", str(f), "-k", "3")
    assert rc == 0 and out == "c_3 = 2\n"


def test_sequence_csv(capsys):
    rc, out, _ = _run(capsys, "sequence", "-d", E12, "--kmax", "4", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,c,decimal,method"
    assert [l.split(",")[1] for l in lines[1:]] == ["0", "1", "2", "2", "3"]


def test_sequence_csv_and_json_agree(capsys):
    _, csv_out, _ = _run(capsys, "sequence", "-d", PENT, "--kmax", "6", "--format", "csv")
    _, json_out, _ = _run(capsys, "sequence", "-d", PENT, "--kmax", "6", "--format", "json")
    csv_pairs = [(int(r.split(",")[0]), r.split(",")[1])
                 for r in csv_out.strip().splitlines()[1:]]
    json_pairs = [(row["k"], row["c"]) for row in json.loads(json_out)]
    assert csv_pairs == json_pairs


def test_output_bytes_deterministic(capsys):
    runs = [_run(capsys, "sequence", "-d", E12, "--kmax", "8", "--format", "json")
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_weights_outputs(capsys):
    rc, out, _ = _run(capsys, "weights", "-d", E12)
    assert rc == 0
    assert json.loads(out) == {"head": None, "weights": ["1", "1"], "volume_check": True}
    rc, out, _ = _run(capsys, "weights", "-d", SQUARE)
    assert json.loads(out) == {"head": "2", "weights": ["1", "1"], "volume_check": True}
    rc, out, _ = _run(capsys, "weights", "-d", STAIR)
    assert json.loads(out) == {"head": None, "weights": ["2", "1", "1"],
                               "volume_check": True}


def test_weights_rejects_closed_domain(capsys):
    rc, _, err = _run(capsys, "weights", "-d", '{"type":"cp2","a":"1"}')
    assert rc == 1 and "error:" in err


def test_obstruct_table(capsys):
    rc, out, _ = _run(capsys, "obstruct", "--source", TWO_BALLS,
                      "--target", '{"type":"ball","a":"3/2"}', "--kmax", "10")
    assert rc == 0
    assert "<-- violation" in out
    assert "obstructed at k=2: 2 > 3/2" in out
    assert "volume check (source <= target): ok" in out


def test_obstruct_json(capsys):
    rc, out, _ = _run(capsys, "obstruct", "--source", BALL1, "--target", BALL1,
                      "--kmax", "3", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["verdict"] == "no_obstruction_up_to"
    assert rep["first_k"] is None and rep["k_max"] == 3
    assert rep["table"] == [[0, "0", "0"], [1, "1", "1"], [2, "1", "1"], [3, "2", "2"]]


def test_obstruct_csv_stops_at_violation(capsys):
    rc, out, _ = _run(capsys, "obstruct", "--source", '{"type":"ball","a":"2"}',
                      "--target", BALL1, "--kmax", "5", "--format", "csv")
    assert rc == 0
    assert out.strip().splitlines() == ["k,c_source,c_target", "0,0,0", "1,2,1"]


def test_asymptotics_json(capsys):
    rc, out, _ = _run(capsys, "asymptotics", "-d", BALL1, "-k", "5150")
    assert rc == 0
    rep = json.loads(out)
    assert rep["c"] == "100"
    assert rep["model_decimal"] == pytest.approx(101.489, abs=1e-3)
    assert rep["residual_decimal"] < 2


def test_paths_convex_witness(capsys):
    rc, out, _ = _run(capsys, "paths", "-d", PENT, "-k", "2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["kind"] == "convex" and rep["value"] == "3" and rep["count"] == 3
    assert rep["witness"] == {"start": [0, 1], "edges": [[1, -1]]}


def test_paths_concave_default_for_concave_domain(capsys):
    rc, out, _ = _run(capsys, "paths", "-d", STAIR, "-k", "2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["kind"] == "concave" and rep["count"] == 2


def test_exit_code_1_on_bad_input(capsys):
    rc, _, err = _run(capsys, "capacity", "-d", '{"type":"ball","a":}', "-k", "1")
    assert rc == 1 and "line 1" in err
    rc, _, err = _run(capsys, "capacity", "-d", '{"type":"ball","a":1.5}', "-k", "1")
    assert rc == 1 and "error:" in err
    rc, _, err = _run(capsys, "capacity", "-d", "/nonexistent/d.json", "-k", "1")
    assert rc == 1


def _toric(family, *vertices):
    return json.dumps({"type": family, "vertices": [[str(x), str(y)] for x, y in vertices]})


def _capacity(spec):
    return ("capacity", "-d", spec, "-k", "1")


# each polygon the constructors reject, each path search asked of a domain
# of the wrong kind, a size given as JSON true or in exponent notation, and
# a bad union part, with the one stderr line it gets
VALIDATION_ERRORS = {
    "reversal": (_capacity(_toric("convex_toric", (0, 0), (2, 0), (1, 0), (1, 2))),
                 "error: degenerate polygon: reversal at vertex (Fraction(2, 1), Fraction(0, 1))"),
    "zero_area": (_capacity(_toric("convex_toric", (0, 0), (1, 1), (1, 0), (0, 1))),
                  "error: moment polygon has zero area"),
    "off_quadrant": (_capacity(_toric("convex_toric", (0, 0), (2, 0), ("-1/2", 2))),
                     "error: moment polygon vertex (-1/2,2) leaves the nonnegative quadrant"),
    "no_origin": (_capacity(_toric("concave_toric", (1, 0), (2, 0), (0, 2))),
                  "error: moment polygon must have the origin as a vertex"),
    "not_convex_toric": (_capacity(_toric("convex_toric", (0, 0), (3, 0), (1, 1), (0, 3))),
                         "error: polygon is not convex toric (axis reflection is not convex)"),
    "not_concave_toric": (_capacity(_toric("concave_toric",
                                           (0, 0), (2, 0), (2, 1), (1, 2), (0, 2))),
                          "error: polygon is not concave toric "
                          "(quadrant complement is not convex)"),
    "convex_paths_of_staircase": (
        ("paths", "--kind", "convex", "-d", STAIR, "-k", "2"),
        "error: domain is not convex toric: ConcaveToric(omega=Polygon(vertices=("
        "(Fraction(0, 1), Fraction(0, 1)), (Fraction(3, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(3, 1)))))"),
    "concave_paths_of_polydisk": (
        ("paths", "--kind", "concave", "-d", SQUARE, "-k", "2"),
        "error: domain is not concave toric: Polydisk(a=Fraction(1, 1), b=Fraction(1, 1))"),
    "json_true_size": (
        ("sequence", "-d", '{"type":"ball","a":true}', "--kmax", "3"),
        "error: expected an exact rational (int, 'p/q' string, or Fraction), got bool"),
    "exponent_size": (_capacity('{"type":"ball","a":"1e1000000"}'),
                      "error: not a rational: '1e1000000'"),
    "bad_vertex": (_capacity('{"type":"convex_toric","vertices":[[0,0],[1],[0,1]]}'),
                   "error: field 'vertices': bad point [1]"),
    "empty_union": (_capacity('{"type":"disjoint_union","parts":[]}'),
                    "error: field 'parts': need a nonempty list"),
    "union_part_size": (
        _capacity('{"type":"disjoint_union","parts":[{"type":"ball","a":"1"},'
                  '{"type":"ball","a":"0"}]}'),
        "error: field 'parts[1]': field 'a': must be positive, got 0"),
    "union_part_not_object": (
        _capacity('{"type":"disjoint_union","parts":[5]}'),
        "error: field 'parts[0]': domain spec must be a JSON object"),
    "union_part_closed": (
        _capacity('{"type":"disjoint_union","parts":[{"type":"ball","a":"1"},'
                  '{"type":"cp2","a":"1"}]}'),
        "error: field 'parts[1]': closed manifolds cannot be parts of a disjoint union"),
    # too deep for the parts' recursion, and for the JSON parser itself
    "nested_unions": (
        _capacity('{"type":"disjoint_union","parts":[' * 400 + BALL1 + ']}' * 400),
        "error: domain spec is nested too deeply"),
    "nested_json": (_capacity('{"type":' + '[' * 100000 + ']' * 100000 + '}'),
                    "error: domain spec is nested too deeply"),
}


@pytest.mark.parametrize("case", VALIDATION_ERRORS)
def test_validation_errors_exit_1_with_one_line(capsys, case):
    argv, line = VALIDATION_ERRORS[case]
    assert _run(capsys, *argv) == (1, "", line + "\n")


def test_exit_code_2_only_on_usage_errors(capsys):
    # no value rests on a cut-off, so symcap itself never exits 2
    for argv in (["capacity", "-d", SQUARE],
                 ["sequence", "-d", SQUARE, "--kmax", "-1"],
                 ["weights", "-d", E12, "--cap", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "usage:" in capsys.readouterr().err


def test_long_weight_expansion(capsys):
    # E(1,100) expands into 100 unit balls, one peeling step each
    rc, out, err = _run(capsys, "weights", "-d", LONG_LEG)
    assert rc == 0 and err == ""
    assert json.loads(out) == {"head": None, "weights": ["1"] * 100, "volume_check": True}
    rc, out, _ = _run(capsys, "capacity", "-d", LONG_LEG, "-k", "3")
    assert rc == 0 and out == "c_3 = 3\n"


# the bytes of `capacity -k 1000000 --format json`, recorded from the
# spectrum heap and the block walk, which grew c_0..c_k to answer k
LARGE_K = {
    BALL1: '{"k":1000000,"c":"1413","decimal":1413.0,"method":"ball_formula","witness":1413}',
    '{"type":"ellipsoid","a":"1","b":"3/2"}':
        '{"k":1000000,"c":"1731","decimal":1731.0,"method":"ellipsoid_spectrum",'
        '"witness":[177,1036]}',
    '{"type":"polydisk","a":"1","b":"3/2"}':
        '{"k":1000000,"c":"2447","decimal":2447.0,"method":"polydisk_formula",'
        '"witness":[1223,816]}',
    '{"type":"cp2","a":"1"}':
        '{"k":1000000,"c":"1413","decimal":1413.0,"method":"cp2","witness":1413}',
    '{"type":"s2xs2","a":"1","b":"3/2"}':
        '{"k":1000000,"c":"2447","decimal":2447.0,"method":"s2xs2","witness":[1223,816]}',
}


@pytest.mark.parametrize("spec", LARGE_K, ids=lambda spec: json.loads(spec)["type"])
def test_closed_form_at_large_k(capsys, spec):
    cap.clear_memo()
    assert _run(capsys, "capacity", "-d", spec, "-k", "1000000", "--format", "json") == (
        0, LARGE_K[spec] + "\n", "")


def test_asymptotics_of_an_ellipsoid_at_k_10_12(capsys):
    # c_k = 3464099/2 from a plain per-m lattice count and bisection
    cap.clear_memo()
    assert _run(capsys, "asymptotics", "-d", '{"type":"ellipsoid","a":"1","b":"3/2"}',
                "-k", "1000000000000") == (0, (
                    '{"k":1000000000000,"c":"3464099/2","decimal":1732050.0,'
                    '"model_low":"433012701892219/250000000",'
                    '"model_high":"866025403784439/500000000","model_decimal":1732050.0,'
                    '"residual_high":"653784439/500000000000",'
                    '"residual_decimal":0.00130757}\n'), "")


# balls whose capacities no float can hold: 10^400 and 2*10^400/3
HUGE = "1" + "0" * 400
HUGE_BALL = '{"type":"ball","a":"%s"}' % HUGE
THIRDS_BALL = '{"type":"ball","a":"2%s/3"}' % HUGE[1:]


def test_values_past_a_float_print_exactly(capsys):
    # the exact c is printed; JSON writes null for a decimal no float
    # holds, and CSV the exact value to 6 significant digits
    cap.clear_memo()
    assert _run(capsys, "capacity", "-d", HUGE_BALL, "-k", "1", "--format", "json") == (
        0, '{"k":1,"c":"%s","decimal":null,"method":"ball_formula","witness":1}\n' % HUGE, "")
    rc, out, err = _run(capsys, "sequence", "-d", HUGE_BALL, "--kmax", "3", "--format", "json")
    assert (rc, err) == (0, "")
    assert [(r["c"], r["decimal"]) for r in json.loads(out)] == [
        ("0", 0.0), (HUGE, None), (HUGE, None), ("2" + HUGE[1:], None)]
    assert _run(capsys, "sequence", "-d", THIRDS_BALL, "--kmax", "3", "--format", "csv") == (
        0, "k,c,decimal,method\n0,0,0,ball_formula\n"
           f"1,2{HUGE[1:]}/3,6.66667e+399,ball_formula\n"
           f"2,2{HUGE[1:]}/3,6.66667e+399,ball_formula\n"
           f"3,4{HUGE[1:]}/3,1.33333e+400,ball_formula\n", "")
    rc, out, err = _run(capsys, "asymptotics", "-d", HUGE_BALL, "-k", "3")
    rep = json.loads(out)
    assert (rc, err, rep["c"]) == (0, "", "2" + HUGE[1:])
    assert (rep["decimal"], rep["model_decimal"], rep["residual_decimal"]) == (None, None, None)


@pytest.mark.parametrize("zeros, csv", [(400, "1e-400"), (320, "1e-320")])
def test_values_below_a_normal_float_print_exactly(capsys, zeros, csv):
    # 10^-400 underflows a float to 0 and 10^-320 to a subnormal with five
    # digits (9.99989e-321): JSON writes null, CSV the exact value rounded
    cap.clear_memo()
    tiny = "1/1" + "0" * zeros
    spec = '{"type":"ball","a":"%s"}' % tiny
    assert _run(capsys, "capacity", "-d", spec, "-k", "1", "--format", "json") == (
        0, '{"k":1,"c":"%s","decimal":null,"method":"ball_formula","witness":1}\n' % tiny, "")
    assert _run(capsys, "capacity", "-d", spec, "-k", "1", "--format", "csv") == (
        0, f"k,c,decimal,method\n1,{tiny},{csv},ball_formula\n", "")


# sizes whose capacities pass the 4300 digits Python converts from int to
# str: model_low of the ball has 4300 digits and residual_high 4308, and
# c_2 of the union has a denominator of 6001
VAST = "1" + "0" * 4290
Q1, Q2 = 10 ** 3000 + 1, 10 ** 3000 + 3


def _vast(text: str) -> F:
    """The rational text names, read through decimal, which has no digit
    limit."""
    num, _, den = text.partition("/")
    return F(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))


def test_values_past_the_int_digit_limit_print_exactly(capsys):
    cap.clear_memo()
    rc, out, err = _run(capsys, "asymptotics", "-d", '{"type":"ball","a":"%s"}' % VAST, "-k", "3")
    rep = json.loads(out)
    assert (rc, err, rep["c"]) == (0, "", "2" + VAST[1:])
    assert (rep["decimal"], rep["model_decimal"], rep["residual_decimal"]) == (None, None, None)
    want = asymptotic_ratio(dom.ball(int(VAST)), 3)
    assert (_vast(rep["model_low"]), _vast(rep["residual_high"])) == (
        want.model_low, want.residual_high)
    assert len(rep["residual_high"].partition("/")[0]) == 4308
    union = ('{"type":"disjoint_union","parts":[{"type":"ball","a":"%d/%d"},'
             '{"type":"ball","a":"%d/%d"}]}' % (Q1 + 1, Q1, Q2 + 1, Q2))
    rc, out, err = _run(capsys, "capacity", "-d", union, "-k", "2", "--format", "json")
    got = json.loads(out)
    assert (rc, err, got["decimal"]) == (0, "", 2.0)
    assert _vast(got["c"]) == F(Q1 + 1, Q1) + F(Q2 + 1, Q2)
    assert len(got["c"].partition("/")[2]) == 6001
    # a spec past the limit is still refused
    rc, out, err = _run(capsys, "capacity", "-d", '{"type":"ball","a":"%s"}' % ("1" * 4301), "-k", "1")
    assert (rc, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1


def test_readme_flag_table_matches_parser():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", fh.read(), re.M)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(name for name, _ in rows) == sorted(subparsers)
    for name, cell in rows:
        flags = {code.split()[0] for code in re.findall(r"`([^`]+)`", cell)}
        options = [a.option_strings for a in subparsers[name]._actions
                   if a.option_strings and "-h" not in a.option_strings]
        known = {s for strings in options for s in strings}
        assert flags <= known, (name, flags - known)
        assert all(flags & set(strings) for strings in options), name


def _readme_blocks() -> list:
    """The bodies of README.md's fenced code blocks, as (language, body)."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(r"^```(\w*)\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_cli_examples_print_what_readme_shows(capsys, monkeypatch):
    # each `$ symcap ...` line, a trailing backslash continuing it, is run
    # through main; its stdout must be the lines below it, byte for byte
    monkeypatch.delenv("CAPACITY_CACHE_DIR", raising=False)
    examples = [example.replace("\\\n", "")
                for _, body in _readme_blocks()
                for example in re.split(r"^\$ ", body, flags=re.M)[1:]]
    assert len(examples) == 5
    for example in examples:
        command, _, shown = example.partition("\n")
        argv = shlex.split(command)
        assert argv[0] == "symcap", command
        cap.clear_memo()
        assert _run(capsys, *argv[1:]) == (0, shown.rstrip("\n") + "\n", ""), command


def test_readme_quickstart_values():
    # the quickstart runs line by line, and each expression equals the
    # value its comment shows, on its line or on the comment line below
    (body,) = [body for lang, body in _readme_blocks() if lang == "python"]
    ns: dict = {}
    checked, last = 0, None
    cap.clear_memo()
    for line in body.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            try:
                last = eval(compile(code.strip(), "README", "eval"), ns)
            except SyntaxError:
                exec(code.strip(), ns)
                last = None
        if comment.strip() and last is not None:
            assert last == eval(comment.split("--")[0], ns), line
            checked, last = checked + 1, None
    assert checked == 3


def test_round_trip_all_domain_kinds():
    specs = [BALL1, E12, SQUARE, TWO_BALLS, PENT, STAIR,
             '{"type":"cp2","a":"1"}', '{"type":"s2xs2","a":"1","b":"2"}']
    for text in specs:
        d = parse_domain_spec(text)
        assert parse_domain_spec(json.dumps(d.to_json())) == d


def _files(cache_dir) -> dict:
    return {p.name: p.read_bytes() for p in cache_dir.iterdir()}


def test_cache_dir_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(tmp_path))
    cap.clear_memo()
    first = _run(capsys, "sequence", "-d", TWO_BALLS, "--kmax", "6", "--format", "json")
    cache = file_of(tmp_path, parse_domain_spec(TWO_BALLS))
    assert [p.name for p in tmp_path.iterdir()] == [cache.name]  # its ball parts get none
    blob = cache.read_bytes()
    cap.clear_memo()
    second = _run(capsys, "sequence", "-d", TWO_BALLS, "--kmax", "6", "--format", "json")
    assert first == second
    assert cache.read_bytes() == blob
    payload = json.loads(blob)
    assert payload["version"] == cap._FORMAT and payload["key"] == parse_domain_spec(TWO_BALLS).key
    assert len(payload["entries"]) == 7


def test_cache_disabled_without_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CAPACITY_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    _run(capsys, "capacity", "-d", BALL1, "-k", "2")
    assert list(tmp_path.iterdir()) == []


def test_warm_runs_compute_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(tmp_path))
    runs = [("obstruct", "--source", TWO_BALLS, "--target", E12, "--kmax", "12",
             "--format", "json"),
            ("sequence", "-d", TWO_BALLS, "--kmax", "15", "--format", "json")]
    cold = []
    for argv in runs:
        cap.clear_memo()
        cold.append(_run(capsys, *argv))
    # no prefix grows but the closed forms', which get no cache file
    no_growth(monkeypatch)
    for argv, want in zip(runs, cold):
        cap.clear_memo()
        assert _run(capsys, *argv) == want
    assert all(rc == 0 for rc, _, _ in cold)


def test_warm_obstruct_opens_only_the_files_of_its_domains(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(tmp_path))
    cap.clear_memo()
    for i in range(200):
        capacity_sequence(dom.disjoint_union(dom.ball(1), dom.ball(F(2 * i + 3, 2))), 3)
    cap.save_disk_cache(str(tmp_path))
    argv = ("obstruct", "--source", TWO_BALLS, "--target", STAIR, "--kmax", "12",
            "--format", "json")
    cap.clear_memo()
    cold = _run(capsys, *argv)
    assert len(list(tmp_path.iterdir())) == 202
    opened = opened_paths(monkeypatch)
    cap.clear_memo()
    assert _run(capsys, *argv) == cold
    # read when its source is made, and again by the save
    assert sorted(opened) == sorted(2 * [str(file_of(tmp_path, parse_domain_spec(spec)))
                                         for spec in (TWO_BALLS, STAIR)])


def test_cache_session_matches_one_process(tmp_path, monkeypatch, capsys):
    runs = [("obstruct", "--source", TWO_BALLS, "--target", f'{{"type":"ball","a":"{a}"}}',
             "--kmax", "20", "--format", "json") for a in ("3/2", "2", "5/2", "3")]
    runs.append(("sequence", "-d", TWO_BALLS, "--kmax", "25", "--format", "json"))
    runs.append(("obstruct", "--source", E12, "--target", TWO_BALLS, "--kmax", "10"))
    session = tmp_path / "session"
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(session))
    for argv in runs:
        cap.clear_memo()
        assert _run(capsys, *argv)[0] == 0
    monkeypatch.delenv("CAPACITY_CACHE_DIR")
    cap.clear_memo()
    for argv in runs:
        _run(capsys, *argv)
    cap.save_disk_cache(str(tmp_path / "once"))
    assert _files(session) == _files(tmp_path / "once")


@pytest.mark.parametrize("corrupt", ["bad_value", "missing_value", "zero_value"])
def test_malformed_cache_entry_is_recomputed(tmp_path, monkeypatch, capsys, corrupt):
    # one malformed entry makes the whole file a silent miss: every k is
    # computed afresh, and the save leaves a valid file
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(tmp_path))
    argv = ("sequence", "-d", STAIR, "--kmax", "8", "--format", "json")
    cap.clear_memo()
    cold = _run(capsys, *argv)
    cache = file_of(tmp_path, parse_domain_spec(STAIR))
    blob = cache.read_bytes()
    payload = json.loads(blob)
    if corrupt == "bad_value":
        payload["entries"][4]["c"] = "three"
    elif corrupt == "zero_value":  # well formed, but c_4 = 0 breaks the invariant
        payload["entries"][4]["c"] = "0"
    else:
        del payload["entries"][4]["c"]
    cache.write_text(json.dumps(payload))
    grown = []
    grow = cap._ConcavePrefix._grow
    monkeypatch.setattr(cap._ConcavePrefix, "_grow",
                        lambda self, k: grown.append(len(self.results)) or grow(self, k))
    cap.clear_memo()
    assert _run(capsys, *argv) == (0, cold[1], "")
    assert grown == [0]  # from c_0, nothing read from the file
    assert cache.read_bytes() == blob


def test_unwritable_cache_dir_keeps_the_output(tmp_path, monkeypatch, capsys):
    # a cache "directory" that is a file: every read misses, the save fails
    # with one line on stderr, and the run still succeeds
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ("sequence", "-d", TWO_BALLS, "--kmax", "6", "--format", "json")
    monkeypatch.delenv("CAPACITY_CACHE_DIR", raising=False)
    cap.clear_memo()
    cold = _run(capsys, *argv)[1]
    monkeypatch.setenv("CAPACITY_CACHE_DIR", str(blocker))
    cap.clear_memo()
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (0, cold)
    assert err.startswith("note: could not save capacity cache: ") and err.count("\n") == 1


def test_startup_does_not_import_dataclasses():
    # each CLI call pays for every module symcap.cli loads; dataclasses
    # alone brought inspect, ast, dis and tokenize along, and hashlib loads
    # OpenSSL
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, symcap.cli; print([m in sys.modules for m in ('dataclasses', 'hashlib')])"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[False, False]\n"
