"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qnmlattice import (catalog, cli, normalform, potentials, pseudospectrum,
                        scaling, series)
from qnmlattice.cli import main


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    text = path.read_text() if path.exists() else None
    return code, text


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config ")
    cfg = json.loads(lines[0][len("# config "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return cfg, header, rows


# ---------------------------------------------------------------------------
# potential


def test_potential_table(tmp_path):
    code, text = run_to_file(tmp_path, [
        "potential", "--x-min", "1", "--x-max", "5", "--x-points", "5"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["x", "W0", "W1"]
    assert len(rows) == 5
    # x = 3 is the Schwarzschild barrier top: W0 = E0 = 1/27
    row3 = rows[2]
    assert float(row3[0]) == 3.0
    assert abs(float(row3[1]) - 1.0 / 27.0) <= 1e-12


def test_potential_empty_grid(tmp_path):
    code, text = run_to_file(tmp_path, ["potential", "--x-points", "0"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["x", "W0", "W1"]
    assert rows == []


def test_potential_json_format(tmp_path):
    code, text = run_to_file(tmp_path, [
        "potential", "--x-points", "3", "--x-min", "2.5", "--x-max", "3.5",
        "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["x_points"] == 3
    assert len(doc["data"]) == 3
    assert abs(doc["data"][1][1] - 1.0 / 27.0) <= 1e-12


# ---------------------------------------------------------------------------
# gsymbol


def test_gsymbol_leading_coefficient(tmp_path):
    code, text = run_to_file(tmp_path, ["gsymbol"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["h_power", "x_power", "re", "im"]
    first = rows[0]
    assert first[0] == "0" and first[1] == "0"
    assert abs(float(first[2]) - 1.0 / (3.0 * math.sqrt(3.0))) <= 1e-12
    assert abs(float(first[3])) <= 1e-14


def test_gsymbol_h_order_zero(tmp_path):
    code, text = run_to_file(tmp_path, ["gsymbol", "--h-order", "0"])
    assert code == 0
    _, _, rows = parse_csv(text)
    assert all(r[0] == "0" for r in rows)


def test_gsymbol_json_coefficients_are_float_pairs(tmp_path):
    # structurally zero coefficients are written as 0.0 like the others
    for argv in ([], ["--series-degree", "16", "--lam", "0.02"]):
        code, text = run_to_file(tmp_path, ["gsymbol", "--format", "json"]
                                 + argv)
        assert code == 0
        levels = json.loads(text)["data"]
        assert sorted(levels) == ["0", "1", "2"]
        for lvl in levels.values():
            for pair in lvl:
                assert len(pair) == 2
                assert all(type(v) is float for v in pair), pair


def test_gsymbol_odd_series_degree(tmp_path):
    # the odd degree resolves the same coefficients as the even one below
    code, text = run_to_file(tmp_path, ["gsymbol", "--series-degree", "11"])
    assert code == 0
    code10, text10 = run_to_file(tmp_path, ["gsymbol"], name="ten.txt")
    assert code10 == 0
    assert parse_csv(text)[2] == parse_csv(text10)[2]


def test_gsymbol_large_mass(tmp_path):
    code, text = run_to_file(tmp_path, ["gsymbol", "--m", "1000"])
    assert code == 0
    _, _, rows = parse_csv(text)
    assert abs(float(rows[0][2]) - 1.0 / (3000.0 * math.sqrt(3.0))) \
        <= 1e-12 / 1000.0


def test_gsymbol_small_mass(tmp_path):
    # the critical-point check on V'(0) scales with the mass like V'(0)
    code, text = run_to_file(tmp_path, ["gsymbol", "--m", "1e-8"])
    assert code == 0
    _, _, rows = parse_csv(text)
    assert abs(float(rows[0][2]) - 1e8 / (3.0 * math.sqrt(3.0))) \
        <= 1e-12 * 1e8


# ---------------------------------------------------------------------------
# lattice and direct


def test_lattice_output(tmp_path):
    code, text = run_to_file(tmp_path, [
        "lattice", "--ell-range", "1", "4", "--n-max", "2"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["ell", "n", "re_lambda", "im_lambda", "multiplicity"]
    keys = {(r[0], r[1]) for r in rows}
    assert ("1", "0") in keys and ("4", "2") in keys
    for r in rows:
        assert int(r[4]) == 2 * int(r[0]) + 1
        assert float(r[3]) < 0  # all modes decay


def test_direct_vs_lattice_join(tmp_path):
    # n = 0 frequencies from the two independent pipelines agree closely
    # at moderate angular momentum
    code_l, text_l = run_to_file(tmp_path, [
        "lattice", "--ell-range", "8", "8", "--n-max", "0"], "lat.csv")
    code_d, text_d = run_to_file(tmp_path, [
        "direct", "--ell-range", "8", "8", "--n-max", "0",
        "--basis-size", "160"], "dir.csv")
    assert code_l == 0 and code_d == 0
    _, _, rows_l = parse_csv(text_l)
    _, _, rows_d = parse_csv(text_d)
    lam_l = complex(float(rows_l[0][2]), float(rows_l[0][3]))
    lam_d = complex(float(rows_d[0][2]), float(rows_d[0][3]))
    assert abs(lam_l - lam_d) <= 1e-3 * abs(lam_d)


def test_direct_keeps_the_ells_that_keep_a_mode(tmp_path, capsys):
    # at all defaults (l = 1..4, N = 151) only l = 4 keeps a mode: the
    # others print no row and are named on stderr, one line each
    code, text = run_to_file(tmp_path, ["direct"])
    assert code == 0
    _, _, rows = parse_csv(text)
    assert [r[:2] for r in rows] == [["4", "0"]]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["ell 1", "ell 2", "ell 3"]
    assert all("no eigenvalues in the spectral window" in line
               for line in err)
    # de Sitter: l = 2, 3 keep nothing, l = 4 its least-damped mode, whose
    # last digits follow the BLAS thread count (these are one thread's);
    # the JSON lists every l, with an empty mode list where none is kept
    argv = ["direct", "--ell-range", "2", "4", "--lam", "0.02"]
    code, text = run_to_file(tmp_path, argv)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert [r[:2] for r in rows] == [["4", "0"]]
    lam = complex(float(rows[0][2]), float(rows[0][3]))
    want = complex(0.78354203811302225, -0.087585672791712851)
    assert abs(lam - want) <= 1e-13 * abs(want)
    code, text = run_to_file(tmp_path, argv + ["--format", "json"])
    assert code == 0
    data = json.loads(text)["data"]
    assert [(b["ell"], len(b["qnm"]), b["theta"]) for b in data] == \
        [(2, 0, 0.3), (3, 0, 0.3), (4, 1, 0.3)]
    # up to the cap theta = 1.2 every l keeps its least-damped mode, here
    # with a small basis (within 1e-8 of Leaver's at l = 1)
    code, text = run_to_file(tmp_path, [
        "direct", "--theta", "1.0", "--basis-size", "60", "--ell-range", "1",
        "4"])
    assert code == 0
    _, _, rows = parse_csv(text)
    assert [r[:2] for r in rows if r[1] == "0"] == \
        [[str(ell), "0"] for ell in range(1, 5)]
    lam = complex(float(rows[0][2]), float(rows[0][3]))
    want = complex(0.29293613627511, -0.09765998746640)
    assert abs(lam - want) <= 1e-12 * abs(want)
    # when no l keeps a mode the first failure is the command's
    capsys.readouterr()
    code, text = run_to_file(tmp_path, ["direct", "--ell-range", "1", "3"],
                             "none.csv")
    assert code == 3 and text is None
    assert capsys.readouterr().err.startswith(
        "numerical failure: no eigenvalues in the spectral window "
        "(candidates left after the window and drift filters: ")


# ---------------------------------------------------------------------------
# count and pseudo


def test_count_rows(tmp_path):
    code, text = run_to_file(tmp_path, [
        "count", "--r-list", "20", "40", "60"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["r", "count", "c_r3", "ratio", "coverage_gaps"]
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r[3]) - 1.0) < 0.1
        assert r[4] == "0"


def test_count_refuses_a_symbol_it_cannot_bisect(tmp_path, monkeypatch,
                                                 capsys):
    # |lam| decreases in n inside the wedge (see test_catalog.py)
    G = series.HGraded(
        {0: series.Series1([1.0, -0.1 - 0.01j, 0.0, 1e-7], 3)}, 0)
    monkeypatch.setattr(cli, "_symbol", lambda cfg, p: G)
    code, text = run_to_file(tmp_path, ["count", "--t", "0.1",
                                        "--r-list", "1", "3"])
    assert code == 3 and text is None
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: |lambda| decreases in n "
                          "inside the wedge at ell = ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_count_json_note(tmp_path):
    code, text = run_to_file(tmp_path, [
        "count", "--r-list", "20", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert "lower-bound" in doc["data"]["note"]


def test_pseudo_output(tmp_path):
    code, text = run_to_file(tmp_path, ["pseudo"])
    assert code == 0
    cfg, header, rows = parse_csv(text)
    assert header == ["n", "re_exact", "im_exact", "re_num", "im_num", "dist"]
    assert len(rows) == 151
    # low modes match; the reported exact values lie on the pi/4 ray
    assert float(rows[0][5]) <= 1e-8
    assert abs(float(rows[3][1]) - float(rows[3][2])) <= 1e-12


# ---------------------------------------------------------------------------
# configuration handling


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"x_points": 3, "x_min": 2.0,
                                    "x_max": 4.0}))
    code, text = run_to_file(tmp_path, [
        "potential", "--config", str(cfg_path), "--x-points", "7"])
    assert code == 0
    cfg, _, rows = parse_csv(text)
    assert cfg["x_points"] == 7       # flag wins
    assert cfg["x_min"] == 2.0        # file wins over default
    assert len(rows) == 7


def test_embedded_config_reproduces_run(tmp_path):
    code, text = run_to_file(tmp_path, [
        "potential", "--x-points", "4", "--x-min", "2.0", "--x-max", "4.0"])
    assert code == 0
    cfg, _, _ = parse_csv(text)
    cfg_path = tmp_path / "replay.json"
    replay_cfg = {k: v for k, v in cfg.items() if k != "output_path"}
    cfg_path.write_text(json.dumps(replay_cfg))
    code2, text2 = run_to_file(tmp_path, [
        "potential", "--config", str(cfg_path)], "replay.csv")
    assert code2 == 0
    # identical except for the embedded output path
    strip = [line for line in text.splitlines()[1:]]
    strip2 = [line for line in text2.splitlines()[1:]]
    assert strip == strip2


def test_determinism_byte_identical(tmp_path):
    # rerun into the same file so the embedded config (which includes the
    # output path) is identical between runs
    args = ["lattice", "--ell-range", "1", "3", "--n-max", "2"]
    _, a = run_to_file(tmp_path, args, "a.csv")
    _, b = run_to_file(tmp_path, args, "a.csv")
    assert a == b
    args2 = ["direct", "--ell-range", "6", "6", "--n-max", "0",
             "--basis-size", "120"]
    _, c = run_to_file(tmp_path, args2, "c.csv")
    _, d = run_to_file(tmp_path, args2, "c.csv")
    assert c == d


README_COMMANDS = [
    ["potential", "--m", "1", "--lam", "0", "--x-min", "-20", "--x-max",
     "40", "--x-points", "121"],
    ["gsymbol", "--series-degree", "10", "--h-order", "2"],
    ["lattice", "--ell-range", "1", "4", "--n-max", "4"],
    ["count", "--t", "0.05", "--r-list", "50", "100", "200"],
    ["direct", "--ell-range", "4", "16", "--theta", "0.3", "--basis-size",
     "160"],
    ["pseudo", "--basis-size", "151", "--pseudo-h", "0.05"],
]


def dumps_doc(cfg, payload):
    return json.dumps({"config": cfg, "data": payload}, sort_keys=True,
                      indent=1) + "\n"


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_json_doc_matches_json_dumps_on_readme_outputs(tmp_path, monkeypatch,
                                                       argv):
    # the JSON format: json.dumps(sort_keys=True, indent=1), byte for
    # byte, of the payload of each README command
    docs = []
    json_doc = cli.json_doc

    def record(cfg, payload):
        docs.append(dumps_doc(cfg, payload))
        return json_doc(cfg, payload)

    monkeypatch.setattr(cli, "json_doc", record)
    code, text = run_to_file(tmp_path, argv + ["--format", "json"])
    assert code == 0
    assert docs == [text]


def test_bad_config_exits_2(tmp_path):
    assert main(["lattice", "--t", "0.5"]) == 2
    assert main(["lattice", "--m", "-1"]) == 2
    assert main(["gsymbol", "--h-order", "3"]) == 2
    assert main(["count", "--r-list", "0.5", "2"]) == 2
    assert main(["gsymbol", "--series-degree", "5"]) == 2
    # a near-extremal lambda leaves no barrier to expand about
    assert main(["gsymbol", "--lam", "0.11111"]) == 2
    assert main(["direct", "--lam", "0.11111", "--ell-range", "4", "4"]) == 2
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"no_such_key": 1}))
    assert main(["lattice", "--config", str(cfg_path)]) == 2
    cfg_path.write_text("{not json")
    assert main(["lattice", "--config", str(cfg_path)]) == 2
    # values of the wrong type or shape
    for bad in ({"ell_range": [1]}, {"ell_range": 5}, {"theta": "a"},
                {"r_list": "ab"}):
        cfg_path.write_text(json.dumps(bad))
        assert main(["count", "--config", str(cfg_path)]) == 2, bad
    # a basis whose matrices eigensolve refuses: direct solves only the
    # basis_size block, but its build of basis_size + 40 rows must stay
    # within the 2000 rows, so its limit is 1960
    assert main(["direct", "--basis-size", "2001", "--ell-range", "4", "4"]) \
        == 2
    assert main(["direct", "--basis-size", "1961", "--ell-range", "4", "4"]) \
        == 2
    assert main(["pseudo", "--basis-size", "2001"]) == 2
    # values that are not finite
    for argv in (["potential", "--lam", "nan"], ["potential", "--m", "nan"],
                 ["potential", "--m", "inf"], ["lattice", "--m", "nan"],
                 ["pseudo", "--pseudo-h", "nan"],
                 ["pseudo", "--pseudo-h", "inf"],
                 ["count", "--r-list", "1", "nan"]):
        assert main(argv) == 2, argv
    # the scaling angle's cap
    assert main(["direct", "--theta", "1.21", "--ell-range", "4", "4"]) == 2
    # extreme masses: E0 = 1/(27 m^2) divides by an m^2 that underflows,
    # and the count walk's ell range grows as r m
    for argv in (["gsymbol", "--m", "1e-300"], ["count", "--m", "1e8"],
                 ["count", "--m", "1e40"]):
        assert main(argv) == 2, argv
    # a radius whose r / |G(0)| rounds past MAX_ELL - 2 while
    # (MAX_ELL - 2) |G(0)| rounds to r: refused by the count's own rule
    assert main(["count", "--m", "207", "--r-list", "557.82448762196"]) == 2
    # a config file that is valid JSON but not an object
    for doc in ("5", "null", '[["m", 2]]'):
        cfg_path.write_text(doc)
        assert main(["lattice", "--config", str(cfg_path)]) == 2, doc


# every config key's flag at the parent of the schema change: name, type
# and nargs
FLAGS = {
    "m": ("--m", float, None),
    "lambda": ("--lam", float, None),
    "theta": ("--theta", float, None),
    "ell_range": ("--ell-range", int, 2),
    "n_max": ("--n-max", int, None),
    "t": ("--t", float, None),
    "r_list": ("--r-list", float, "+"),
    "series_degree": ("--series-degree", int, None),
    "h_order": ("--h-order", int, None),
    "basis_size": ("--basis-size", int, None),
    "x_min": ("--x-min", float, None),
    "x_max": ("--x-max", float, None),
    "x_points": ("--x-points", int, None),
    "pseudo_h": ("--pseudo-h", float, None),
    "output_path": ("--output", str, None),
    "format": ("--format", str, None),
}


def test_flag_table():
    actions = cli.build_parser()._actions
    assert sorted(a.dest for a in actions) == sorted(
        list(cli.DEFAULTS) + ["command", "config", "help"])
    for a in actions:
        if a.dest in cli.DEFAULTS:
            # argparse reads an untyped option as a string
            assert (*a.option_strings, a.type or str, a.nargs) == \
                FLAGS[a.dest], a.dest


MALFORMED = [("h_order", 1.5), ("basis_size", 20.9), ("basis_size", 160.0),
             ("series_degree", 10.9), ("x_points", 2.5), ("n_max", True),
             ("m", True), ("theta", "0.3"), ("ell_range", [4.7, 5]),
             ("ell_range", [1, "4"]), ("ell_range", [1]), ("r_list", []),
             ("r_list", [50, "100"]), ("format", 5), ("output_path", 3)] \
    + [(key, None) for key in cli.DEFAULTS]


@pytest.mark.parametrize("key, value", MALFORMED)
def test_config_file_value_of_the_wrong_type_exits_2(tmp_path, capsys, key,
                                                     value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    code, text = run_to_file(tmp_path, ["count", "--config", str(cfg_path)])
    assert code == 2 and text is None
    assert capsys.readouterr().err.startswith("config error: %s " % key)


def test_config_file_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"m": 1%s}' % ("0" * 399))
    code, text = run_to_file(tmp_path, ["count", "--config", str(cfg_path)])
    assert code == 2 and text is None
    assert capsys.readouterr().err == \
        "config error: m is too large for a float\n"


def test_format_flag_refused_by_the_config_check(capsys):
    assert main(["potential", "--format", "xml"]) == 2
    assert capsys.readouterr().err == \
        "config error: format must be csv or json\n"


@pytest.mark.parametrize("argv,err", [
    (["count", "--m", "207", "--r-list", "557.82448762196"],
     "radius 557.824 counts ell above 600000"),
    (["count", "--m", "1e8"], "radius 200 counts ell above 600000"),
    (["count", "--r-list", "1", "nan"], "sector radius must be finite"),
    (["lattice", "--r-list", "2", "1"], "r_list must be increasing"),
    (["pseudo", "--r-list", "0.5"], "sector radius must be >= 1"),
])
def test_radius_refusals_read_the_count_rule(tmp_path, capsys, argv, err):
    # the CLI refuses r_list by `catalog.sector_radii`, the rule the count
    # itself applies, so a radius that passes the CLI passes the count
    code, text = run_to_file(tmp_path, argv)
    assert (code, text) == (2, None)
    assert capsys.readouterr().err == "config error: %s\n" % err


def test_count_runs_up_to_the_ell_bound(tmp_path):
    # r / |G(0)| just below MAX_ELL - 2 at m = 828: counted, not refused
    code, text = run_to_file(tmp_path, ["count", "--m", "828", "--r-list",
                                        "139.4561219054"])
    assert code == 0
    header, rows = parse_csv(text)[1:]
    assert header[:2] == ["r", "count"] and len(rows) == 1


@pytest.mark.parametrize("h,n", [("1e308", "8"), ("1e306", "400")])
def test_pseudo_refuses_a_spectrum_that_overflows(tmp_path, capsys, h, n):
    # h times the spectrum leaves the floats: exit 3, one line, no rows
    code, text = run_to_file(tmp_path, ["pseudo", "--pseudo-h", h,
                                        "--basis-size", n])
    assert (code, text) == (3, None)
    assert capsys.readouterr().err == \
        "numerical failure: spectrum not finite at h = %g\n" % float(h)


def test_config_file_integers_for_float_keys(tmp_path):
    # an integer is a number for a float key, embedded as a float, and the
    # embedded config replays the run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 2, "r_list": [50, 100]}))
    code, text = run_to_file(tmp_path, ["count", "--config", str(cfg_path)])
    assert code == 0
    header = text.splitlines()[0]
    assert '"m": 2.0,' in header and '"r_list": [50.0, 100.0],' in header
    cfg, _, rows = parse_csv(text)
    assert len(rows) == 2
    cfg_path.write_text(json.dumps(cfg))
    code, replay = run_to_file(tmp_path, ["count", "--config", str(cfg_path)])
    assert code == 0 and replay == text


def test_tiny_lambda_keeps_the_exit_codes(tmp_path, capsys):
    # at lam m^2 = 1e-300 the symbol is the lam = 0 symbol
    for argv in (["gsymbol"], ["lattice"], ["count"],
                 ["pseudo", "--basis-size", "20"]):
        code, text = run_to_file(tmp_path, argv + ["--lam", "1e-300"])
        code0, text0 = run_to_file(tmp_path, argv + ["--lam", "0"])
        assert code == code0 == 0, argv
        assert text.splitlines()[1:] == text0.splitlines()[1:], argv
    # the commands that invert the tortoise coordinate run across the
    # band where the far horizon is out to +-sqrt(3/lam), from the
    # subnormal lam m^2 to 3e-12, with finite rows and nothing on stderr
    capsys.readouterr()
    direct = ["direct", "--ell-range", "8", "8", "--basis-size", "160"]
    for argv in (["potential"], direct):
        for lam in ("5e-324", "1e-300", "1e-40", "3e-12"):
            code, text = run_to_file(tmp_path, argv + ["--lam", lam])
            rows = parse_csv(text)[2]
            assert code == 0 and len(rows) > 0, (argv, lam)
            assert all(math.isfinite(float(v)) for row in rows
                       for v in row), (argv, lam)
            assert capsys.readouterr().err == "", (argv, lam)


def test_near_extremal_lambda_runs(tmp_path):
    # delta = 1 - 9 lam m^2 = 2.7e-5, next to the E0 refusal at m = 1
    for command in ("gsymbol", "lattice", "count", "direct"):
        code, text = run_to_file(
            tmp_path, [command, "--lam", "0.11110810840027086"])
        assert code == 0, command
        assert text is not None


@pytest.mark.parametrize("m", ["1e-160", "1e-300", "1e155", "-1", "nan"])
def test_mass_out_of_range_exits_2(tmp_path, capsys, m):
    # 27 m^2 must be a normal, finite float: about 2.9e-155 <= m <= 2.6e153
    for command in sorted(cli.COMMANDS):
        code, text = run_to_file(tmp_path, [command, "--m=" + m])
        assert code == 2, (command, m)
        assert text is None
        err = capsys.readouterr().err
        assert err.startswith("config error: m = %r is out of range"
                              % float(m)), err


def test_negative_flag_values_in_exponent_form(tmp_path, capsys):
    # argparse's own pattern for a negative number takes "-1000" and "-.5"
    # but not "-1e3" or "-inf"; a flag's value may be written either way
    # (one output path: the config line names it)
    spaced = run_to_file(tmp_path, ["potential", "--x-min", "-1e3",
                                    "--x-max", "1e3"])
    joined = run_to_file(tmp_path, ["potential", "--x-min=-1e3",
                                    "--x-max=1e3"])
    assert spaced[0] == 0 and spaced == joined
    assert parse_csv(spaced[1])[0]["x_min"] == -1000.0
    capsys.readouterr()
    for argv, rule in ((["--lam", "-1e-3"], "need 0 <= lam < 1/(9 m^2)"),
                       (["--x-min", "-inf"], "x_min and x_max must be finite")):
        code, text = run_to_file(tmp_path, ["potential"] + argv, "err.txt")
        assert code == 2 and text is None, argv
        assert capsys.readouterr().err == "config error: %s\n" % rule


# accepted masses at which a command's numbers leave the float range: W0 ~
# 1/(27 m^2) over an r^2 that underflows, and count's constant c ~ m^3
# below the normal floats.  Every command checks and computes the hole at
# unit mass, and the symbol and the direct solve are divided by m, so
# they stay finite at both ends, lam m^2 > 0 included
OUT_OF_FLOATS = {("potential", "2.9e-155"), ("count", "1e-150"),
                 ("count", "2.9e-155")}


@pytest.mark.parametrize("argv", [
    ["potential", "--m", "2.9e-155"],
    ["gsymbol", "--m", "1e-150"], ["lattice", "--m", "1e-150"],
    ["count", "--m", "1e-150"],
    ["gsymbol", "--m", "1e100"], ["lattice", "--m", "1e100"],
    ["gsymbol", "--m", "1e-50"], ["lattice", "--m", "1e-50"],
    ["count", "--m", "1e-50"],
    ["direct", "--m", "2.9e-155"], ["direct", "--m", "2.5e153"],
    ["gsymbol", "--m", "2.9e-155"], ["lattice", "--m", "2.9e-155"],
    ["gsymbol", "--m", "2.5e153"], ["lattice", "--m", "2.5e153"],
    ["direct", "--m", "1e-150"], ["direct", "--m", "1e-50"],
    ["direct", "--m", "1e100"],
    # lam m^2 = 0.02, where 9 lam overflows
    ["gsymbol", "--lam", "2.378e307", "--m", "2.9e-155"],
    ["lattice", "--lam", "2.378e307", "--m", "2.9e-155"],
    ["count", "--lam", "2.378e307", "--m", "2.9e-155"],
    ["direct", "--lam", "2.378e307", "--m", "2.9e-155"],
    ["potential", "--lam", "2.378e307", "--m", "2.9e-155"]])
def test_mass_range_ends_fail_by_name(tmp_path, capsys, argv):
    # at the ends of the mass range a command gives finite rows, or, where
    # its numbers leave the float range, exits 3 with one line naming m and
    # no output; never a warning (direct notes l = 1, 2, 3 on stderr, as at
    # m = 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run_to_file(tmp_path, argv)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    if (argv[0], argv[-1]) in OUT_OF_FLOATS:
        assert code == 3 and text is None, argv
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "at m = %g" % float(argv[-1]) in err, err
    else:
        assert code == 0, argv
        assert "numerical failure" not in err
        _, _, rows = parse_csv(text)
        assert rows and all(math.isfinite(float(v)) for row in rows
                            for v in row), argv


def test_mass_in_range_runs(tmp_path):
    for m in ("1e-8", "1e8"):
        for argv in (["potential", "--x-points", "5"], ["gsymbol"],
                     ["lattice"], ["direct", "--ell-range", "4", "4"],
                     ["pseudo", "--basis-size", "20"]):
            code, text = run_to_file(tmp_path, argv + ["--m", m])
            assert code == 0, (argv, m)
            assert "nan" not in text
    code, _ = run_to_file(tmp_path, ["count", "--m", "1e-8"])
    assert code == 0


def test_help_shows_every_default(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, default in cli.DEFAULTS.items():
        flag = cli._option(key)[0]
        shown = " ".join(map(str, default)) if isinstance(default, list) \
            else str(default)
        # the flag, its metavars, then its default
        assert re.search(r"%s [A-Z_\[\]. ]+ default: %s( |$)"
                         % (re.escape(flag), re.escape(shown)), text), key


def test_unwritable_output_exits_2_without_partial(tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    code = main(["potential", "--x-points", "2", "--output", str(target)])
    assert code == 2
    assert not target.exists()
    assert not (tmp_path / "no_such_dir").exists()


def test_numerical_failure_exits_3(tmp_path):
    # a basis too small to stabilize any window eigenvalue
    code = main(["direct", "--ell-range", "8", "8", "--basis-size", "8",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert not (tmp_path / "x.csv").exists()


def test_extreme_mass_symbol_runs(tmp_path):
    # masses at which the Taylor coefficients in units of m (powers of
    # 1/m) would overflow: the symbol is built at unit mass
    for argv in (["gsymbol", "--series-degree", "20", "--m", "1e-20"],
                 ["gsymbol", "--series-degree", "20", "--m", "1e20"],
                 ["lattice", "--m", "1e-30"], ["lattice", "--m", "1e40"],
                 ["count", "--m", "1e-30"]):
        code, text = run_to_file(tmp_path, argv)
        assert code == 0, argv
        _, _, rows = parse_csv(text)
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_potential_large_mass(tmp_path):
    # the continuation counts its steps and its residual in units of m,
    # and at lam m^2 = 0.02 its real-axis seeds hold at every m; each
    # point's Newton stops on its own step, so x = 0 next to +-1e300 runs
    for argv, n in ((["--m", "1e8"], 121),
                    (["--m", "1e8", "--lam", "2e-18"], 121),
                    (["--m", "10", "--lam", "2e-4", "--x-min", "0",
                      "--x-max", "20", "--x-points", "3"], 3),
                    (["--lam", "0.02", "--x-min=-1e300", "--x-max=1e300",
                      "--x-points", "3"], 3)):
        code, text = run_to_file(tmp_path, ["potential"] + argv)
        assert code == 0, argv
        _, _, rows = parse_csv(text)
        assert len(rows) == n
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_no_temp_files_left(tmp_path):
    run_to_file(tmp_path, ["potential", "--x-points", "2"])
    leftovers = [f for f in os.listdir(tmp_path)
                 if f.startswith(".tmp-qnmlattice-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# start-up cost


def test_cli_runs_without_loading_scipy():
    # scipy's special and linalg modules cost about 0.45 s and 30 MB to
    # import, more than a typical command's computation; numpy suffices
    script = (
        "import contextlib, io, sys\n"
        "import qnmlattice.cli as cli\n"
        "for argv in (['potential'], ['gsymbol'], ['lattice'], ['count'],\n"
        "             ['direct', '--ell-range', '4', '4'],\n"
        "             ['pseudo', '--basis-size', '20']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "[]\n"


# ---------------------------------------------------------------------------
# the benchmark's span tracing


def test_bench_trace_hooks_cover_the_lattice_pipeline(tmp_path):
    # perfbench/run.py --trace 1 wraps these modules and methods by name;
    # `count` reaches the counting constant through the wrapped name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [series, potentials, normalform, scaling, catalog,
               pseudospectrum, cli]
    methods = [(series.Series2, ("__mul__", "__rmul__"),
                "series.Series2.mul"),
               (series.Series1, ("compose",), "series.Series1.compose")]
    before = [dict(vars(mod)) for mod in modules]
    before_methods = [vars(cls)[name] for cls, names, _ in methods
                      for name in names]
    tracer = spans.Tracer()
    undo = spans.install(tracer, modules, methods)
    try:
        assert cli.main(["lattice", "--output", str(tmp_path / "l.csv")]) \
            == 0
        assert cli.main(["count", "--output", str(tmp_path / "c.csv")]) \
            == 0
    finally:
        spans.uninstall(undo)
    for label in ("normalform.qnm_symbol", "normalform.moyal_commutator",
                  "series.Series1.compose",
                  "potentials.shifted_potential_taylor",
                  "potentials.subprincipal_taylor",
                  "catalog.counting_constant"):
        assert tracer.calls[label] > 0, label
    # the symbol pipeline is dense: Series2 is wrapped but never called
    assert tracer.calls["series.Series2.mul"] == 0
    for mod, names in zip(modules, before):
        now = vars(mod)
        assert now.keys() == names.keys()
        assert all(now[k] is v for k, v in names.items()), mod.__name__
    assert [vars(cls)[name] for cls, names, _ in methods
            for name in names] == before_methods
