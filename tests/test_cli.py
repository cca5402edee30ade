"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # a basis whose matrices eigensolve refuses: direct builds one
    # matrix of basis_size + 40, so its limit is 1960
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
    assert main(["direct", "--theta", "0.41", "--ell-range", "4", "4"]) == 2
    # extreme masses: E0 = 1/(27 m^2) divides by an m^2 that underflows,
    # and the count walk's ell range grows as r m
    for argv in (["gsymbol", "--m", "1e-300"], ["count", "--m", "1e8"],
                 ["count", "--m", "1e40"]):
        assert main(argv) == 2, argv
    # a config file that is valid JSON but not an object
    for doc in ("5", "null", '[["m", 2]]'):
        cfg_path.write_text(doc)
        assert main(["lattice", "--config", str(cfg_path)]) == 2, doc


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


def test_extreme_mass_symbol_exits_3(tmp_path):
    # the symbol's Taylor coefficients overflow to inf or nan
    for argv in (["gsymbol", "--series-degree", "20", "--m", "1e-20"],
                 ["gsymbol", "--series-degree", "20", "--m", "1e20"],
                 ["lattice", "--m", "1e-30"], ["lattice", "--m", "1e40"],
                 ["count", "--m", "1e-30"]):
        code = main(argv + ["--output", str(tmp_path / "x.csv")])
        assert code == 3, argv
        assert not (tmp_path / "x.csv").exists()


def test_potential_large_mass(tmp_path):
    # the continuation counts its steps and its residual in units of m,
    # and at lam m^2 = 0.02 its real-axis seeds hold at every m
    for argv, n in ((["--m", "1e8"], 121),
                    (["--m", "1e8", "--lam", "2e-18"], 121),
                    (["--m", "10", "--lam", "2e-4", "--x-min", "0",
                      "--x-max", "20", "--x-points", "3"], 3)):
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
        "for argv in (['potential'], ['direct', '--ell-range', '4', '4'],\n"
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
    # perfbench/run.py --trace 1 wraps these modules and methods by name
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
    finally:
        spans.uninstall(undo)
    for label in ("normalform.qnm_symbol", "series.Series2.mul",
                  "series.Series1.compose",
                  "potentials.shifted_potential_taylor",
                  "potentials.subprincipal_taylor"):
        assert tracer.calls[label] > 0, label
    for mod, names in zip(modules, before):
        now = vars(mod)
        assert now.keys() == names.keys()
        assert all(now[k] is v for k, v in names.items()), mod.__name__
    assert [vars(cls)[name] for cls, names, _ in methods
            for name in names] == before_methods
