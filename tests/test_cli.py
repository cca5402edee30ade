"""End-to-end tests of the command-line interface."""

import json
import math
import os

import numpy as np
import pytest

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
    # a basis whose matrices eigensolve refuses: direct also builds
    # basis_size + 40, so its limit is 1960
    assert main(["direct", "--basis-size", "2001", "--ell-range", "4", "4"]) \
        == 2
    assert main(["direct", "--basis-size", "1961", "--ell-range", "4", "4"]) \
        == 2
    assert main(["pseudo", "--basis-size", "2001"]) == 2


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


def test_no_temp_files_left(tmp_path):
    run_to_file(tmp_path, ["potential", "--x-points", "2"])
    leftovers = [f for f in os.listdir(tmp_path)
                 if f.startswith(".tmp-qnmlattice-")]
    assert leftovers == []
