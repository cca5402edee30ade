"""Command-line interface: reproducible runs of every computation.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  Every output embeds the fully resolved configuration, numbers are
written with 17 significant digits, and files are written atomically so a
failed run leaves no partial output.  Exit codes: 0 ok, 2 configuration or
I/O error, 3 numerical failure.  Thread count follows the standard BLAS
environment variables (e.g. OMP_NUM_THREADS).
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile

from . import catalog, normalform, potentials, pseudospectrum, scaling

DEFAULTS = {
    "m": 1.0,
    "lambda": 0.0,
    "theta": 0.3,
    "ell_range": [1, 4],
    "n_max": 4,
    "t": 0.05,
    "r_list": [50.0, 100.0, 200.0],
    "series_degree": 10,
    "h_order": 2,
    "basis_size": 151,
    "x_min": -20.0,
    "x_max": 40.0,
    "x_points": 121,
    "pseudo_h": 0.05,
    "output_path": "-",
    "format": "csv",
}


# the largest basis_size whose matrices a command can eigensolve
BASIS_LIMIT = {
    "direct": scaling.MAX_MATRIX - scaling.DRIFT_EXTRA,
    "pseudo": scaling.MAX_MATRIX,
}


class ConfigError(ValueError):
    pass


def fmt(v):
    """17-significant-digit decimal rendering (lossless doubles)."""
    return "%.17g" % float(v)


def resolve_config(args):
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError("config file %s: %s" % (args.config, e))
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file %s: not a JSON object"
                              % args.config)
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError("unknown config keys: %s" % sorted(unknown))
        cfg.update(file_cfg)
    for key in DEFAULTS:
        flag = key.replace("lambda", "lam")
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    validate_config(cfg, args.command)
    return cfg


def validate_config(cfg, command):
    """Raise ConfigError for any value `command` cannot run with,
    including values of the wrong type or shape."""
    try:
        _check_config(cfg, command)
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ConfigError("bad value (%s)" % e) from None


def _check_config(cfg, command):
    try:
        p = potentials.BlackHoleParams(m=float(cfg["m"]),
                                       lam=float(cfg["lambda"]))
        # these expand about the barrier top, which a near-extremal lambda
        # lacks; `potential` only tabulates W
        if command in ("gsymbol", "lattice", "count", "direct"):
            cd = potentials.critical_data(p)
        # these invert the tortoise coordinate, which needs both horizons
        if command in ("potential", "direct"):
            potentials.tortoise(3.0 * p.m, p)
        scaling.ScalingConfig(float(cfg["theta"]), int(cfg["basis_size"]))
        pseudospectrum.RotatedHOConfig(float(cfg["pseudo_h"]),
                                       int(cfg["basis_size"]))
    except ValueError as e:
        raise ConfigError(str(e))
    if not isinstance(cfg["ell_range"], list) or len(cfg["ell_range"]) != 2:
        raise ConfigError("ell_range must be a list of two integers")
    lo, hi = cfg["ell_range"]
    if not (1 <= int(lo) <= int(hi)):
        raise ConfigError("bad ell_range")
    if int(cfg["n_max"]) < 0:
        raise ConfigError("n_max must be >= 0")
    if not (0.0 < float(cfg["t"]) <= 0.3):
        raise ConfigError("t out of (0, 0.3]")
    if not isinstance(cfg["r_list"], list) or not cfg["r_list"]:
        raise ConfigError("r_list must be a non-empty list")
    radii = [float(r) for r in cfg["r_list"]]
    if not all(math.isfinite(r) for r in radii):
        raise ConfigError("r_list entries must be finite")
    if radii != sorted(radii):
        raise ConfigError("r_list must be increasing")
    if radii[0] < 1.0:
        raise ConfigError("r_list entries must be >= 1")
    # count walks ell up to ceil(r / |G(0)|) + 2, and |G(0)| = sqrt(E0)
    if command == "count" and \
            radii[-1] > (catalog.MAX_ELL - 2) * math.sqrt(cd.E0):
        raise ConfigError("r_list reaches ell above %d" % catalog.MAX_ELL)
    if int(cfg["h_order"]) not in (0, 1, 2):
        raise ConfigError("h_order must be 0, 1, or 2")
    deg_min = 2 * int(cfg["h_order"]) + 4
    if not (deg_min <= int(cfg["series_degree"]) <= 20):
        raise ConfigError("series_degree out of [%d, 20] for h_order %d"
                          % (deg_min, int(cfg["h_order"])))
    if int(cfg["basis_size"]) > BASIS_LIMIT.get(command, math.inf):
        raise ConfigError("basis_size above %d for %s"
                          % (BASIS_LIMIT[command], command))
    if not all(math.isfinite(float(cfg[k])) for k in ("x_min", "x_max")):
        raise ConfigError("x_min and x_max must be finite")
    if int(cfg["x_points"]) < 0:
        raise ConfigError("x_points must be >= 0")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if not isinstance(cfg["output_path"], str):
        raise ConfigError("output_path must be a string")


def params_from(cfg):
    return potentials.BlackHoleParams(m=float(cfg["m"]),
                                      lam=float(cfg["lambda"]))


def write_atomic(path, text):
    """Write text to path via temp file + rename; '-' writes stdout."""
    if path == "-":
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-qnmlattice-")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (path, e))


def meta_header(cfg, comment="#"):
    blob = json.dumps(cfg, sort_keys=True)
    return "%s config %s\n" % (comment, blob)


def csv_table(cfg, header, rows):
    out = [meta_header(cfg), ",".join(header) + "\n"]
    for row in rows:
        out.append(",".join(fmt(v) if isinstance(v, float) else str(v)
                            for v in row) + "\n")
    return "".join(out)


def json_doc(cfg, payload):
    return json.dumps({"config": cfg, "data": payload}, sort_keys=True,
                      indent=1) + "\n"


def cmd_potential(cfg):
    p = params_from(cfg)
    npts = int(cfg["x_points"])
    rows = []
    if npts > 0:
        import numpy as np
        xs = np.linspace(float(cfg["x_min"]), float(cfg["x_max"]), npts)
        w0, w1 = potentials.potential_W_parts(xs.astype(complex), p)
        rows = [(float(x), float(a.real), float(b.real))
                for x, a, b in zip(xs, w0, w1)]
    if cfg["format"] == "json":
        return json_doc(cfg, [[r[0], r[1], r[2]] for r in rows])
    return csv_table(cfg, ["x", "W0", "W1"], rows)


def _symbol(cfg, p):
    return normalform.qnm_symbol(p, degree=int(cfg["series_degree"]),
                                 h_order=int(cfg["h_order"]))


def cmd_gsymbol(cfg):
    p = params_from(cfg)
    G = _symbol(cfg, p)
    if cfg["format"] == "json":
        payload = {str(k): [[c.real, c.imag] for c in lvl.coeffs]
                   for k, lvl in sorted(G.levels.items())}
        return json_doc(cfg, payload)
    rows = []
    for k, lvl in sorted(G.levels.items()):
        for j, c in enumerate(lvl.coeffs):
            rows.append((k, j, float(c.real), float(c.imag)))
    return csv_table(cfg, ["h_power", "x_power", "re", "im"], rows)


def cmd_lattice(cfg):
    p = params_from(cfg)
    G = _symbol(cfg, p)
    rad = catalog.validity_radius(G.levels[0])
    lo, hi = int(cfg["ell_range"][0]), int(cfg["ell_range"][1])
    rows = []
    for ell in range(lo, hi + 1):
        lams = catalog.lattice(G, ell, rad, int(cfg["n_max"]))
        rows += [(ell, n, float(lam.real), float(lam.imag), 2 * ell + 1)
                 for n, lam in enumerate(lams)]
    if cfg["format"] == "json":
        return json_doc(cfg, [list(r) for r in rows])
    return csv_table(cfg, ["ell", "n", "re_lambda", "im_lambda",
                           "multiplicity"], rows)


def cmd_count(cfg):
    p = params_from(cfg)
    G = _symbol(cfg, p)
    rows = catalog.asymptotic_check(p, G, float(cfg["t"]),
                                    [float(r) for r in cfg["r_list"]])
    note = ("lambda=0: the cubic asymptotic is a lower-bound statement; "
            "ratios are reported as-is" if p.lam == 0 else "")
    if cfg["format"] == "json":
        return json_doc(cfg, {"rows": rows, "note": note})
    out = [(r["r"], r["count"], float(r["c_r3"]), float(r["ratio"]),
            r["coverage_gaps"]) for r in rows]
    return csv_table(cfg, ["r", "count", "c_r3", "ratio", "coverage_gaps"],
                     out)


def cmd_direct(cfg):
    p = params_from(cfg)
    lo, hi = int(cfg["ell_range"][0]), int(cfg["ell_range"][1])
    scfg = scaling.ScalingConfig(theta=float(cfg["theta"]),
                                 basis_size=int(cfg["basis_size"]))
    payload, failed = [], []
    for ell in range(lo, hi + 1):
        try:
            lams = scaling.qnm_direct(
                ell, scfg, p, max_modes=int(cfg["n_max"]) + 1).tolist()
        except RuntimeError as e:
            # the message only: a kept exception would hold this frame,
            # and the matrices below it, in a cycle until the next gc
            failed.append((ell, str(e)))
            lams = []
        payload.append({"ell": ell, "theta": float(cfg["theta"]),
                        "qnm": [[z.real, z.imag] for z in lams]})
    # an ell without a mode is a note; every ell failing is a failure
    if len(failed) == len(payload):
        raise RuntimeError(failed[0][1])
    for ell, msg in failed:
        print("ell %d: %s" % (ell, msg), file=sys.stderr)
    if cfg["format"] == "json":
        return json_doc(cfg, payload)
    rows = []
    for block in payload:
        for n, (re, im) in enumerate(block["qnm"]):
            rows.append((block["ell"], n, float(re), float(im)))
    return csv_table(cfg, ["ell", "n", "re_lambda", "im_lambda"], rows)


def cmd_pseudo(cfg):
    pcfg = pseudospectrum.RotatedHOConfig(h=float(cfg["pseudo_h"]),
                                          basis_size=int(cfg["basis_size"]))
    rep = pseudospectrum.instability_report(pcfg)
    rows = [(r["n"], float(r["exact"].real), float(r["exact"].imag),
             float(r["computed"].real), float(r["computed"].imag),
             float(r["distance"])) for r in rep["rows"]]
    if cfg["format"] == "json":
        return json_doc(cfg, {"divergence_index": rep["divergence_index"],
                              "rows": [list(r) for r in rows]})
    return csv_table(cfg, ["n", "re_exact", "im_exact", "re_num", "im_num",
                           "dist"], rows)


COMMANDS = {
    "potential": cmd_potential,
    "gsymbol": cmd_gsymbol,
    "lattice": cmd_lattice,
    "count": cmd_count,
    "direct": cmd_direct,
    "pseudo": cmd_pseudo,
}


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="qnmlattice")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--m", type=float)
    ap.add_argument("--lam", type=float, help="cosmological constant")
    ap.add_argument("--theta", type=float)
    ap.add_argument("--ell-range", dest="ell_range", type=int, nargs=2)
    ap.add_argument("--n-max", dest="n_max", type=int)
    ap.add_argument("--t", type=float)
    ap.add_argument("--r-list", dest="r_list", type=float, nargs="+")
    ap.add_argument("--series-degree", dest="series_degree", type=int)
    ap.add_argument("--h-order", dest="h_order", type=int)
    ap.add_argument("--basis-size", dest="basis_size", type=int)
    ap.add_argument("--x-min", dest="x_min", type=float)
    ap.add_argument("--x-max", dest="x_max", type=float)
    ap.add_argument("--x-points", dest="x_points", type=int)
    ap.add_argument("--pseudo-h", dest="pseudo_h", type=float)
    ap.add_argument("--output", dest="output_path")
    ap.add_argument("--format", dest="format", choices=["csv", "json"])
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    try:
        text = COMMANDS[args.command](cfg)
    except (RuntimeError, ArithmeticError) as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return 3
    try:
        write_atomic(cfg["output_path"], text)
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
