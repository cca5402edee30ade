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
import re
import sys
import tempfile

from . import catalog, normalform, potentials, pseudospectrum, scaling

# the config schema: each key's default, whose type (its entries' for a
# list) types the key's flag and config-file value
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


# the largest basis_size of a command: pseudo's matrices, and direct's
# build of basis_size + DRIFT_EXTRA rows, stay within MAX_MATRIX rows
BASIS_LIMIT = {
    "direct": scaling.MAX_MATRIX - scaling.DRIFT_EXTRA,
    "pseudo": scaling.MAX_MATRIX,
}


class ConfigError(ValueError):
    pass


def fmt(v):
    """17-significant-digit decimal rendering (lossless doubles)."""
    return "%.17g" % float(v)


def _option(key):
    """Flag, (element) type and nargs of config key `key`; the flag is the
    key with dashes but for `--lam` (lambda) and `--output` (output_path)."""
    default = DEFAULTS[key]
    name = {"lambda": "lam", "output_path": "output"}.get(key, key)
    kind = type(default[0] if isinstance(default, list) else default)
    nargs = {"ell_range": 2, "r_list": "+"}.get(key)
    return "--" + name.replace("_", "-"), kind, nargs


def _typed(key, value):
    """A config-file value as `key`'s type, or a ConfigError naming the
    key: a float key takes any JSON number, an int key an integer, a str
    key a string, and a list key a list of two (nargs 2) or of one or more
    (nargs "+") of those; a bool or a null is never taken."""
    _, kind, nargs = _option(key)
    what = {float: "number", int: "integer", str: "string"}[kind]
    items = value if nargs else [value]
    # bool is an int, and an integer is a float key's number too
    takes = (int, float) if kind is float else kind
    if not (isinstance(items, list) and items
            and (nargs != 2 or len(items) == 2)
            and all(isinstance(v, takes) and not isinstance(v, bool)
                    for v in items)):
        raise ConfigError("%s must be a JSON %s" % (key, {
            None: "%s", 2: "list of two %ss", "+": "list of one or more %ss"
        }[nargs] % what))
    try:
        items = [kind(v) for v in items]
    except OverflowError:
        raise ConfigError("%s is too large for a float" % key) from None
    return items if nargs else items[0]


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
        cfg.update((k, _typed(k, v)) for k, v in file_cfg.items())
    cfg.update((k, v) for k, v in vars(args).items()
               if k in DEFAULTS and v is not None)
    _check_config(cfg, args.command)
    return cfg


def _check_config(cfg, command):
    """Raise ConfigError for any value `command` cannot run with."""
    try:
        p = params_from(cfg)
        # the hole every command computes: in units of its mass
        lam = p.unit_mass().lam
        # these expand about the barrier top, which a near-extremal lambda
        # lacks; `potential` only tabulates W
        if command in ("gsymbol", "lattice", "count", "direct"):
            E0 = potentials.critical_data(lam)
        scaling.ScalingConfig(cfg["theta"], cfg["basis_size"])
        pseudospectrum.RotatedHOConfig(cfg["pseudo_h"], cfg["basis_size"])
    except (ValueError, ArithmeticError) as e:
        raise ConfigError(str(e))
    lo, hi = cfg["ell_range"]
    if not (1 <= lo <= hi):
        raise ConfigError("bad ell_range")
    if cfg["n_max"] < 0:
        raise ConfigError("n_max must be >= 0")
    if not (0.0 < cfg["t"] <= 0.3):
        raise ConfigError("t out of (0, 0.3]")
    radii = cfg["r_list"]
    if not all(math.isfinite(r) for r in radii):
        raise ConfigError("r_list entries must be finite")
    if radii != sorted(radii):
        raise ConfigError("r_list must be increasing")
    if radii[0] < 1.0:
        raise ConfigError("r_list entries must be >= 1")
    # count walks ell up to ceil(r / |G(0)|) + 2, and |G(0)| = sqrt(E0)/m
    if command == "count" and \
            radii[-1] > (catalog.MAX_ELL - 2) * (math.sqrt(E0) / p.m):
        raise ConfigError("r_list reaches ell above %d" % catalog.MAX_ELL)
    if cfg["h_order"] not in (0, 1, 2):
        raise ConfigError("h_order must be 0, 1, or 2")
    deg_min = 2 * cfg["h_order"] + 4
    if not (deg_min <= cfg["series_degree"] <= 20):
        raise ConfigError("series_degree out of [%d, 20] for h_order %d"
                          % (deg_min, cfg["h_order"]))
    if cfg["basis_size"] > BASIS_LIMIT.get(command, math.inf):
        raise ConfigError("basis_size above %d for %s"
                          % (BASIS_LIMIT[command], command))
    if not all(math.isfinite(cfg[k]) for k in ("x_min", "x_max")):
        raise ConfigError("x_min and x_max must be finite")
    if cfg["x_points"] < 0:
        raise ConfigError("x_points must be >= 0")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")


def params_from(cfg):
    return potentials.BlackHoleParams(m=cfg["m"], lam=cfg["lambda"])


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
    npts = cfg["x_points"]
    rows = []
    if npts > 0:
        import numpy as np
        xs = np.linspace(cfg["x_min"], cfg["x_max"], npts)
        # r(x) is solved in units of m, where x is x/m, less 2 log m at
        # lambda = 0 (`potentials._chart`)
        lam = p.unit_mass().lam
        x1 = xs / p.m - (2.0 * math.log(p.m) if lam == 0 else 0.0)
        w0, w1 = potentials.potential_from_r(
            *potentials.inverse_tortoise(x1, lam), lam, p.m)
        rows = [(float(x), float(a.real), float(b.real))
                for x, a, b in zip(xs, w0, w1)]
    if cfg["format"] == "json":
        return json_doc(cfg, [[r[0], r[1], r[2]] for r in rows])
    return csv_table(cfg, ["x", "W0", "W1"], rows)


def _symbol(cfg, p):
    return normalform.qnm_symbol(p, degree=cfg["series_degree"],
                                 h_order=cfg["h_order"])


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
    lo, hi = cfg["ell_range"]
    rows = []
    for ell in range(lo, hi + 1):
        lams = catalog.lattice(G, ell, rad, cfg["n_max"])
        rows += [(ell, n, float(lam.real), float(lam.imag), 2 * ell + 1)
                 for n, lam in enumerate(lams)]
    if cfg["format"] == "json":
        return json_doc(cfg, [list(r) for r in rows])
    return csv_table(cfg, ["ell", "n", "re_lambda", "im_lambda",
                           "multiplicity"], rows)


def cmd_count(cfg):
    p = params_from(cfg)
    G = _symbol(cfg, p)
    rows = catalog.asymptotic_check(p, G, cfg["t"], cfg["r_list"])
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
    lo, hi = cfg["ell_range"]
    scfg = scaling.ScalingConfig(theta=cfg["theta"],
                                 basis_size=cfg["basis_size"])
    payload, failed = [], []
    for ell in range(lo, hi + 1):
        try:
            lams = scaling.qnm_direct(
                ell, scfg, p, max_modes=cfg["n_max"] + 1).tolist()
        except RuntimeError as e:
            # the message only: a kept exception would hold this frame,
            # and the matrices below it, in a cycle until the next gc
            failed.append((ell, str(e)))
            lams = []
        payload.append({"ell": ell, "theta": cfg["theta"],
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
    pcfg = pseudospectrum.RotatedHOConfig(h=cfg["pseudo_h"],
                                          basis_size=cfg["basis_size"])
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
    # argparse's own pattern for a negative number reads "-1e3" and "-inf"
    # as options
    ap._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file")
    for key, default in DEFAULTS.items():
        flag, kind, nargs = _option(key)
        shown = " ".join(map(str, default)) if nargs else default
        ap.add_argument(flag, dest=key, type=kind, nargs=nargs,
                        help="default: %s" % shown)
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
