"""Byte check of the qnmlattice CLI, a parent commit against the working tree.

    python3 tools/cli_bytes.py --parent REV

Run from the root of a source checkout.  The parent commit is exported
with `bench_pairs.export_tree` into a temporary directory.  Every argv of
ARGVS runs in both trees, once with `--format csv` and once with `--format
json`, as `python -m qnmlattice.cli` with the tree's `src` first on the
path and OPENBLAS_NUM_THREADS=1 (the last digits of `direct` follow the
BLAS thread count).  One line per argv and format says `same` or `DIFF`
for stdout, stderr and the exit code; the script exits 1 if any differs.
A stdout DIFF also gives its size, or "structure differs" when the text
between the numbers, or their count, differs.  The size is two largest
relative differences: of single numbers at the same positions of the two
outputs, and of rows, ||row b - row a|| / ||row||, a row being a
CSV line or an innermost JSON list.  A row's norm leaves out the numbers
written as integers on both sides (its labels l, n, multiplicity), so for
a mode row it reads |dlambda|/|lambda|, where a small imaginary part
alone would overstate the move of the complex lambda.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, export_tree, git

ARGVS = [
    # the README commands
    ["potential", "--m", "1", "--lam", "0", "--x-min", "-20", "--x-max",
     "40", "--x-points", "121"],
    ["gsymbol", "--series-degree", "10", "--h-order", "2"],
    ["lattice", "--ell-range", "1", "4", "--n-max", "4"],
    ["count", "--t", "0.05", "--r-list", "50", "100", "200"],
    ["direct", "--ell-range", "4", "16", "--theta", "0.3", "--basis-size",
     "160"],
    ["pseudo", "--basis-size", "151", "--pseudo-h", "0.05"],
    # de Sitter, deeper symbols, the bench's commands and direct's defaults
    ["potential", "--lam", "0.02"],
    ["gsymbol", "--lam", "0.02", "--series-degree", "16"],
    ["lattice", "--lam", "0.02", "--series-degree", "20", "--ell-range",
     "1", "30", "--n-max", "40"],
    ["count", "--t", "0.05", "--r-list", "50.0", "100.0", "200.0", "400.0",
     "--lam", "0.01"],
    ["count", "--t", "0.05", "--r-list", "50.0", "100.0", "200.0", "400.0",
     "--lam", "0.02"],
    ["direct"],
    ["direct", "--ell-range", "4", "16", "--theta", "0.3", "--basis-size",
     "160", "--n-max", "4"],
    ["direct", "--lam", "0.02", "--ell-range", "2", "6"],
    ["pseudo", "--basis-size", "302"],
    ["pseudo", "--basis-size", "400"],
    # direct's march at lam > 0 on the bench grid, and the ends of the
    # mass range
    ["direct", "--lam", "0.02", "--ell-range", "4", "16", "--theta", "0.3",
     "--basis-size", "160"],
    ["potential", "--m", "2.9e-155", "--x-points", "5"],
    ["gsymbol", "--m", "1e-150"],
    ["direct", "--m", "2.5e153", "--ell-range", "4", "4"],
    # the lattice bench's degree-20 symbol at lambda = 0
    ["gsymbol", "--series-degree", "20"],
    ["lattice", "--series-degree", "20", "--ell-range", "1", "32",
     "--n-max", "4"],
    # the real-axis solver of `potential`: both lambda = 0 seeds (the
    # ends of the float range), both sides of the lambda > 0 chart, next
    # to extremality, the cosmological horizon far out (lambda m^2 down to
    # the subnormal floats), and the exit-3 message of a W out of range
    ["potential", "--m", "900", "--lam", "1e-7", "--x-min=-3000", "--x-max",
     "1e6", "--x-points", "4001"],
    ["potential", "--x-min=-1e300", "--x-max", "1e300", "--x-points", "7"],
    ["potential", "--lam", "0.11110810840027086"],
    ["potential", "--lam", "0.1111111111111"],
    ["potential", "--lam", "1e-40"],
    ["potential", "--lam", "1e-61"],
    ["potential", "--lam", "5e-324", "--x-points", "5"],
    ["potential", "--m", "2.9e-155"],
    # direct's march for a solar-mass hole in our universe
    ["direct", "--lam", "2e-46", "--ell-range", "4", "8"],
    # the symbol loop's flat levels: an odd h-order at a mass other than
    # 1, and a lambda > 0 lattice at h-order 0
    ["gsymbol", "--h-order", "1", "--series-degree", "20", "--m", "3.7"],
    ["lattice", "--h-order", "0", "--series-degree", "20", "--lam", "0.01",
     "--ell-range", "1", "8"],
    # the evaluation of a rescaled symbol with its h^2 level: lambda > 0
    # at masses other than 1, h-order 2
    ["lattice", "--m", "3.7", "--lam", "0.001", "--h-order", "2",
     "--series-degree", "16", "--ell-range", "1", "12", "--n-max", "6"],
    ["count", "--m", "0.37", "--lam", "0.1", "--h-order", "2", "--t",
     "0.05", "--r-list", "20", "40", "80"],
    # the unit-mass symbol and solve divided by m: a direct mode at a
    # mass other than 1, the ends of the mass range, and count's constant
    # c ~ m^3 below the normal floats
    ["direct", "--m", "3.7", "--lam", "0.001", "--ell-range", "4", "6"],
    ["lattice", "--m", "2.5e153"],
    ["gsymbol", "--m", "1e100"],
    ["count", "--m", "1e-150"],
    # `potential` solved at unit mass: the lambda = 0 offset 2 log m, and
    # lambda > 0; every command at the small end of the mass range with
    # lambda m^2 = 0.02, where 9 lambda overflows
    ["potential", "--m", "3.7"],
    ["potential", "--m", "0.37", "--lam", "0.1"],
    ["gsymbol", "--m", "2.9e-155", "--lam", "2.378e307"],
    ["lattice", "--m", "2.9e-155", "--lam", "2.378e307"],
    ["count", "--m", "2.9e-155", "--lam", "2.378e307"],
    ["direct", "--m", "2.9e-155", "--lam", "2.378e307"],
    ["potential", "--m", "2.9e-155", "--lam", "2.378e307"],
]


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
FLOAT = re.compile(rb"[.eE]")


def rows(out):
    """The rows of a stdout, each a list of (number, written as a float):
    the innermost lists of a JSON output, else the lines."""
    try:
        tree = json.loads(out)
    except ValueError:
        return [[(float(t), bool(FLOAT.search(t)))
                 for t in NUMBER.findall(line)] for line in out.splitlines()]
    found = []

    def walk(node):
        items = node.values() if isinstance(node, dict) else node
        inner = [v for v in items if isinstance(v, (list, dict))]
        if isinstance(node, list) and not inner:
            found.append([(float(v), isinstance(v, float)) for v in items
                          if isinstance(v, (int, float))
                          and not isinstance(v, bool)])
        for v in inner:
            walk(v)

    walk(tree)
    return found


def row_rel(ra, rb):
    """||rb - ra|| / max(||ra||, ||rb||) over the numbers that either row
    writes as a float."""
    pairs = [(x, y) for (x, fx), (y, fy) in zip(ra, rb) if fx or fy]
    diff = math.hypot(*(x - y for x, y in pairs))
    if not diff:
        return 0.0
    return diff / max(math.hypot(*(x for x, _ in pairs)),
                      math.hypot(*(y for _, y in pairs)))


def size(a, b):
    """How far stdout b is from stdout a, as a phrase."""
    if NUMBER.split(a) != NUMBER.split(b):
        return "structure differs"
    rel = max((abs(x - y) / max(abs(x), abs(y))
               for x, y in zip(map(float, NUMBER.findall(a)),
                               map(float, NUMBER.findall(b))) if x != y),
              default=0.0)
    row = max(map(row_rel, rows(a), rows(b)), default=0.0)
    return "max rel %.2g, max row rel %.2g" % (rel, row)


def run(tree, argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "qnmlattice.cli", *argv],
                          cwd=tree, env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    args = ap.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory(prefix="cli_bytes_parent_") as tmp:
        export_tree(git("rev-parse", args.parent), tmp)
        for fmt in ("csv", "json"):
            for cmd in ARGVS:
                line = cmd + ["--format", fmt]
                old, new = run(tmp, line), run(ROOT, line)
                same = [a == b for a, b in zip(old, new)]
                differ = differ or not all(same)
                print("%s: stdout %s, stderr %s, exit %s" % (
                    " ".join(line), *("same" if s else "DIFF" for s in same))
                    + ("" if same[0] else " (%s)" % size(old[0], new[0])),
                    flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
