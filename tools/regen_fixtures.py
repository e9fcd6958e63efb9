"""Regenerate the shipped fixture corpus and the golden CLI outputs.

Run from the repository root:

    python3 tools/regen_fixtures.py [DIR]

DIR defaults to fixtures/; the tests regenerate the corpus into a
temporary DIR and compare it with fixtures/ byte for byte.  The input
documents are written first, then every row of GOLDEN is run in order:
each golden file is the exact stdout of one CLI call.  The script aborts
if a call exits with another code than its row's, so the corpus can only
be regenerated from a working tree.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from homnambu.cli import main as cli_main
from homnambu.cohomology import (Cochain, binary_adjoint_cocycle_space,
                                 cochain_length, cocycles, is_binary_cocycle,
                                 parity_support)
from homnambu.fixtures import (a0, aff1, central_twist, gl11, gl11t, glmn,
                               neg_jacobi, neg_mult, neg_nambu, neg_rep)
from homnambu.formats import (DocumentBundle, serialize_cochain,
                              write_document)
from homnambu.reps import trace_functional
from homnambu.ternary import induce_ternary

FIX = ROOT / "fixtures"

# (golden file, argv, exit code), run in this order; an argument ending in
# .json is a path in the corpus directory, so "-o gl11_induced.json" writes
# the input the later rows read
GOLDEN = [
    *((f"check_binary_{n}.json", ["check", "binary", f"{n}.json"], 0)
      for n in ("a0", "aff1", "gl11", "gl11t2")),
    ("check_binary_neg_jacobi.json", ["check", "binary", "neg_jacobi.json"], 1),
    ("check_binary_neg_mult.json", ["check", "binary", "neg_mult.json"], 1),
    ("check_rep_gl11.json", ["check", "rep", "gl11.json"], 0),
    ("check_rep_neg_rep.json", ["check", "rep", "neg_rep.json"], 1),
    ("induce_gl11.json", ["induce", "gl11.json", "-o", "gl11_induced.json"], 0),
    ("check_ternary_gl11_induced.json",
     ["check", "ternary", "gl11_induced.json"], 0),
    ("check_ternary_neg_nambu.json", ["check", "ternary", "neg_nambu.json"], 1),
    ("series_derived_gl11_induced.json",
     ["series", "derived", "gl11_induced.json"], 0),
    ("series_central_gl11_induced.json",
     ["series", "central", "gl11_induced.json"], 0),
    ("center_gl11_induced.json", ["center", "gl11_induced.json"], 0),
    ("solvability_gl11.json", ["solvability", "gl11.json"], 0),
    ("cohomology_bs1_gl11.json", ["cohomology", "gl11.json",
                                  "--complex", "binary-scalar", "--degree", "1"], 0),
    ("cohomology_bs2_gl11.json", ["cohomology", "gl11.json",
                                  "--complex", "binary-scalar", "--degree", "2"], 0),
    ("cohomology_ts2_induced.json",
     ["cohomology", "gl11_induced.json",
      "--complex", "ternary-scalar", "--degree", "2"], 0),
    ("cohomology_ta2_induced.json",
     ["cohomology", "gl11_induced.json",
      "--complex", "ternary-adjoint", "--degree", "2"], 0),
    ("extend_gl11.json", ["extend", "gl11.json", "--omega", "omega_cocycle.json",
                          "-o", "golden/gl11_extended.json"], 0),
    ("extend_gl11_bad.json", ["extend", "gl11.json", "--omega", "omega_bad.json"], 0),
    ("extend_gl11_lambda.json",
     ["extend", "gl11.json", "--omega", "omega_cocycle.json",
      "--lambda", "lambda_h1.json"], 0),
    ("induce_cocycle_scalar.json",
     ["induce-cocycle", "gl11.json", "--phi", "omega_cocycle.json"], 0),
    ("induce_cocycle_adjoint.json",
     ["induce-cocycle", "gl11.json", "--phi", "phi_ad.json"], 0),
    ("transfer_checks_gl11.json", ["transfer-checks", "gl11.json"], 0),
    ("err_malformed_key.json", ["check", "binary", "malformed_key.json"], 2),
    ("err_malformed_rational.json",
     ["check", "binary", "malformed_rational.json"], 2),
]


def run_cli(argv, expect):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != expect:
        raise SystemExit(f"regen: homnambu {' '.join(argv)} exited {code}, "
                         f"wanted {expect}\n{buf.getvalue()}")
    return buf.getvalue()


def write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def integral(v):
    scale = lcm(*(c.denominator for c in v)) if any(v) else 1
    return tuple(c * scale for c in v)


def even_scalar_cocycle(g):
    basis = cocycles(g, "binary-scalar", 2, 0)
    if len(basis) != 1:
        raise SystemExit(f"regen: expected a one dimensional even cocycle "
                         f"space, got {len(basis)}")
    return Cochain("binary-scalar", 2, 0, g.space, integral(basis[0]))


def two_twists():
    """gl(1|1) with its induced bracket and alpha2 = central_twist(1, 1)."""
    lie, rep = glmn(1, 1)
    t = induce_ternary(lie, trace_functional(rep), lie.alpha,
                       central_twist(1, 1))
    return DocumentBundle("gl11-two-twists", lie, rep, t)


def main(root=FIX):
    root = Path(root)
    (root / "golden").mkdir(parents=True, exist_ok=True)

    g11, r11 = gl11()
    for name, bundle in (
            ("a0", DocumentBundle("a0", *a0())),
            ("aff1", DocumentBundle("aff1", *aff1())),
            ("gl11", DocumentBundle("gl11", g11, r11)),
            ("gl11t2", DocumentBundle("gl11t2", *gl11t())),
            ("neg_jacobi", DocumentBundle("neg-jacobi", neg_jacobi())),
            ("neg_mult", DocumentBundle("neg-mult", neg_mult())),
            ("neg_rep", DocumentBundle("neg-rep", g11, neg_rep())),
            ("neg_nambu", DocumentBundle("neg-nambu", g11, None, neg_nambu())),
            ("gl11_two_twists", two_twists())):
        write_document(root / f"{name}.json", bundle)

    # hand-written malformed inputs; these must stay byte-for-byte intact
    basis = [{"id": "h1", "parity": 0}, {"id": "h2", "parity": 0},
             {"id": "q", "parity": 1}, {"id": "p", "parity": 1}]
    write_json(root / "malformed_key.json",
               {"name": "malformed-key", "basis": basis,
                "bracket": {"q,h1": {"q": "-1"}}})
    write_json(root / "malformed_rational.json",
               {"name": "malformed-rational", "basis": basis,
                "bracket": {"h1,q": {"q": "1/0"}}})
    write_json(root / "unknown_key.json",
               {"name": "unknown-key", "basis": basis,
                "bracket": {"h1,q": {"q": "1"}}, "alpah": {"h1": {"h1": "2"}}})

    om = even_scalar_cocycle(g11)
    if not is_binary_cocycle(g11, om):
        raise SystemExit("regen: omega_cocycle is not closed")
    write_json(root / "omega_cocycle.json", serialize_cochain(om))

    n2 = cochain_length("binary-scalar", 2, g11.space)
    bad = [Fraction(0)] * n2
    sel = parity_support("binary-scalar", 2, g11.space, 0)
    bad[sel[0]] = Fraction(1)
    om_bad = Cochain("binary-scalar", 2, 0, g11.space, tuple(bad))
    if is_binary_cocycle(g11, om_bad):
        raise SystemExit("regen: omega_bad is unexpectedly closed")
    write_json(root / "omega_bad.json", serialize_cochain(om_bad))

    zad = binary_adjoint_cocycle_space(g11, 0)
    phi = Cochain("binary-adjoint", 2, 0, g11.space,
                  integral(next(iter(zad.vectors()))))
    if not is_binary_cocycle(g11, phi):
        raise SystemExit("regen: phi_ad is not a cyclic cocycle")
    write_json(root / "phi_ad.json", serialize_cochain(phi))

    write_json(root / "lambda_h1.json", {"values": {"h1": "1", "c": "1"}})

    for golden, argv, expect in GOLDEN:
        argv = [str(root / a) if a.endswith(".json") else a for a in argv]
        (root / "golden" / golden).write_text(run_cli(argv, expect),
                                              encoding="utf-8")

    n_fix = len(list(root.glob("*.json")))
    n_gold = len(list(root.glob("golden/*.json")))
    print(f"regenerated {n_fix} fixtures and {n_gold} golden files")


if __name__ == "__main__":
    main(*sys.argv[1:2])
