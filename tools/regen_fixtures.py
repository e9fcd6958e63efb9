"""Regenerate the shipped fixture corpus and the golden CLI outputs.

Run from the repository root:

    python3 tools/regen_fixtures.py

Every golden file is the exact stdout of one CLI invocation; the script
aborts if an invocation exits with an unexpected code, so the corpus can
only be regenerated from a working tree.
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
from homnambu.fixtures import (a0, aff1, gl11, gl11t, neg_jacobi, neg_mult,
                               neg_nambu, neg_rep)
from homnambu.formats import (DocumentBundle, serialize_cochain,
                              write_document)

FIX = ROOT / "fixtures"
GOLD = FIX / "golden"


def run_cli(argv, expect):
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != expect:
        raise SystemExit(f"regen: homnambu {' '.join(argv)} exited {code}, "
                         f"wanted {expect}\n{buf.getvalue()}")
    return buf.getvalue()


def golden(name, argv, expect=0):
    (GOLD / name).write_text(run_cli(argv, expect), encoding="utf-8")


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


def main():
    FIX.mkdir(exist_ok=True)
    GOLD.mkdir(exist_ok=True)

    g_a0, r_a0 = a0()
    g_aff, r_aff = aff1()
    g11, r11 = gl11()
    g11t, r11t = gl11t()
    write_document(FIX / "a0.json", DocumentBundle("a0", g_a0, r_a0))
    write_document(FIX / "aff1.json", DocumentBundle("aff1", g_aff, r_aff))
    write_document(FIX / "gl11.json", DocumentBundle("gl11", g11, r11))
    write_document(FIX / "gl11t2.json", DocumentBundle("gl11t2", g11t, r11t))

    write_document(FIX / "neg_jacobi.json",
                   DocumentBundle("neg-jacobi", neg_jacobi()))
    write_document(FIX / "neg_mult.json",
                   DocumentBundle("neg-mult", neg_mult()))
    write_document(FIX / "neg_rep.json",
                   DocumentBundle("neg-rep", g11, neg_rep()))
    write_document(FIX / "neg_nambu.json",
                   DocumentBundle("neg-nambu", g11, None, neg_nambu()))

    # hand-written malformed inputs; these must stay byte-for-byte intact
    basis = [{"id": "h1", "parity": 0}, {"id": "h2", "parity": 0},
             {"id": "q", "parity": 1}, {"id": "p", "parity": 1}]
    write_json(FIX / "malformed_key.json",
               {"name": "malformed-key", "basis": basis,
                "bracket": {"q,h1": {"q": "-1"}}})
    write_json(FIX / "malformed_rational.json",
               {"name": "malformed-rational", "basis": basis,
                "bracket": {"h1,q": {"q": "1/0"}}})

    om = even_scalar_cocycle(g11)
    if not is_binary_cocycle(g11, om):
        raise SystemExit("regen: omega_cocycle is not closed")
    write_json(FIX / "omega_cocycle.json", serialize_cochain(om))

    n2 = cochain_length("binary-scalar", 2, g11.space)
    bad = [Fraction(0)] * n2
    sel = parity_support("binary-scalar", 2, g11.space, 0)
    bad[sel[0]] = Fraction(1)
    om_bad = Cochain("binary-scalar", 2, 0, g11.space, tuple(bad))
    if is_binary_cocycle(g11, om_bad):
        raise SystemExit("regen: omega_bad is unexpectedly closed")
    write_json(FIX / "omega_bad.json", serialize_cochain(om_bad))

    zad = binary_adjoint_cocycle_space(g11, 0)
    phi = Cochain("binary-adjoint", 2, 0, g11.space,
                  integral(next(iter(zad.vectors()))))
    if not is_binary_cocycle(g11, phi):
        raise SystemExit("regen: phi_ad is not a cyclic cocycle")
    write_json(FIX / "phi_ad.json", serialize_cochain(phi))

    write_json(FIX / "lambda_h1.json", {"values": {"h1": "1", "c": "1"}})

    for name in ("a0", "aff1", "gl11", "gl11t2"):
        golden(f"check_binary_{name}.json",
               ["check", "binary", FIX / f"{name}.json"])
    golden("check_binary_neg_jacobi.json",
           ["check", "binary", FIX / "neg_jacobi.json"], expect=1)
    golden("check_binary_neg_mult.json",
           ["check", "binary", FIX / "neg_mult.json"], expect=1)
    golden("check_rep_gl11.json", ["check", "rep", FIX / "gl11.json"])
    golden("check_rep_neg_rep.json",
           ["check", "rep", FIX / "neg_rep.json"], expect=1)

    golden("induce_gl11.json",
           ["induce", FIX / "gl11.json", "-o", FIX / "gl11_induced.json"])
    golden("check_ternary_gl11_induced.json",
           ["check", "ternary", FIX / "gl11_induced.json"])
    golden("check_ternary_neg_nambu.json",
           ["check", "ternary", FIX / "neg_nambu.json"], expect=1)

    golden("series_derived_gl11_induced.json",
           ["series", "derived", FIX / "gl11_induced.json"])
    golden("series_central_gl11_induced.json",
           ["series", "central", FIX / "gl11_induced.json"])
    golden("center_gl11_induced.json", ["center", FIX / "gl11_induced.json"])
    golden("solvability_gl11.json", ["solvability", FIX / "gl11.json"])

    golden("cohomology_bs1_gl11.json",
           ["cohomology", FIX / "gl11.json",
            "--complex", "binary-scalar", "--degree", 1])
    golden("cohomology_bs2_gl11.json",
           ["cohomology", FIX / "gl11.json",
            "--complex", "binary-scalar", "--degree", 2])
    golden("cohomology_ts2_induced.json",
           ["cohomology", FIX / "gl11_induced.json",
            "--complex", "ternary-scalar", "--degree", 2])
    golden("cohomology_ta2_induced.json",
           ["cohomology", FIX / "gl11_induced.json",
            "--complex", "ternary-adjoint", "--degree", 2])

    golden("extend_gl11.json",
           ["extend", FIX / "gl11.json", "--omega", FIX / "omega_cocycle.json",
            "-o", GOLD / "gl11_extended.json"])
    golden("extend_gl11_bad.json",
           ["extend", FIX / "gl11.json", "--omega", FIX / "omega_bad.json"])
    golden("extend_gl11_lambda.json",
           ["extend", FIX / "gl11.json", "--omega", FIX / "omega_cocycle.json",
            "--lambda", FIX / "lambda_h1.json"])

    golden("induce_cocycle_scalar.json",
           ["induce-cocycle", FIX / "gl11.json",
            "--phi", FIX / "omega_cocycle.json"])
    golden("induce_cocycle_adjoint.json",
           ["induce-cocycle", FIX / "gl11.json", "--phi", FIX / "phi_ad.json"])

    golden("transfer_checks_gl11.json",
           ["transfer-checks", FIX / "gl11.json"])

    golden("err_malformed_key.json",
           ["check", "binary", FIX / "malformed_key.json"], expect=2)
    golden("err_malformed_rational.json",
           ["check", "binary", FIX / "malformed_rational.json"], expect=2)

    n_fix = len(list(FIX.glob("*.json")))
    n_gold = len(list(GOLD.glob("*.json")))
    print(f"regenerated {n_fix} fixtures and {n_gold} golden files")


if __name__ == "__main__":
    main()
