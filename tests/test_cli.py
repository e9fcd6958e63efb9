"""Command line behaviour pinned against the golden corpus."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from homnambu import cli, cohomology, ternary
from homnambu.cli import main
from homnambu.fixtures import central_twist, glmn
from homnambu.formats import DocumentBundle, write_document
from homnambu.linalg import Subspace
from homnambu.report import Report
from homnambu.reps import trace_functional
from homnambu.ternary import (TernaryHomLieSuper, induce_ternary,
                              verify_hom_nambu, verify_ternary_multiplicative,
                              verify_ternary_skew)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLD = FIXTURES / "golden"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


GOLDEN_CASES = [
    ("check_binary_a0.json", ["check", "binary", FIXTURES / "a0.json"], 0),
    ("check_binary_aff1.json", ["check", "binary", FIXTURES / "aff1.json"], 0),
    ("check_binary_gl11.json", ["check", "binary", FIXTURES / "gl11.json"], 0),
    ("check_binary_gl11t2.json",
     ["check", "binary", FIXTURES / "gl11t2.json"], 0),
    ("check_binary_neg_jacobi.json",
     ["check", "binary", FIXTURES / "neg_jacobi.json"], 1),
    ("check_binary_neg_mult.json",
     ["check", "binary", FIXTURES / "neg_mult.json"], 1),
    ("check_rep_gl11.json", ["check", "rep", FIXTURES / "gl11.json"], 0),
    ("check_rep_neg_rep.json",
     ["check", "rep", FIXTURES / "neg_rep.json"], 1),
    ("check_ternary_gl11_induced.json",
     ["check", "ternary", FIXTURES / "gl11_induced.json"], 0),
    ("check_ternary_neg_nambu.json",
     ["check", "ternary", FIXTURES / "neg_nambu.json"], 1),
    ("series_derived_gl11_induced.json",
     ["series", "derived", FIXTURES / "gl11_induced.json"], 0),
    ("series_central_gl11_induced.json",
     ["series", "central", FIXTURES / "gl11_induced.json"], 0),
    ("center_gl11_induced.json",
     ["center", FIXTURES / "gl11_induced.json"], 0),
    ("solvability_gl11.json", ["solvability", FIXTURES / "gl11.json"], 0),
    ("cohomology_bs1_gl11.json",
     ["cohomology", FIXTURES / "gl11.json",
      "--complex", "binary-scalar", "--degree", "1"], 0),
    ("cohomology_bs2_gl11.json",
     ["cohomology", FIXTURES / "gl11.json",
      "--complex", "binary-scalar", "--degree", "2"], 0),
    ("cohomology_ts2_induced.json",
     ["cohomology", FIXTURES / "gl11_induced.json",
      "--complex", "ternary-scalar", "--degree", "2"], 0),
    ("cohomology_ta2_induced.json",
     ["cohomology", FIXTURES / "gl11_induced.json",
      "--complex", "ternary-adjoint", "--degree", "2"], 0),
    ("extend_gl11_bad.json",
     ["extend", FIXTURES / "gl11.json",
      "--omega", FIXTURES / "omega_bad.json"], 0),
    ("extend_gl11_lambda.json",
     ["extend", FIXTURES / "gl11.json",
      "--omega", FIXTURES / "omega_cocycle.json",
      "--lambda", FIXTURES / "lambda_h1.json"], 0),
    ("induce_cocycle_scalar.json",
     ["induce-cocycle", FIXTURES / "gl11.json",
      "--phi", FIXTURES / "omega_cocycle.json"], 0),
    ("induce_cocycle_adjoint.json",
     ["induce-cocycle", FIXTURES / "gl11.json",
      "--phi", FIXTURES / "phi_ad.json"], 0),
    ("transfer_checks_gl11.json",
     ["transfer-checks", FIXTURES / "gl11.json"], 0),
    ("err_malformed_key.json",
     ["check", "binary", FIXTURES / "malformed_key.json"], 2),
    ("err_malformed_rational.json",
     ["check", "binary", FIXTURES / "malformed_rational.json"], 2),
]


@pytest.mark.parametrize("golden,argv,expect",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(golden, argv, expect):
    code, out = run(argv)
    assert code == expect
    assert out == (GOLD / golden).read_text(encoding="utf-8")


def test_induce_writes_shipped_document(tmp_path):
    out_doc = tmp_path / "out.json"
    code, out = run(["induce", FIXTURES / "gl11.json", "-o", out_doc])
    assert code == 0
    assert out == (GOLD / "induce_gl11.json").read_text(encoding="utf-8")
    assert out_doc.read_text(encoding="utf-8") == \
        (FIXTURES / "gl11_induced.json").read_text(encoding="utf-8")


def test_extend_writes_golden_document(tmp_path):
    out_doc = tmp_path / "ext.json"
    code, out = run(["extend", FIXTURES / "gl11.json",
                     "--omega", FIXTURES / "omega_cocycle.json",
                     "-o", out_doc])
    assert code == 0
    assert out == (GOLD / "extend_gl11.json").read_text(encoding="utf-8")
    assert out_doc.read_text(encoding="utf-8") == \
        (GOLD / "gl11_extended.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["induce"],
    ["extend", "--omega", FIXTURES / "omega_cocycle.json"],
], ids=["induce", "extend"])
def test_non_string_name_exits_2(tmp_path, argv):
    """A document name that is not a string is unusable input, refused
    before a derived document's name is built from it."""
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(doc, name=5)), "utf-8")
    out_doc = tmp_path / "out.json"
    code, out = run([argv[0], path, *argv[1:], "-o", out_doc])
    assert code == 2
    assert json.loads(out)["error"] == "document name must be a string"
    assert not out_doc.exists()


def test_missing_file_exits_2(tmp_path):
    code, out = run(["check", "binary", tmp_path / "absent.json"])
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"command", "error"}
    assert doc["command"] == "check binary"


def test_error_payload_is_compact_json():
    code, out = run(["check", "binary", FIXTURES / "malformed_key.json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "bracket key 'q,h1' is not canonical"
    assert out == json.dumps(doc, sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_pretty_flag_same_payload():
    code_c, compact = run(["check", "binary", FIXTURES / "gl11.json"])
    code_p, pretty = run(["check", "binary", FIXTURES / "gl11.json",
                          "--pretty"])
    assert code_c == code_p == 0
    assert json.loads(compact) == json.loads(pretty)
    assert pretty.count("\n") > compact.count("\n")


def test_binary_adjoint_not_a_cli_complex():
    with pytest.raises(SystemExit):
        run(["cohomology", str(FIXTURES / "gl11.json"),
             "--complex", "binary-adjoint", "--degree", "2"])


def test_cochain_parity_must_be_a_bit(tmp_path):
    phi = json.loads((FIXTURES / "omega_cocycle.json").read_text("utf-8"))
    for parity in ("x", 2):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(dict(phi, parity=parity)), "utf-8")
        code, out = run(["induce-cocycle", FIXTURES / "gl11.json",
                         "--phi", path])
        assert code == 2, parity
        assert json.loads(out)["error"].startswith("cochain parity")


def test_extended_document_checks_clean(tmp_path):
    code, out = run(["check", "binary", GOLD / "gl11_extended.json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("kind", ["derived", "central"])
@pytest.mark.parametrize("doc", ["gl11.json", "gl11_induced.json"])
def test_series_ideal_of_wrong_dimension_exits_2(doc, kind, monkeypatch):
    """An ideal of another ambient dimension is an input error on the binary
    and the ternary side, reported with exit 2, not a wrong series."""
    monkeypatch.setattr(cli, "_ideal_from_ids",
                        lambda bundle, spec: Subspace.full(bundle.lie.dim + 1))
    code, out = run(["series", kind, FIXTURES / doc, "--ideal", "h1"])
    assert code == 2
    assert json.loads(out)["command"] == "series"


def mixed_document(tmp_path):
    """gl(1|1) and its representation with neg_nambu's ternary bracket and
    second twist: a ternary section that is not the induced one."""
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    neg = json.loads((FIXTURES / "neg_nambu.json").read_text("utf-8"))
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(dict(doc, ternary=neg["ternary"],
                                    alpha2=neg["alpha2"])), "utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ["transfer-checks"],
    ["induce-cocycle", "--phi", FIXTURES / "omega_cocycle.json"],
], ids=["transfer-checks", "induce-cocycle"])
def test_transfer_commands_refuse_a_ternary_that_was_not_induced(tmp_path,
                                                                 argv):
    """The transfer theorems are about the induced bracket: a document whose
    ternary section differs from it is a precondition error, not a verdict
    on the document's own bracket."""
    code, out = run([argv[0], mixed_document(tmp_path), *argv[1:]])
    assert code == 2
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert "not the one induced" in doc["error"]


def test_transfer_commands_accept_the_induced_ternary():
    code, out = run(["transfer-checks", FIXTURES / "gl11_induced.json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out = run(["induce-cocycle", FIXTURES / "gl11_induced.json",
                     "--phi", FIXTURES / "omega_cocycle.json"])
    assert code == 0
    assert out == (GOLD / "induce_cocycle_scalar.json").read_text("utf-8")


def test_transfer_and_adjoint_cohomology_on_gl21(tmp_path):
    """gl(2|1), dimension 9: coboundaries applied to cochains, and the
    adjoint complex eliminated, beyond the shipped 4-dimensional
    documents."""
    path = tmp_path / "gl21.json"
    write_document(path, DocumentBundle("gl21", *glmn(2, 1)))
    code, out = run(["transfer-checks", path])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out = run(["cohomology", path, "--complex", "ternary-adjoint",
                     "--degree", "2"])
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert (metrics["Z"], metrics["B"], metrics["H"]) == (41, 36, 5)


@pytest.mark.parametrize("broken", [False, True], ids=["plain", "broken"])
def test_check_ternary_with_two_twists_runs_the_full_join(tmp_path,
                                                          monkeypatch, broken):
    """Every golden check ternary document has alpha2 = alpha, so none
    reaches ternary._join.  gl(1|1) with its induced bracket, alone or with
    [E0_0,E0_1,E1_0] = E0_0 in every order, and alpha2 =
    central_twist(1, 1) does: the exit code and the report are those of
    the library's three checks."""
    lie, rep = glmn(1, 1)
    t = induce_ternary(lie, trace_functional(rep), lie.alpha,
                       central_twist(1, 1))
    if broken:
        t = TernaryHomLieSuper(t.space, t.bracket.with_canonical(
            (0, 2, 3), (1, 0, 0, 0)), t.alpha1, t.alpha2)
    path = tmp_path / "gl11_two_twists.json"
    write_document(path, DocumentBundle("gl11-two-twists", lie, rep, t))
    want = Report("check ternary")
    for check in (verify_ternary_skew, verify_hom_nambu,
                  verify_ternary_multiplicative):
        want.absorb(check(t))

    def refuse(*args):
        raise AssertionError("the orbit join ran")

    monkeypatch.setattr(ternary, "_orbit_join", refuse)
    code, out = run(["check", "ternary", path])
    assert (code, out) == (1 if broken else 0, want.render())
    assert json.loads(out)["verdict"] == ("fail" if broken else "pass")


def test_oversized_coboundary_exits_2_before_building_rows(tmp_path,
                                                          monkeypatch):
    """gl(2|2) ternary-scalar H^3 needs delta3 on 128^3 * 16 rows: over the
    row cap, so the command exits 2 with the count, building no rows."""
    path = tmp_path / "gl22.json"
    write_document(path, DocumentBundle("gl22", *glmn(2, 2)))

    def refuse(*args):
        raise AssertionError("a coboundary was built")

    monkeypatch.setattr(cohomology, "_BUILDERS",
                        dict.fromkeys(cohomology._BUILDERS, refuse))
    start = time.perf_counter()
    error = assert_error_report(*run(
        ["cohomology", path, "--complex", "ternary-scalar", "--degree", "3"]),
        "cohomology")
    assert time.perf_counter() - start < 2
    assert "33554432 rows" in error


def test_unbuilt_cohomology_degree_exits_2():
    error = assert_error_report(*run(
        ["cohomology", FIXTURES / "gl11_induced.json",
         "--complex", "ternary-adjoint", "--degree", "3"]), "cohomology")
    assert "ternary-adjoint" in error


def test_seed_and_rmax_only_where_read():
    with pytest.raises(SystemExit) as exc:
        run(["center", FIXTURES / "gl11_induced.json", "--rmax", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["series", "derived", FIXTURES / "gl11.json", "--seed", "1"])
    assert exc.value.code == 2
    code, out = run(["series", "derived", FIXTURES / "gl11_induced.json",
                     "--rmax", "2"])
    assert code == 0
    assert json.loads(out)["metrics"]["dims"] == [4, 1, 0]
    code, out = run(["transfer-checks", FIXTURES / "gl11.json",
                     "--seed", "5"])
    assert code == 0


def test_series_bound_below_one_exits_2():
    # a bound of 2 still runs: test_seed_and_rmax_only_where_read
    for rmax in ("0", "-1"):
        code, out = run(["series", "derived", FIXTURES / "gl11_induced.json",
                         "--rmax", rmax])
        assert code == 2, rmax
        doc = json.loads(out)
        assert doc["command"] == "series" and "bound" in doc["error"], doc


def test_every_golden_file_is_read_by_a_test():
    """tools/regen_fixtures.py never deletes: a golden file that no case
    names would go stale unseen."""
    written = {"induce_gl11.json", "extend_gl11.json", "gl11_extended.json"}
    named = {case[0] for case in GOLDEN_CASES} | written
    assert {p.name for p in GOLD.iterdir()} == named


def gl11_text(value: str) -> str:
    """gl11.json with its [h1,q] coefficient written as the raw JSON text
    value."""
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    doc["bracket"]["h1,q"]["q"] = "MARK"
    return json.dumps(doc).replace('"MARK"', value)


def assert_error_report(code, out, command="check binary"):
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"command", "error"}
    assert doc["command"] == command
    return doc["error"]


@pytest.mark.parametrize("content", [
    ("[" * 200000 + "]" * 200000).encode(),
    gl11_text('"\udcff"').encode("utf-8", "surrogateescape"),
    gl11_text("1" * 5000).encode(),
    gl11_text('"' + "1" * 5000 + '"').encode(),
], ids=["nested-200000-deep", "not-utf-8", "bare-int-5000-digits",
        "rational-5000-digits"])
def test_hostile_document_exits_2(tmp_path, content):
    """Input Python cannot read is malformed input, exit 2 with a report;
    exit 1 would claim a verification failed."""
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    assert_error_report(*run(["check", "binary", path]))


@pytest.mark.parametrize("bid", [5, None, {"k": 1}, "h1,h2"],
                         ids=["int", "null", "object", "comma"])
def test_basis_ids_must_be_strings_without_commas(tmp_path, bid):
    """An id is never coerced with str(); one holding ',' would be written
    into bracket keys that cannot be read back."""
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    doc["basis"][0]["id"] = bid
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc), "utf-8")
    error = assert_error_report(*run(["check", "binary", path]))
    assert error.startswith("basis id")


def test_representation_matrix_for_unknown_id_exits_2(tmp_path):
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    doc["representation"]["matrices"]["zz"] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc), "utf-8")
    error = assert_error_report(*run(["check", "rep", path]), "check rep")
    assert error == "unknown basis element 'zz'"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every call of the console script imports the package afresh, so
    the records are built without the standard library's dataclasses,
    which would load inspect and typing.  A fresh interpreter without
    site, so nothing else can load them first."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\nimport homnambu.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
