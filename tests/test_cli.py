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
from homnambu.fixtures import glmn
from homnambu.formats import DocumentBundle, read_document, write_document
from homnambu.linalg import Subspace
from homnambu.report import Report
from homnambu.ternary import (TernaryHomLieSuper, verify_hom_nambu,
                              verify_ternary_multiplicative,
                              verify_ternary_skew)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLD = FIXTURES / "golden"
TS2 = ["--complex", "ternary-scalar", "--degree", "2"]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def json_files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.json"))


def test_regenerated_corpus_has_the_shipped_files(corpus):
    """tools/regen_fixtures.py never deletes: a shipped file it no longer
    writes would go stale unseen, and one it writes but nobody ships is
    never compared."""
    assert json_files(corpus) == json_files(FIXTURES)


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLD.glob("*.json")))
def test_golden_output(corpus, golden):
    """What a golden call of tools/regen_fixtures.py prints, or writes
    with -o, is the shipped golden file byte for byte."""
    assert (corpus / "golden" / golden).read_bytes() == \
        (GOLD / golden).read_bytes()


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


@pytest.mark.parametrize("argv", [
    ["induce"],
    ["extend", "--omega", FIXTURES / "omega_cocycle.json"],
], ids=["induce", "extend"])
def test_unwritable_output_exits_2(tmp_path, argv):
    """An output path that cannot be written, here in a missing directory,
    is refused as input with the one-line error, as an unreadable input
    is, not with a traceback and the exit code of a failed check."""
    out_doc = tmp_path / "missing" / "out.json"
    code, out = run([argv[0], FIXTURES / "gl11.json", *argv[1:],
                     "-o", out_doc])
    assert code == 2
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert doc["error"].startswith(f"cannot write {out_doc}: ")
    assert out.count("\n") == 1


def test_missing_file_exits_2(tmp_path):
    code, out = run(["check", "binary", tmp_path / "absent.json"])
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"command", "error"}
    assert doc["command"] == "check binary"


def test_repeated_key_exits_2(tmp_path):
    # "h1,q" written twice, the second time as {"q": "7"}: read as its last
    # value it would break Hom-Jacobi and exit 1
    entry = '"h1,q": {\n   "q": "1"\n  },'
    text = (FIXTURES / "gl11.json").read_text("utf-8")
    assert entry in text
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(entry, entry + '\n  "h1,q": {"q": "7"},'),
                    "utf-8")
    code, out = run(["check", "binary", path])
    assert code == 2
    assert json.loads(out) == {"command": "check binary",
                               "error": f"repeated key 'h1,q' in {path}"}


def test_error_payload_is_compact_json():
    code, out = run(["check", "binary", FIXTURES / "malformed_key.json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "bracket key 'q,h1' is not canonical"
    assert out == json.dumps(doc, sort_keys=True,
                             separators=(",", ":")) + "\n"


# refusals of shipped inputs that no golden call makes yet: each becomes a
# row of tools/regen_fixtures.GOLDEN once the benchmark reads that table
@pytest.mark.parametrize("command,doc,options,error", [
    ("check binary", "unknown_key.json", [], "unknown key 'alpah' in document"),
    # not Hom-Nambu, so delta2 delta1 != 0: the error names the identity
    # and verify_hom_nambu's first witness
    ("cohomology", "neg_nambu.json", TS2, "coboundary escaped the cocycle "
     "space: the algebra breaks hom-nambu at (h1, q, q, p, p)"),
    ("cohomology", "gl11_two_twists.json", TS2,
     "ternary cohomology needs alpha1 = alpha2"),
], ids=["unknown_key", "ts2_neg_nambu", "ts2_gl11_two_twists"])
def test_shipped_input_is_refused_with_exit_2(command, doc, options, error):
    code, out = run([*command.split(), FIXTURES / doc, *options])
    assert code == 2
    assert out == json.dumps({"command": command, "error": error},
                             separators=(",", ":")) + "\n"


def test_pretty_flag_same_payload():
    code_c, compact = run(["check", "binary", FIXTURES / "gl11.json"])
    code_p, pretty = run(["check", "binary", FIXTURES / "gl11.json",
                          "--pretty"])
    assert code_c == code_p == 0
    assert json.loads(compact) == json.loads(pretty)
    assert pretty.count("\n") > compact.count("\n")


def usage_error(argv, command):
    """The argparse message of a refused command line, after checking it
    got the one-line exit-2 report of that command."""
    code, out = run(argv)
    assert code == 2, argv
    assert out.endswith("\n") and out.count("\n") == 1, out
    doc = json.loads(out)
    assert set(doc) == {"command", "error"} and doc["command"] == command
    return doc["error"]


def test_binary_adjoint_not_a_cli_complex():
    error = usage_error(["cohomology", FIXTURES / "gl11.json", "--complex",
                         "binary-adjoint", "--degree", "2"], "cohomology")
    assert error.startswith("argument --complex: invalid choice: "
                            "'binary-adjoint'")


def test_usage_errors_get_the_error_report_and_help_is_unchanged(capsys):
    assert usage_error([], "homnambu").startswith(
        "the following arguments are required")
    assert "invalid choice: 'nope'" in usage_error(
        ["check", "nope", FIXTURES / "gl11.json"], "check")
    assert "--degree" in usage_error(
        ["cohomology", FIXTURES / "gl11.json", "--complex",
         "binary-scalar"], "cohomology")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: homnambu check [-h] [--pretty]")


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


@pytest.mark.parametrize("argv, line", [
    (["series", "derived"],
     '{"command":"series derived","findings":[],"metrics":{"class_index":3,'
     '"dims":[4,3,1,0,0],"stabilized":true},"verdict":"pass"}'),
    (["series", "central"],
     '{"command":"series central","findings":[],"metrics":{"class_index":'
     'null,"dims":[4,3,3],"stabilized":true},"verdict":"pass"}'),
    (["series", "derived", "--ideal", "q"],
     '{"command":"series derived","findings":[{"check":"not-an-ideal",'
     '"detail":"series still computed","status":"note"}],"metrics":'
     '{"class_index":1,"dims":[1,0,0],"stabilized":true},"verdict":"pass"}'),
    (["center"],
     '{"command":"center","findings":[],"metrics":{"basis":[["1","1","0",'
     '"0"]],"dim":1},"verdict":"pass"}'),
], ids=["series-derived", "series-central", "series-derived-ideal-q",
        "center"])
def test_binary_document_series_and_center(argv, line):
    """gl11.json carries no ternary section, so series and center run on
    its binary bracket: one is_ideal and one series call serve either
    arity.  No golden call covers these lines, so they are pinned here."""
    code, out = run([*argv, FIXTURES / "gl11.json"])
    assert code == 0
    assert out == line + "\n"


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
    """fixtures/gl11_two_twists.json, gl(1|1) with its induced bracket and
    alpha2 = central_twist(1, 1), alone or with [E0_0,E0_1,E1_0] = E0_0 in
    every order, takes ternary._join, not the orbit join: the exit code
    and the report are those of the library's three checks."""
    bundle = read_document(FIXTURES / "gl11_two_twists.json")
    t = bundle.ternary
    if broken:
        t = TernaryHomLieSuper(t.space, t.bracket.with_canonical(
            (0, 2, 3), (1, 0, 0, 0)), t.alpha1, t.alpha2)
    path = tmp_path / "gl11_two_twists.json"
    write_document(path, DocumentBundle(bundle.name, bundle.lie, bundle.rep, t))
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


def test_transfer_checks_walk_the_ternary_delta2_once_per_theorem(
        tmp_path, monkeypatch):
    """transfer-checks on gl(2|1) checks its six lemma cochains in one
    call and its three class pairs in another, so the ternary-scalar
    delta2 is walked twice in all, never once per cochain, and no
    coboundary row outlives its walk: every algebra's memo ends up holding
    its grading alone.  On the binary side the cocycle basis is solved
    once, the three class pairs share one d_s^1 matrix and the six lemma
    cochains and the three shifts one application each, so d_s^1 is
    walked four times, not once per cochain.  d_s^2 is walked three
    times: the cocycle basis, the lemma's six d_s^1 omega, and the six
    class cochains, checked once for being cocycles."""
    path = tmp_path / "gl21.json"
    write_document(path, DocumentBundle("gl21", *glmn(2, 1)))
    walks = []
    walk = cohomology._walk

    def spy(obj, cx, degree):
        walks.append((obj, cx, degree))
        return walk(obj, cx, degree)

    monkeypatch.setattr(cohomology, "_walk", spy)
    code, out = run(["transfer-checks", path])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    shapes = [w[1:] for w in walks]
    assert shapes.count(("ternary-scalar", 2)) == 2
    assert shapes.count(("binary-scalar", 1)) == 4
    assert shapes.count(("binary-scalar", 2)) == 3
    for obj in {id(obj): obj for obj, _, _ in walks}.values():
        assert set(obj.memo) == {"grading"}


def test_transfer_checks_refuse_a_twist_that_moves_the_trace(tmp_path):
    """With alpha = 0 on gl(1|1), the first induced cochain reaches the
    tau o alpha = tau check, which fails before any ternary cocycle check:
    exit 2 with that check's message."""
    doc = json.loads((FIXTURES / "gl11.json").read_text("utf-8"))
    doc["alpha"] = {}
    path = tmp_path / "gl11_alpha0.json"
    path.write_text(json.dumps(doc), "utf-8")
    error = assert_error_report(*run(["transfer-checks", path]),
                                "transfer-checks")
    assert error == "trace functional is not twist invariant"


def test_unbuilt_cohomology_degree_exits_2():
    error = assert_error_report(*run(
        ["cohomology", FIXTURES / "gl11_induced.json",
         "--complex", "ternary-adjoint", "--degree", "3"]), "cohomology")
    assert "ternary-adjoint" in error


def test_seed_and_rmax_only_where_read():
    assert usage_error(["center", FIXTURES / "gl11_induced.json", "--rmax",
                        "3"], "center") == "unrecognized arguments: --rmax 3"
    assert usage_error(["series", "derived", FIXTURES / "gl11.json",
                        "--seed", "1"],
                       "series") == "unrecognized arguments: --seed 1"
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
    which would load inspect and typing, and random is imported only by
    transfer-checks, which reads it.  A fresh interpreter without site,
    so nothing else can load them first."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\nimport homnambu.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'random'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
