"""Tests of the benchmark's own pieces: generators, oracle, metrics.

    python3 -m pytest bench
"""

import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from homnambu.cohomology import cohomology_dims  # noqa: E402
from homnambu.fixtures import neg_nambu  # noqa: E402
from homnambu.formats import read_document  # noqa: E402
from homnambu.reps import trace_functional  # noqa: E402
from homnambu.series import derived_series  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, dims_op, run_ops  # noqa: E402


def test_gl11_matches_shipped_fixture_up_to_names():
    g, r = inputs.glmn(1, 1)
    ship = read_document(ROOT / "fixtures" / "gl11.json")
    assert g.space.parities == ship.lie.space.parities
    assert g.bracket.table == ship.lie.bracket.table
    assert g.alpha.matrix == ship.lie.alpha.matrix
    assert r.module_space.parities == ship.rep.module_space.parities
    assert [m.matrix for m in r.matrices] == [m.matrix for m in ship.rep.matrices]
    assert r.beta.matrix == ship.rep.beta.matrix


def test_gl11_reproduces_shipped_dims():
    g, r = inputs.glmn(1, 1)
    t = inputs.induce(g, trace_functional(r))
    assert derived_series(t).dims() == (4, 1, 0, 0)
    assert cohomology_dims(g, "binary-scalar", 2) == (1, 1, 0)
    assert cohomology_dims(t, "ternary-scalar", 2) == (7, 1, 6)
    assert cohomology_dims(t, "ternary-adjoint", 2) == (30, 2, 28)


def test_broken_nambu_is_the_shipped_negative_on_gl11():
    g, r = inputs.glmn(1, 1)
    broken = inputs.broken_nambu(inputs.induce(g, trace_functional(r)))
    assert broken.bracket.table == neg_nambu().bracket.table


def test_seeds_change_the_conjugate_but_not_its_values():
    g, r = inputs.glmn(1, 1)
    a, _ = inputs.conjugate(g, r, random.Random(1))
    b, _ = inputs.conjugate(g, r, random.Random(2))
    assert a.bracket.table != b.bracket.table

    def values(lie):
        return sorted(abs(c) for row in lie.bracket.table for v in row for c in v)
    assert values(a) == values(b)


def test_oracle_counts_a_wrong_answer_and_goes_on():
    g, r = inputs.glmn(1, 1)
    ctx = {"t": inputs.induce(g, trace_functional(r))}
    ops = [
        dims_op("wrong", "t", "ternary-scalar", 2, (7, 1, 5)),
        Op("raises", lambda ctx: 1 / 0, workloads.anything),
        dims_op("right", "t", "ternary-scalar", 2, (7, 1, 6)),
    ]
    records = run_ops(ops, ctx)
    assert [r[0] for r in records] == [op.name for op in ops]
    assert "want (7, 1, 5)" in records[0][2]
    assert records[1][2].startswith("ZeroDivisionError")
    assert records[2][2] is None


def test_cli_oracle_flags_wrong_bytes_and_wrong_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    launch = lambda argv: [sys.executable, "-c", workloads.ENTRY, *argv]
    ops = [
        workloads.cli_op("check_binary_a0.json", ["check", "binary", "a0.json"], 0,
                         tmp_path, launch),
        workloads.cli_op("check_binary_a0.json", ["check", "binary", "aff1.json"], 0,
                         tmp_path, launch),
        workloads.cli_op("check_binary_a0.json", ["check", "binary", "a0.json"], 1,
                         tmp_path, launch),
    ]
    errs = [r[2] for r in run_ops(ops, {}, in_process=False)]
    assert errs[0] is None
    assert "stdout differs" in errs[1]
    assert errs[2].startswith("exit 0, want 1")


def test_cli_cases_cover_the_golden_corpus():
    names = {g for g, _, _ in workloads.CLI_CASES}
    shipped = {p.name for p in (ROOT / "fixtures" / "golden").glob("*.json")}
    assert len(workloads.CLI_CASES) == len(names) == 27
    assert names | {"gl11_extended.json"} == shipped


def test_tail_percentile_keeps_ten_samples_beyond_it():
    for n, pct in ((16, 50), (20, 50), (27, 62), (54, 81), (81, 87)):
        assert run.tail_pct(n) == pct
        vals = list(range(n))
        beyond = sum(1 for v in vals if v > run.nearest_rank(vals, pct))
        assert beyond >= 10 or pct == 50


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = {"setup_s": 0.1, "peak_rss_mb": 10.0, "records": [["op", 1.0, None, 1.0]]}
    traced = dict(p, layers={n: [1.0, 1.0, 1] for n in spans.span_names()},
                  counts={})
    e2e, _ = run.e2e_metrics("cli-golden", [p], [0.1])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(run.layer_metrics(p, traced)) == [m["name"] for m in spec["per_layer"]]
