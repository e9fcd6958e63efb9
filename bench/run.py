"""Benchmark of the homnambu workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run repeats passes of the
workload, each in a fresh interpreter, until S seconds have gone by, and
always finishes at least one pass; it then sets the workload up in fresh
interpreters until it has three set-up times.  With --trace 0 it prints
every end-to-end metric by name and unit; with --trace 1 it runs passes
in pairs, one plain and one traced, and prints the per-layer table.  The
last line of stdout is one JSON object with the result.

One process drives the program as one client in a closed loop: each op
starts when the previous one has finished, and nothing runs beside it.
"""

import argparse
import compileall
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hom-nambu-gl21", "cohomology-ladder", "structure-gl22", "cli-golden")
SETUPS = 3
# a run must end within 180 s; no child may start a pass past this
BUDGET_S = 170.0
# what the program must ship for the workloads to run
NEEDS = ("src/homnambu/cli.py", "fixtures/gl11.json", "fixtures/golden/induce_gl11.json")


def nearest_rank(sorted_vals, pct):
    return sorted_vals[max(1, math.ceil(pct * len(sorted_vals) / 100)) - 1]


def tail_pct(n):
    """The highest whole percentile with at least ten samples beyond it.

    Below 20 samples no percentile above the median has ten beyond it,
    and the tail is reported at the median.
    """
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def run_child(mode, workload, seed, trace, tmp, deadline):
    result = Path(tempfile.mkstemp(dir=tmp, suffix=".json")[1])
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           str(int(trace)), str(result), str(tmp)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(cmd, env=env, cwd=tmp, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except BaseException as exc:
        # the child and any CLI process it started share its session
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"bench: {mode} of {workload} ran past the time budget") from None
        raise
    if proc.returncode != 0 or result.stat().st_size == 0:
        raise SystemExit(f"bench: {mode} of {workload} exited {proc.returncode}\n"
                         + err.decode(errors="replace")[-2000:])
    return json.loads(result.read_text())


def seconds(record):
    """An op's seconds, scaled to the reference host (see hostspeed)."""
    return record[1] * record[3]


def wall(p):
    return sum(seconds(r) for r in p["records"])


def e2e_metrics(workload, passes, setups):
    """An invocation is one process a user starts: one CLI call in
    cli-golden, one whole session (set-up and ops) in the library
    workloads."""
    # one pass with each op at its median over the run's passes, so a
    # burst of load on the host that hits one pass does not move it
    per_op = zip(*([seconds(r) for r in p["records"]] for p in passes))
    pass_s = sum(statistics.median(ts) for ts in per_op)
    if workload == "cli-golden":
        lat = [seconds(r) * 1000 for p in passes for r in p["records"]]
    else:
        lat = [(p["setup_s"] + wall(p)) * 1000 for p in passes]
    lat.sort()
    pct = tail_pct(len(lat))
    return {
        "wall_s": (pass_s, "s"),
        "invocation_p50_ms": (nearest_rank(lat, 50), "ms"),
        "invocation_tail_ms": (nearest_rank(lat, pct), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }, f"invocation_tail_ms is p{pct} of n={len(lat)} invocations"


def layer_metrics(plain, traced):
    """Per-layer metrics of one traced pass; counts are exact per pass."""
    m = {}
    for name, (incl, self_s, calls) in traced["layers"].items():
        m[f"{name}.s"] = (incl, "s")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.calls"] = (calls, "count")
    c = traced["counts"]
    for key in ("ternary.verify_hom_nambu.tuples", "ternary.verify_hom_nambu.violations",
                "linalg.rref.cells", "linalg.rref.nnz",
                "cohomology.coboundary_matrix.cells", "cohomology.coboundary_matrix.nnz"):
        m[key] = (c.get(key, 0), "count")
    m["ternary.nonzero_triple_frac"] = (
        c["ternary.nonzero_triples"] / c["ternary.triples"] if c.get("ternary.triples") else 0.0,
        "ratio")
    m["linalg.rref.pivot_frac"] = (
        c["linalg.rref.rank"] / c["linalg.rref.rows"] if c.get("linalg.rref.rows") else 0.0,
        "ratio")
    m["cli.import_s"] = (traced.get("cli.import_s", 0.0), "s")
    m["cli.interp_s"] = (traced.get("cli.interp_s", 0.0), "s")
    m["bench.trace_overhead_frac"] = ((wall(traced) - wall(plain)) / wall(plain), "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"bench: stopped by signal {signum}"))
    missing = [n for n in NEEDS if not (ROOT / n).is_file()]
    if missing:
        raise SystemExit(f"bench: not a homnambu checkout, missing {missing}")
    start = perf_counter()
    deadline = start + BUDGET_S
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        passes, traced = [], []
        while not passes or perf_counter() - start < args.seconds:
            passes.append(run_child("pass", args.workload, args.seed, False, tmp, deadline))
            if args.trace:
                traced.append(run_child("pass", args.workload, args.seed, True, tmp, deadline))
        setups = [p["setup_s"] for p in passes + traced]
        while len(setups) < SETUPS:
            setups.append(run_child("setup", args.workload, args.seed, False, tmp,
                                    deadline)["setup_s"])
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps([t.pop("spans") for t in traced]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any((ROOT / ".bench_tmp").iterdir()):
            (ROOT / ".bench_tmp").rmdir()

    records = [r for p in passes + traced for r in p["records"]]
    failed = [r for r in records if r[2] is not None]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} plain and "
          f"{len(traced)} traced passes in {perf_counter() - start:.1f} s")
    print(f"env python {platform.python_version()} nproc {os.cpu_count()} "
          f"host {platform.node()} {platform.machine()}")
    raw = statistics.median(sum(r[1] for r in p["records"]) for p in passes)
    speed = statistics.median(r[3] for r in records)
    print(f"host speed {speed:.3f} of reference (median over ops); "
          f"unscaled pass wall time {raw:.3f} s")
    print(f"error_rate {len(failed) / len(records):.4f} "
          f"({len(failed)} failed of {len(records)} ops attempted)")
    for name, _, err, _ in failed:
        print(f"  FAILED {name}: {err}")
    if args.trace:
        runs = [layer_metrics(p, t) for p, t in zip(passes, traced)]
        metrics = {k: (statistics.median(r[k][0] for r in runs), v[1])
                   for k, v in runs[0].items()}
        print(f"{'layer metric':48s} {'value':>14s}  unit")
        for k, (v, unit) in metrics.items():
            print(f"{k:48s} {v:14.6f}  {unit}")
    else:
        metrics, note = e2e_metrics(args.workload, passes, setups)
        for k, (v, unit) in metrics.items():
            print(f"{k:24s} {v:14.6f}  {unit}")
        print(note)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
