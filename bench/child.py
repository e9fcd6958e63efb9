"""One fresh interpreter: set one workload up, and maybe run one pass of it.

    python3 bench/child.py setup|pass WORKLOAD SEED TRACE RESULT_JSON TMPDIR

A fresh interpreter per pass keeps the package's module-level caches from
carrying results from one pass into the next.  Set-up is the time from
here to the first op: importing the package as the CLI does, and building
or loading the workload's inputs.  The result goes to RESULT_JSON.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import homnambu.cli  # noqa: E402,F401

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LAUNCHER = Path(__file__).resolve().with_name("cli_launcher.py")


def cli_pass(tracer_files, records):
    """Per-layer numbers of a traced cli-golden pass, from its launchers.

    A launcher that died left no file; its op is already counted failed.
    """
    speeds = [r[3] for r in records]
    counts = {}
    cli = {"cli.import_s": 0.0, "cli.interp_s": 0.0}
    all_spans = []
    for k, (path, rec) in enumerate(zip(tracer_files, records)):
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        base = len(all_spans)
        for s in doc["spans"]:
            s[3] = None if s[3] is None else s[3] + base
            s[4] = k
        all_spans += doc["spans"]
        for key, v in doc["counts"].items():
            counts[key] = counts.get(key, 0) + v
        cli["cli.import_s"] += doc["import_s"] * speeds[k]
        cli["cli.interp_s"] += (rec[1] - doc["launcher_s"]) * speeds[k]
    return spans.layer_totals(all_spans, speeds), counts, cli, all_spans


def main(argv):
    mode, name, seed, trace, result, tmp = argv
    seed, trace = int(seed), trace == "1"
    tmp = Path(tmp)
    launch = None
    tracer_files = []
    if name == "cli-golden":
        if trace:
            def launch(cli_argv):
                out = tmp / f"launch-{len(tracer_files)}.json"
                tracer_files.append(out)
                return [sys.executable, str(LAUNCHER), str(out), *cli_argv]
        ops, ctx = workloads.cli_golden(seed, tmp, launch)
    else:
        ops, ctx = workloads.WORKLOADS[name](seed, tmp)
    setup_s = perf_counter() - T0
    out = {"setup_s": setup_s * hostspeed.REFERENCE_S / hostspeed.sample()}
    if mode == "pass":
        tracer = None
        if trace and name != "cli-golden":
            tracer = spans.Tracer()
            spans.install(tracer)
        records = workloads.run_ops(ops, ctx, tracer, name != "cli-golden")
        who = resource.RUSAGE_CHILDREN if name == "cli-golden" else resource.RUSAGE_SELF
        out["records"] = records
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = spans.layer_totals(tracer.spans, [r[3] for r in records])
            out["counts"] = dict(tracer.counts)
            out["spans"] = tracer.spans
        elif trace:
            (out["layers"], out["counts"], cli,
             out["spans"]) = cli_pass(tracer_files, records)
            out.update(cli)
    Path(result).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
