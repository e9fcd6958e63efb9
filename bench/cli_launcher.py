"""Traced stand-in for the ``homnambu`` console script.

    python3 bench/cli_launcher.py SPANS_JSON ARGS...

Times ``import homnambu.cli``, installs the span wrappers, runs
``main(ARGS)`` as one op, and writes the spans, counts and times to
SPANS_JSON for the benchmark to merge.  stdout and the exit code are the
CLI's own, so the golden comparison still holds.  ``launcher_s`` is
everything this file does after the interpreter has started; the
benchmark takes it from the process wall time to get ``cli.interp_s``.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import homnambu.cli  # noqa: E402

T1 = perf_counter()

import spans  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.op = 0
    try:
        code = homnambu.cli.main(argv)
    finally:
        tracer.op = None
    sys.stdout.flush()
    doc = {"spans": tracer.spans, "counts": dict(tracer.counts),
           "import_s": T1 - T0}
    doc["launcher_s"] = perf_counter() - T0
    with open(out, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
