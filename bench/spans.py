"""Spans around calls into the package's public functions.

``install`` rebinds each listed function, in its own module and in every
loaded module that imported it by name (``from .x import y`` inside the
package, and the benchmark's own modules), to a wrapper that records a
span.  Nothing under ``src/`` changes: ``cohomology_dims`` finds
``coboundary_matrix`` and ``linalg.kernel`` finds ``rref`` as module
globals, so the rebinding is enough to separate assembly from
elimination.

Spans are recorded only while an op is open (``Tracer.op``), so input
generation and the correctness oracle stay out of the per-layer numbers.
A count hook runs after its call returns; its time, and that of the
host-speed timer, is subtracted from every span still open, so neither
shows up as layer time.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions timed in the traced run
LAYERS = {
    "cli": ("main",),
    "formats": ("read_document", "write_document"),
    "report": ("Report.render",),
    "binary": ("verify_skew", "verify_hom_jacobi", "verify_multiplicative",
               "yau_twist"),
    "reps": ("verify_representation", "trace_functional"),
    "ternary": ("induce_ternary", "verify_ternary_skew", "verify_hom_nambu",
                "verify_ternary_multiplicative"),
    "series": ("derived_series", "central_series", "binary_derived_series",
               "binary_central_series", "ternary_center", "binary_center",
               "verify_solvability_theorem"),
    "extensions": ("verify_extension",),
    "cohomology": ("coboundary_matrix", "cohomology_dims", "induce_cocycle"),
    "linalg": ("rref",),
}


def span_names():
    """Every span name, as ``<module>.<function>``."""
    return [f"{mod}.{fn.split('.')[-1]}"
            for mod, fns in LAYERS.items() for fn in fns]


def _nnz(m):
    return sum(1 for row in m.entries for x in row if x != 0)


def _count_hom_nambu(counts, args, out):
    t = args[0]
    d = t.dim
    counts["ternary.nonzero_triples"] += sum(
        1 for i in range(d) for j in range(d) for k in range(d)
        if any(t.bracket.value(i, j, k)))
    counts["ternary.triples"] += d ** 3
    counts["ternary.verify_hom_nambu.tuples"] += out.metrics["tuples_checked"]
    counts["ternary.verify_hom_nambu.violations"] += violations(out)


def _count_rref(counts, args, out):
    m = args[0]
    counts["linalg.rref.rows"] += m.rows
    counts["linalg.rref.cells"] += m.rows * m.cols
    counts["linalg.rref.nnz"] += _nnz(m)
    counts["linalg.rref.rank"] += sum(1 for row in out.entries if any(row))


def _count_coboundary(counts, args, out):
    counts["cohomology.coboundary_matrix.cells"] += out.rows * out.cols
    counts["cohomology.coboundary_matrix.nnz"] += _nnz(out)


COUNTERS = {
    "ternary.verify_hom_nambu": _count_hom_nambu,
    "linalg.rref": _count_rref,
    "cohomology.coboundary_matrix": _count_coboundary,
}


def violations(report) -> int:
    """Total Hom-Nambu violations, read from the report's public findings.

    Past 16 witnesses the verifier keeps only a note with the total.
    """
    for f in report.findings:
        if f.check == "hom-nambu-truncated":
            return int(f.detail.split()[0])
    return sum(1 for f in report.findings if f.check == "hom-nambu")


class Tracer:
    """Spans and counts of one process, kept in memory until it ends."""

    def __init__(self):
        # each span: [name, start, end, parent index, op id, excluded s]
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def call(self, name, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else None, self.op, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        count = COUNTERS.get(name)
        if count is not None:
            h0 = perf_counter()
            count(self.counts, args, out)
            self.pause(perf_counter() - h0)
        return out

    def pause(self, seconds):
        """Take time the benchmark itself spent out of every open span."""
        for i in self._stack:
            self.spans[i][5] += seconds


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer):
    """Rebind every function in LAYERS to a span-recording wrapper."""
    import homnambu.cli  # noqa: F401  (loads every module rebound below)
    mods = [m for m in list(sys.modules.values()) if m is not None]
    for mod, fns in LAYERS.items():
        home = sys.modules[f"homnambu.{mod}"]
        for fn in fns:
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, f"{mod}.{meth}", orig))
                continue
            orig = getattr(home, fn)
            traced = _wrap(tracer, f"{mod}.{fn}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)


def durations(spans):
    """Inclusive and self seconds per span, count hooks taken out."""
    incl = [s[2] - s[1] - s[5] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += incl[i]
    return incl, [a - b for a, b in zip(incl, child)]


def layer_totals(spans, speeds):
    """{name: [inclusive s, self s, calls]} summed over spans.

    Each span's seconds are scaled by the speed of the op it belongs to.
    """
    out = {name: [0.0, 0.0, 0] for name in span_names()}
    incl, self_s = durations(spans)
    for s, a, b in zip(spans, incl, self_s):
        rec = out[s[0]]
        rec[0] += a * speeds[s[4]]
        rec[1] += b * speeds[s[4]]
        rec[2] += 1
    return out
