"""The four workloads: their ops, in order, and the oracle for each op.

An op is one call a user makes: one public library call in the library
sessions, one CLI process in ``cli-golden``.  Every op is timed alone and
then checked; a wrong answer or an exception marks the op failed and the
session goes on.  Expected answers were pinned from the package as it
first shipped, and conjugates and twists are also checked against their
base algebra, since none of these invariants depends on the basis.
"""

import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from homnambu.binary import verify_hom_jacobi, verify_multiplicative, verify_skew, yau_twist
from homnambu.cohomology import cohomology_dims
from homnambu.reps import trace_functional, verify_representation
from homnambu.series import (binary_center, binary_central_series,
                             binary_derived_series, central_series,
                             derived_series, ternary_center,
                             verify_solvability_theorem)
from homnambu.ternary import (verify_hom_nambu, verify_ternary_multiplicative,
                              verify_ternary_skew)

import hostspeed
import inputs
from spans import violations

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Op:
    name: str
    run: Callable    # ctx -> result
    check: Callable  # (result, ctx) -> None, or a message saying what is wrong


def run_ops(ops, ctx, tracer=None, in_process=True):
    """Run ops in order; [name, seconds, error or None, speed] per op.

    seconds leaves out the host-speed timer; speed scales them to the
    reference host (see hostspeed).  The timer runs only for ops that
    compute in this process (in_process), not while a CLI child does.
    The oracle runs after the clock stops and with no op open on the
    tracer, so it costs neither wall time nor layer time.
    """
    records = []
    before = hostspeed.sample()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        timer = hostspeed.Sampler(tracer and tracer.pause)
        t0 = perf_counter()
        try:
            if in_process:
                with timer:
                    out = op.run(ctx)
            else:
                out = op.run(ctx)
            err = None
        except Exception as exc:  # a failed op is counted; the session goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0 - timer.spent
        if tracer is not None:
            tracer.op = None
        after = hostspeed.sample()
        if err is None:
            ctx[op.name] = out
            try:
                err = op.check(out, ctx)
            except Exception as exc:
                err = f"oracle raised {type(exc).__name__}: {exc}"
        loop_s = statistics.mean([before, after] + timer.times)
        records.append([op.name, dt, err, hostspeed.REFERENCE_S / loop_s])
        before = after
    return records


# --- oracle pieces -----------------------------------------------------------


def anything(out, ctx):
    """For ops whose result only feeds later, checked ops."""


def verdict(want):
    def check(rep, ctx):
        if rep.verdict != want:
            return f"verdict {rep.verdict}, want {want}"
    return check


def equals(want, base=None, key=lambda x: x):
    """key(result) must equal want, and the base op's result when given."""
    def check(out, ctx):
        got = key(out)
        if got != want:
            return f"got {got}, want {want}"
        if base is not None and key(ctx[base]) != got:
            return f"got {got}, base {base} has {key(ctx[base])}"
    return check


def hom_nambu(want_violations, first=None):
    """Verdict, tuple count and total violations; pinned first witness."""
    def check(rep, ctx):
        tuples = rep.metrics.get("tuples_checked")
        n = violations(rep)
        if n != want_violations:
            return f"{n} violations, want {want_violations}"
        if rep.verdict != ("fail" if n else "pass"):
            return f"verdict {rep.verdict} with {n} violations"
        if tuples != GL21_DIM ** 5:
            return f"tuples_checked {tuples}, want {GL21_DIM ** 5}"
        if first is not None:
            f = rep.findings[0]
            if (f.witness, f.residual) != first:
                return f"first witness {f.witness} {f.residual}, want {first}"
    return check


def induced_gl21(t, ctx):
    """Oracle on an algebra induced from gl(2|1), in any basis.

    The solvability theorem makes the second derived term zero; the
    central series and the center are pinned too.
    """
    got = (derived_series(t).dims(), central_series(t).dims(), ternary_center(t).dim)
    if got != ((9, 8, 0, 0), (9, 8, 8), 0):
        return f"derived, central series and center {got}"


def dims_op(label, obj_key, cx, degree, want, base=None):
    return Op(f"{label}:{cx}:{degree}",
              lambda ctx: cohomology_dims(ctx[obj_key], cx, degree),
              equals(want, base))


# --- hom-nambu-gl21 ----------------------------------------------------------

GL21_DIM = 9
BROKEN_FIRST = (("E0_0", "E1_1", "E0_0", "E0_1", "E1_0"),
                ("2", "-2", "0", "0", "0", "0", "0", "0", "0"))


def hom_nambu_gl21(seed, tmp):
    rng = random.Random(seed)
    g, r = inputs.glmn(2, 1)
    tw = inputs.diagonal_twist(g, 2, 1, inputs.twist_weights(2, 1, rng))
    gc, rc = inputs.conjugate(g, r, rng)
    broken = inputs.broken_nambu(inputs.induce(g, trace_functional(r)))
    ctx = {"plain": g, "twist": tw, "conj": gc, "broken:induce_ternary": broken}
    taus = {"plain": lambda ctx: trace_functional(r),
            "twist": lambda ctx: inputs.twisted_tau(tw, r),
            "conj": lambda ctx: trace_functional(rc)}
    ops = []
    for label in ("plain", "twist", "conj"):
        ops += [
            Op(f"{label}:trace_functional", taus[label], anything),
            Op(f"{label}:induce_ternary",
               lambda ctx, lb=label: inputs.induce(ctx[lb], ctx[f"{lb}:trace_functional"]),
               induced_gl21),
        ]
    for label in ("plain", "twist", "conj", "broken"):
        t = f"{label}:induce_ternary"
        ops += [
            Op(f"{label}:verify_ternary_skew",
               lambda ctx, t=t: verify_ternary_skew(ctx[t]), verdict("pass")),
            Op(f"{label}:verify_hom_nambu",
               lambda ctx, t=t: verify_hom_nambu(ctx[t]),
               hom_nambu(816, BROKEN_FIRST) if label == "broken" else hom_nambu(0)),
            Op(f"{label}:verify_ternary_multiplicative",
               lambda ctx, t=t: verify_ternary_multiplicative(ctx[t]),
               verdict("pass")),
        ]
    return ops, ctx


# --- cohomology-ladder -------------------------------------------------------


def cohomology_ladder(seed, tmp):
    rng = random.Random(seed)
    ctx = {}
    for name, m, n in (("gl21", 2, 1), ("gl22", 2, 2)):
        g, r = inputs.glmn(m, n)
        ctx[name] = g
        ctx[f"{name}-t"] = inputs.induce(g, trace_functional(r))
    g, r = inputs.glmn(1, 1)
    tw = inputs.diagonal_twist(g, 1, 1, inputs.twist_weights(1, 1, rng))
    c1, r1 = inputs.conjugate(g, r, rng)
    c2, r2 = inputs.conjugate(g, r, rng)
    gl11 = {"gl11": (g, trace_functional(r)),
            "gl11-twist": (tw, inputs.twisted_tau(tw, r)),
            "gl11-conj1": (c1, trace_functional(r1)),
            "gl11-conj2": (c2, trace_functional(r2))}
    for label, (lie, tau) in gl11.items():
        ctx[f"{label}-t"] = inputs.induce(lie, tau)
    ops = [
        dims_op("gl21", "gl21", "binary-scalar", 1, (1, 0, 1)),
        dims_op("gl21", "gl21", "binary-scalar", 2, (4, 4, 0)),
        dims_op("gl21", "gl21-t", "ternary-scalar", 1, (1, 0, 1)),
        dims_op("gl21", "gl21-t", "ternary-scalar", 2, (5, 4, 1)),
        dims_op("gl21", "gl21-t", "ternary-adjoint", 1, (5, 0, 5)),
        dims_op("gl22", "gl22", "binary-scalar", 2, (7, 7, 0)),
        dims_op("gl22", "gl22-t", "ternary-scalar", 1, (1, 0, 1)),
        dims_op("gl22", "gl22-t", "ternary-adjoint", 1, (8, 0, 8)),
    ]
    for label in gl11:
        for cx, want in (("ternary-scalar", (7, 1, 6)),
                         ("ternary-adjoint", (30, 2, 28))):
            base = None if label == "gl11" else f"gl11:{cx}:2"
            ops.append(dims_op(label, f"{label}-t", cx, 2, want, base))
    return ops, ctx


# --- structure-gl22 ----------------------------------------------------------


def _structure_ops(label, lie_key, base):
    """Every subcommand's work on one algebra, bar Hom-Nambu and degree-2
    ternary cohomology, which the package cannot finish at dimension 16."""
    def ref(op):
        return base and f"{base}:{op}"

    def lie(ctx):
        return ctx[lie_key]

    def t(ctx):
        return ctx[f"{label}:induce_ternary"]

    dims = lambda res: res.dims()
    dim = lambda sub: sub.dim
    ops = [
        Op(f"{label}:verify_skew", lambda ctx: verify_skew(lie(ctx)), verdict("pass")),
        Op(f"{label}:verify_hom_jacobi", lambda ctx: verify_hom_jacobi(lie(ctx)),
           verdict("pass")),
        Op(f"{label}:verify_multiplicative",
           lambda ctx: verify_multiplicative(lie(ctx)), verdict("pass")),
    ]
    if label == "twist":
        ops.append(Op("twist:trace_functional",
                      lambda ctx: inputs.twisted_tau(lie(ctx), ctx["plain-rep"]),
                      anything))
    else:
        ops += [
            Op(f"{label}:verify_representation",
               lambda ctx: verify_representation(ctx[f"{label}-rep"]), verdict("pass")),
            Op(f"{label}:trace_functional",
               lambda ctx: trace_functional(ctx[f"{label}-rep"]), anything),
        ]
    ops += [
        Op(f"{label}:induce_ternary",
           lambda ctx: inputs.induce(lie(ctx), ctx[f"{label}:trace_functional"]),
           anything),
        Op(f"{label}:verify_ternary_skew", lambda ctx: verify_ternary_skew(t(ctx)),
           verdict("pass")),
        Op(f"{label}:verify_ternary_multiplicative",
           lambda ctx: verify_ternary_multiplicative(t(ctx)), verdict("pass")),
        Op(f"{label}:derived_series", lambda ctx: derived_series(t(ctx)),
           equals((16, 15, 0, 0), ref("derived_series"), dims)),
        Op(f"{label}:central_series", lambda ctx: central_series(t(ctx)),
           equals((16, 15, 15), ref("central_series"), dims)),
        Op(f"{label}:binary_derived_series",
           lambda ctx: binary_derived_series(lie(ctx)),
           equals((16, 15, 15), ref("binary_derived_series"), dims)),
        Op(f"{label}:binary_central_series",
           lambda ctx: binary_central_series(lie(ctx)),
           equals((16, 15, 15), ref("binary_central_series"), dims)),
        Op(f"{label}:ternary_center", lambda ctx: ternary_center(t(ctx)),
           equals(1, ref("ternary_center"), dim)),
        Op(f"{label}:binary_center", lambda ctx: binary_center(lie(ctx)),
           equals(1, ref("binary_center"), dim)),
        Op(f"{label}:verify_solvability_theorem",
           lambda ctx: verify_solvability_theorem(t(ctx)), verdict("pass")),
        Op(f"{label}:binary-scalar:2",
           lambda ctx: cohomology_dims(lie(ctx), "binary-scalar", 2),
           equals((7, 7, 0), ref("binary-scalar:2"))),
        Op(f"{label}:ternary-scalar:1",
           lambda ctx: cohomology_dims(t(ctx), "ternary-scalar", 1),
           equals((1, 0, 1), ref("ternary-scalar:1"))),
    ]
    return ops


def structure_gl22(seed, tmp):
    rng = random.Random(seed)
    g, r = inputs.glmn(2, 2)
    alpha = inputs.diagonal_alpha(g, 2, 2, inputs.twist_weights(2, 2, rng))
    gc, rc = inputs.conjugate(g, r, rng)
    ctx = {"plain": g, "plain-rep": r, "conj": gc, "conj-rep": rc}
    twist = Op("twist:yau_twist", lambda ctx: yau_twist(g, alpha), anything)
    ops = (_structure_ops("plain", "plain", None) + [twist]
           + _structure_ops("twist", "twist:yau_twist", "plain")
           + _structure_ops("conj", "conj", "plain"))
    return ops, ctx


# --- cli-golden --------------------------------------------------------------

FIX = ROOT / "fixtures"
GOLD = FIX / "golden"

# (golden file, argv, exit code, -o file to compare, its reference); the
# invocations of tools/regen_fixtures.py, with -o redirected to the temp dir
CLI_CASES = (
    [(f"check_binary_{n}.json", ["check", "binary", f"{n}.json"], 0)
     for n in ("a0", "aff1", "gl11", "gl11t2")]
    + [
        ("check_binary_neg_jacobi.json", ["check", "binary", "neg_jacobi.json"], 1),
        ("check_binary_neg_mult.json", ["check", "binary", "neg_mult.json"], 1),
        ("check_rep_gl11.json", ["check", "rep", "gl11.json"], 0),
        ("check_rep_neg_rep.json", ["check", "rep", "neg_rep.json"], 1),
        ("induce_gl11.json", ["induce", "gl11.json", "-o", "@gl11_induced.json"], 0),
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
                              "-o", "@gl11_extended.json"], 0),
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
    ])

# where each -o output must land byte for byte
OUTPUT_REFS = {"gl11_induced.json": FIX / "gl11_induced.json",
               "gl11_extended.json": GOLD / "gl11_extended.json"}

# what the console script ``homnambu`` runs
ENTRY = "import sys; from homnambu.cli import main; sys.exit(main())"


def cli_argv(args, tmp):
    """Fixture names become fixture paths; '@name' becomes a temp-dir path."""
    out = []
    for a in args:
        if a.startswith("@"):
            out.append(str(Path(tmp) / a[1:]))
        elif a.endswith(".json"):
            out.append(str(FIX / a))
        else:
            out.append(a)
    return out


def cli_op(golden, args, code, tmp, launch):
    """One CLI process; launch(argv) gives the command line to run.

    The check compares the exit code, stdout against the golden file and
    any -o output against its reference, all byte for byte.
    """
    want_out = (GOLD / golden).read_bytes()
    outputs = [a[1:] for a in args if a.startswith("@")]
    refs = {o: OUTPUT_REFS[o].read_bytes() for o in outputs}
    argv = cli_argv(args, tmp)

    def run(ctx):
        for o in outputs:
            (Path(tmp) / o).unlink(missing_ok=True)
        return subprocess.run(launch(argv), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, cwd=tmp,
                              timeout=120)

    def check(proc, ctx):
        if proc.returncode != code:
            return (f"exit {proc.returncode}, want {code}: "
                    f"{proc.stderr.decode(errors='replace')[-300:]}")
        if proc.stdout != want_out:
            return f"stdout differs from golden/{golden}"
        for o, ref in refs.items():
            p = Path(tmp) / o
            if not p.exists() or p.read_bytes() != ref:
                return f"-o output {o} differs from its reference"

    return Op(golden, run, check)


def cli_golden(seed, tmp, launch=None):
    """The 27 golden invocations in a seeded order, one process each."""
    if launch is None:
        launch = lambda argv: [sys.executable, "-c", ENTRY, *argv]
    cases = list(CLI_CASES)
    random.Random(seed).shuffle(cases)
    return [cli_op(g, a, c, tmp, launch) for g, a, c in cases], {}


WORKLOADS = {
    "hom-nambu-gl21": hom_nambu_gl21,
    "cohomology-ladder": cohomology_ladder,
    "structure-gl22": structure_gl22,
    "cli-golden": cli_golden,
}
