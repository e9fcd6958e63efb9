"""Command line front end.

Every subcommand reads JSON documents, prints a single report document on
standard output and exits 0 when every check passed, 1 when a verification
failed, 2 on malformed input or unmet preconditions, command line usage
errors included.
"""

import argparse
import json
import sys
from fractions import Fraction

from .binary import (is_ideal, verify_hom_jacobi, verify_multiplicative,
                     verify_skew)
from .cohomology import (Cochain, apply_coboundaries, cochain_length,
                         cocycles, cohomology_dims, induce_cocycle,
                         parity_support, verify_1cocycle_transfer,
                         verify_class_transfer, verify_lemma_identity)
from .extensions import (CentralExtensionData, build_central_extension,
                         extended_space, verify_extension)
from .formats import (DocumentBundle, load_cochain, load_functional,
                      read_document, read_json_file, serialize_cochain,
                      write_document)
from .linalg import InputError, PreconditionError, Subspace, unit_vec
from .report import Report, fmt_vec
from .reps import trace_functional, verify_representation
from .series import (central_series, compare_central_series, derived_series,
                     verify_center_transfer, verify_solvability_theorem)
from .ternary import (ideal_criterion, induce_ternary, verify_hom_nambu,
                      verify_ternary_multiplicative, verify_ternary_skew)


def _require_rep(bundle: DocumentBundle):
    if bundle.rep is None:
        raise InputError("document carries no representation")
    return bundle.rep


def _induced(bundle: DocumentBundle):
    """(tau, t): the trace functional of the document's representation and
    the ternary algebra it induces on the document's algebra."""
    tau = trace_functional(_require_rep(bundle))
    lie = bundle.lie
    return tau, induce_ternary(lie, tau, lie.alpha, lie.alpha)


def _ternary_of(bundle: DocumentBundle):
    """The document's ternary algebra, or the one induced from its rep."""
    if bundle.ternary is not None:
        return bundle.ternary
    return _induced(bundle)[1]


def _transfer_inputs(path):
    """(lie, tau, t) of the document at path, t induced from (lie, tau):
    the transfer theorems are about the induced algebra, so a ternary
    section must be that algebra."""
    bundle = read_document(path)
    tau, t = _induced(bundle)
    if bundle.ternary is not None and bundle.ternary != t:
        raise PreconditionError("the document's ternary bracket is not the "
                                "one induced from its representation")
    return bundle.lie, tau, t


def _ideal_from_ids(bundle: DocumentBundle, spec: str) -> Subspace:
    dim = bundle.lie.dim
    idx = [bundle.lie.space.index(name.strip()) for name in spec.split(",")]
    return Subspace.from_vectors(dim, [unit_vec(dim, i) for i in idx])


def cmd_check(args) -> Report:
    bundle = read_document(args.file)
    rep = Report(f"check {args.what}")
    if args.what == "binary":
        lie = bundle.lie
        rep.absorb(verify_skew(lie))
        rep.absorb(verify_hom_jacobi(lie))
        rep.absorb(verify_multiplicative(lie))
    elif args.what == "rep":
        r = _require_rep(bundle)
        rep.absorb(verify_representation(r))
        tau = trace_functional(r)
        rep.metrics["tau"] = fmt_vec(tau.values)
    else:
        if bundle.ternary is None:
            raise InputError("document carries no ternary bracket")
        t = bundle.ternary
        rep.absorb(verify_ternary_skew(t))
        rep.absorb(verify_hom_nambu(t))
        rep.absorb(verify_ternary_multiplicative(t))
    return rep


def cmd_induce(args) -> Report:
    bundle = read_document(args.file)
    tau, t = _induced(bundle)
    rep = Report("induce")
    rep.metrics["tau"] = fmt_vec(tau.values)
    rep.metrics["ternary_entries"] = len(t.bracket.canonical_coeffs())
    rep.absorb(verify_ternary_skew(t))
    rep.absorb(verify_hom_nambu(t))
    out = DocumentBundle(bundle.name + "-induced", bundle.lie, bundle.rep, t)
    write_document(args.output, out)
    return rep


def cmd_series(args) -> Report:
    bundle = read_document(args.file)
    rep = Report(f"series {args.kind}")
    ideal = _ideal_from_ids(bundle, args.ideal) if args.ideal else None
    a = bundle.ternary if bundle.ternary is not None else bundle.lie
    if ideal is not None and not is_ideal(a, ideal):
        rep.note("not-an-ideal", detail="series still computed")
    run = derived_series if args.kind == "derived" else central_series
    res = run(a, ideal, rmax=args.rmax)
    rep.metrics["dims"] = list(res.dims())
    rep.metrics["stabilized"] = res.stabilized
    rep.metrics["class_index"] = res.class_index
    return rep


def cmd_center(args) -> Report:
    bundle = read_document(args.file)
    rep = Report("center")
    a = bundle.ternary if bundle.ternary is not None else bundle.lie
    z = a.bracket.annihilator()
    rep.metrics["dim"] = z.dim
    rep.metrics["basis"] = [fmt_vec(v) for v in z.vectors()]
    return rep


def cmd_solvability(args) -> Report:
    bundle = read_document(args.file)
    t = _ternary_of(bundle)
    rep = Report("solvability")
    rep.absorb(verify_solvability_theorem(t))
    dims = rep.metrics.get("derived_dims", [])
    rep.metrics["D1_dim"] = dims[1] if len(dims) > 1 else None
    rep.metrics["D2_dim"] = dims[2] if len(dims) > 2 else None
    return rep


def cmd_extend(args) -> Report:
    bundle = read_document(args.file)
    lie = bundle.lie
    omega = load_cochain(read_json_file(args.omega), lie.space)
    lam = None
    if args.lam is not None:
        lam = load_functional(read_json_file(args.lam), extended_space(lie))
    data = CentralExtensionData(lie, omega, lam)
    rep = verify_extension(data)
    if args.output:
        ext = build_central_extension(data)
        write_document(args.output,
                       DocumentBundle(bundle.name + "-extended", ext))
    return rep


def cmd_cohomology(args) -> Report:
    bundle = read_document(args.file)
    obj = bundle.lie if args.complex == "binary-scalar" else _ternary_of(bundle)
    z, b, h = cohomology_dims(obj, args.complex, args.degree)
    rep = Report("cohomology")
    rep.metrics.update({"Z": z, "B": b, "H": h,
                        "complex": args.complex, "degree": args.degree})
    return rep


def cmd_induce_cocycle(args) -> Report:
    lie, tau, t = _transfer_inputs(args.file)
    phi = load_cochain(read_json_file(args.phi), lie.space)
    psi, = induce_cocycle(lie, tau, [phi], t)
    rep = Report("induce-cocycle")
    rep.metrics["complex"] = psi.complex
    rep.metrics["parity"] = psi.parity
    rep.metrics["values"] = serialize_cochain(psi)["values"]
    return rep


def _random_combination(rng, g, degree: int, parity: int, basis) -> Cochain:
    """The binary-scalar cochain sum c_v v over the vectors v of basis, each
    integer c_v drawn from -3 to 3 in basis order."""
    coords = [Fraction(0)] * cochain_length("binary-scalar", degree, g.space)
    for v in basis:
        c = rng.randint(-3, 3)
        for pos, x in enumerate(v):
            coords[pos] += c * x
    return Cochain("binary-scalar", degree, parity, g.space, tuple(coords))


def cmd_transfer_checks(args) -> Report:
    import random  # read here alone, so other calls skip its import

    lie, tau, t = _transfer_inputs(args.file)
    rng = random.Random(args.seed)
    rep = Report("transfer-checks")
    rep.absorb(compare_central_series(lie, t), prefix="series.")
    rep.absorb(verify_center_transfer(lie, tau, t), prefix="center.")
    rep.absorb(verify_1cocycle_transfer(lie, tau, t), prefix="cocycle1.")
    full = Subspace.full(lie.dim)
    rep.absorb(ideal_criterion(lie, tau, lie.bracket.span(full, full), t),
               prefix="ideal.")
    # the unit 1-cochains of each parity, so a combination of them draws
    # one coefficient per coordinate of the parity's support
    units = [[unit_vec(lie.dim, i) for i in
              parity_support("binary-scalar", 1, lie.space, parity)]
             for parity in (0, 1)]
    omegas = [_random_combination(rng, lie, 1, parity, units[parity])
              for _ in range(3) for parity in (0, 1)]
    for n, sub in enumerate(verify_lemma_identity(lie, tau, omegas, t)):
        rep.absorb(sub, prefix=f"lemma{n // 2}p{n % 2}.")
    basis = cocycles(lie, "binary-scalar", 2, 0)
    phis, etas = [], []
    for _ in range(3):
        phis.append(_random_combination(rng, lie, 2, 0, basis))
        etas.append(_random_combination(rng, lie, 1, 0, units[0]))
    pairs = [(phi1, phi1.add(shift)) for phi1, shift
             in zip(phis, apply_coboundaries(lie, etas))]
    for k, sub in enumerate(verify_class_transfer(lie, tau, pairs, t)):
        rep.absorb(sub, prefix=f"class{k}.")
    return rep


class UsageError(InputError):
    """A command line refused by the parser of command, or of homnambu."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # --help still prints and exits 0
        raise UsageError(self.prog.rsplit(" ", 1)[-1], message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="homnambu")
    subs = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true")

    p = subs.add_parser("check")
    p.add_argument("what", choices=("binary", "rep", "ternary"))
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_check)

    p = subs.add_parser("induce")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(run=cmd_induce)

    p = subs.add_parser("series")
    p.add_argument("kind", choices=("derived", "central"))
    p.add_argument("file")
    p.add_argument("--ideal", default=None)
    p.add_argument("--rmax", type=int, default=None)
    common(p)
    p.set_defaults(run=cmd_series)

    p = subs.add_parser("center")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_center)

    p = subs.add_parser("solvability")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_solvability)

    p = subs.add_parser("extend")
    p.add_argument("file")
    p.add_argument("--omega", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(run=cmd_extend)

    p = subs.add_parser("cohomology")
    p.add_argument("file")
    p.add_argument("--complex", required=True,
                   choices=("binary-scalar", "ternary-scalar", "ternary-adjoint"))
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(run=cmd_cohomology)

    p = subs.add_parser("induce-cocycle")
    p.add_argument("file")
    p.add_argument("--phi", required=True)
    common(p)
    p.set_defaults(run=cmd_induce_cocycle)

    p = subs.add_parser("transfer-checks")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(run=cmd_transfer_checks)

    return top


def main(argv=None) -> int:
    cmd = "homnambu"
    try:
        args, extra = build_parser().parse_known_args(argv)
        cmd = args.cmd if args.cmd != "check" else f"check {args.what}"
        if extra:
            raise InputError(f"unrecognized arguments: {' '.join(extra)}")
        rep = args.run(args)
    except (InputError, PreconditionError) as exc:
        doc = {"command": getattr(exc, "command", cmd), "error": str(exc)}
        sys.stdout.write(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return 2
    sys.stdout.write(rep.render(args.pretty))
    return 0 if rep.verdict != "fail" else 1


if __name__ == "__main__":
    raise SystemExit(main())
