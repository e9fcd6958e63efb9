"""Representations of Hom-Lie superalgebras and their supertrace functionals."""

from dataclasses import dataclass
from fractions import Fraction

from .binary import HomLieSuper
from .graded import GradedMap, GradedSpace, identity_map, supertrace, zero_map
from .linalg import (InputError, Matrix, Vec, dot, is_zero_vec, kernel, vec,
                     vec_add, vec_scale, Subspace)
from .report import Report, fmt_scalar, fmt_vec


@dataclass(frozen=True)
class Representation:
    """Action matrices rho(e_i) on a graded module, with companion map beta.

    Each rho(e_i) must be homogeneous of the parity of e_i; beta is even.
    """

    algebra: HomLieSuper
    module_space: GradedSpace
    matrices: tuple  # one GradedMap per algebra basis element
    beta: GradedMap

    def __post_init__(self):
        if len(self.matrices) != self.algebra.dim:
            raise InputError("one action matrix per basis element required")
        for i, m in enumerate(self.matrices):
            if m.domain != self.module_space or m.codomain != self.module_space:
                raise InputError("action matrices must act on the module")
            if m.parity != self.algebra.space.parities[i]:
                raise InputError(
                    f"action of {self.algebra.space.names[i]} must have its parity")
        if self.beta.domain != self.module_space or self.beta.codomain != self.module_space:
            raise InputError("beta must act on the module")
        if self.beta.parity != 0:
            raise InputError("beta must be even")

    def rho_matrix(self, i: int) -> Matrix:
        return self.matrices[i].matrix

    def rho_of_vector(self, v: Vec) -> Matrix:
        """rho extended linearly; mixed-parity combinations stay raw matrices."""
        n = self.module_space.dim
        out = Matrix.zero(n, n)
        for i, c in enumerate(v):
            if c != 0:
                out = out.add(self.rho_matrix(i).scale(c))
        return out


@dataclass(frozen=True)
class TraceFunctional:
    """The functional x -> str(rho(x)); vanishes on odd elements."""

    algebra: HomLieSuper
    values: Vec

    def __post_init__(self):
        if len(self.values) != self.algebra.dim:
            raise InputError("trace functional length mismatch")
        for i, v in enumerate(self.values):
            if v != 0 and self.algebra.space.parities[i] == 1:
                raise InputError("supertrace functional must vanish on odd elements")

    def apply(self, v: Vec) -> Fraction:
        return dot(self.values, vec(v))

    def induce(self, phi, keys) -> dict:
        """The tau-combination of a bilinear phi on the (x1, x2, k) in keys:

            phi_rho(x1,x2,k) = tau(x1) phi(x2,k)
                             - (-1)^{|x1||x2|} tau(x2) phi(x1,k)
                             + (-1)^{|k|(|x1|+|x2|)} tau(k) phi(x1,x2),

        phi(i, j) returning a vector.  With phi the bracket this is the
        induced ternary bracket; with phi a binary 2-cocycle, the induced
        cocycle.  Returns {(x1, x2, k): value} for the nonzero values, in
        key order; phi is evaluated only where tau does not vanish.
        """
        p = self.algebra.space.parities
        tv = self.values
        out = {}
        for key in keys:
            x1, x2, k = key
            s12 = -1 if (p[x1] and p[x2]) else 1
            s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
            v = None
            for c, i, j in ((tv[x1], x2, k), (-s12 * tv[x2], x1, k),
                            (s3 * tv[k], x1, x2)):
                if c:
                    w = vec_scale(c, phi(i, j))
                    v = w if v is None else vec_add(v, w)
            if v is not None and not is_zero_vec(v):
                out[key] = v
        return out


def verify_representation(r: Representation) -> Report:
    """Both representation axioms on all basis elements and pairs."""
    rep = Report("verify_representation")
    g = r.algebra
    beta = r.beta.matrix
    # rho(alpha e_i), built once per i
    ra = [r.rho_of_vector(c) for c in g.alpha.columns()]
    # axiom 1: rho(alpha x) o beta = beta o rho(x)
    for i in range(g.dim):
        diff = ra[i].mul(beta).add(beta.mul(r.rho_matrix(i)).scale(-1))
        if not diff.is_zero():
            rep.fail("axiom-1", witness=(g.space.names[i],),
                     residual=_cells(diff))
    # axiom 2: rho([x,y]) o beta = rho(alpha x) rho(y) - (-1)^{|x||y|} rho(alpha y) rho(x)
    p = g.space.parities
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = r.rho_of_vector(g.bracket.value(i, j)).mul(beta)
            sign = -1 if (p[i] and p[j]) else 1
            rhs = ra[i].mul(r.rho_matrix(j)).add(
                ra[j].mul(r.rho_matrix(i)).scale(-sign))
            diff = lhs.add(rhs.scale(-1))
            if not diff.is_zero():
                rep.fail("axiom-2", witness=(g.space.names[i], g.space.names[j]),
                         residual=_cells(diff))
    rep.metrics["module_dim"] = r.module_space.dim
    return rep


def _cells(m: Matrix) -> tuple:
    """Every entry of m, zeros included, row by row, formatted."""
    return tuple(fmt_scalar(x) for i in range(m.rows) for x in m.row(i))


def trace_functional(r: Representation) -> TraceFunctional:
    values = tuple(supertrace(m) for m in r.matrices)
    return TraceFunctional(r.algebra, values)


def trace_kernel(t: TraceFunctional) -> Subspace:
    return kernel(Matrix.build([t.values]))


def trace_mismatches(t: TraceFunctional, f: GradedMap,
                     target: TraceFunctional | None = None) -> tuple[int, ...]:
    """Every basis index j with target(f e_j) != t(e_j), target defaulting
    to t.  Empty means f is trace compatible; for f = alpha and no target,
    that str(rho(alpha x)) = str(rho(x)) holds on the nose."""
    target = t if target is None else target
    return tuple(j for j in range(t.algebra.dim)
                 if target.apply(f.column(j)) != t.values[j])


def check_induction_compatibility(t: TraceFunctional, alpha: GradedMap,
                                  beta_on_g: GradedMap) -> Report:
    """The compatibility conditions behind the induced-bracket construction.

    The first two are tautological once the bracket is super-skew and the
    functional even, so they are recorded as notes and skipped.  The third,
    str(rho(alpha x)) beta(y) = str(rho(beta x)) alpha(y), is checked on
    all basis pairs.
    """
    rep = Report("check_induction_compatibility")
    rep.note("condition-1", detail="textually tautological, skipped")
    rep.note("condition-2", detail="textually tautological, skipped")
    g = t.algebra
    acols, bcols = alpha.columns(), beta_on_g.columns()
    for i in range(g.dim):
        ci = t.apply(acols[i])
        di = t.apply(bcols[i])
        for j in range(g.dim):
            lhs = tuple(ci * x for x in bcols[j])
            rhs = tuple(di * x for x in acols[j])
            resid = tuple(a - b for a, b in zip(lhs, rhs))
            if not is_zero_vec(resid):
                rep.fail("condition-3",
                         witness=(g.space.names[i], g.space.names[j]),
                         residual=tuple(fmt_vec(resid)))
    return rep


def adjoint_representation(g: HomLieSuper) -> Representation:
    """ad(x) = [x, .] with beta = alpha; a representation when g is multiplicative."""
    dim = g.dim
    mats = []
    for i in range(dim):
        cols = [g.bracket.value(i, j) for j in range(dim)]
        m = Matrix.from_columns(cols, dim)
        mats.append(GradedMap(g.space, g.space, m, g.space.parities[i]))
    return Representation(g, g.space, tuple(mats), g.alpha)


def zero_representation(g: HomLieSuper, module: GradedSpace = None) -> Representation:
    v = module if module is not None else g.space
    mats = tuple(zero_map(v, v, g.space.parities[i]) for i in range(g.dim))
    return Representation(g, v, mats, identity_map(v))
