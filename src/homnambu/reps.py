"""Representations of Hom-Lie superalgebras and their supertrace functionals.

verify_representation checks both axioms in ints: the action matrices (one
D_rho over all of them), beta, alpha and the bracket (its integer view)
are cleared of denominators once, rho(alpha e_i) is built once per i and
every product once, and each axiom is compared cross-multiplied; only a
failing witness's residual is divided back into Fractions.
TraceFunctional.induce, the tau-combination behind the induced ternary
bracket and the induced cocycles, sums tau's integer values against
sparse integer terms and alone holds the induction signs.
"""

from fractions import Fraction

from .binary import HomLieSuper
from .graded import GradedMap, GradedSpace, identity_map, supertrace, zero_map
from .linalg import (InputError, Matrix, Subspace, Vec, dot, integer_terms,
                     is_zero_vec, kernel, record, vec)
from .report import Report, fmt_scalar, fmt_vec


@record(frozen=True)
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


@record(frozen=True)
class TraceFunctional:
    """The functional x -> str(rho(x)); vanishes on odd elements."""

    algebra: HomLieSuper
    values: Vec

    def __post_init__(self):
        if len(self.values) != self.algebra.dim:
            raise InputError("trace functional length mismatch")
        for i, v in enumerate(self.values):
            if not isinstance(v, (int, Fraction)):
                raise InputError(f"trace functional value {i} is not an "
                                 f"exact rational: {v!r}")
            if v != 0 and self.algebra.space.parities[i] == 1:
                raise InputError("supertrace functional must vanish on odd elements")

    def apply(self, v: Vec) -> Fraction:
        return dot(self.values, vec(v))

    def induce(self, phi, keys) -> tuple:
        """The tau-combination of a bilinear phi on the (x1, x2, k) in keys:

            phi_rho(x1,x2,k) = tau(x1) phi(x2,k)
                             - (-1)^{|x1||x2|} tau(x2) phi(x1,k)
                             + (-1)^{|k|(|x1|+|x2|)} tau(k) phi(x1,x2),

        summed in ints.  phi(i, j) gives the (m, integer) pairs of its
        value at a scale of the caller's choosing, and tau is cleared of
        denominators once (D_tau).  With phi the bracket's integer view
        this is the induced ternary bracket; with phi a binary 2-cocycle,
        the induced cocycle.  Returns (D_tau, {(x1, x2, k): terms}) for the
        nonzero values, in key order, terms the (m, integer) pairs of
        D_tau times phi's scale times the value, m increasing; phi is read
        only where tau does not vanish.
        """
        p = self.algebra.space.parities
        d, (nonzero,) = integer_terms([enumerate(self.values)])
        tv = [0] * len(self.values)
        for i, x in nonzero:
            tv[i] = x
        out = {}
        for key in keys:
            x1, x2, k = key
            s12 = -1 if (p[x1] and p[x2]) else 1
            s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
            acc = {}
            for c, i, j in ((tv[x1], x2, k), (-s12 * tv[x2], x1, k),
                            (s3 * tv[k], x1, x2)):
                if c:
                    for m, x in phi(i, j):
                        acc[m] = acc.get(m, 0) + c * x
            terms = tuple(sorted(t for t in acc.items() if t[1]))
            if terms:
                out[key] = terms
        return d, out


def verify_representation(r: Representation) -> Report:
    """Both representation axioms on all basis elements and pairs, in ints.

    rho (one D_rho over every action matrix), beta (D_b), alpha (D_a) and
    the bracket (its integer view, D_W) are cleared of denominators once,
    as R_i = D_rho rho(e_i), B = D_b beta, A = D_a alpha and W.  Then
    RA_i = sum_k A_ki R_k = D_a D_rho rho(alpha e_i) is built once per i,
    and the products RA_i B, B R_i, R_m B and RA_i R_j once each.  The
    axioms are compared cross-multiplied,

      1.  RA_i B = D_a B R_i,
      2.  D_a D_rho sum_m W_m(i,j) R_m B
              = D_W D_b (RA_i R_j - (-1)^{|i||j|} RA_j R_i),

    the sides at D_a D_rho D_b and D_W D_a D_rho^2 D_b times the true ones.
    Only a failing witness's residual is divided back into Fractions:
    every cell of the module matrix, zeros included, row by row.
    """
    rep = Report("verify_representation")
    g = r.algebra
    n = r.module_space.dim
    dr, rows = integer_terms(row for m in r.matrices for row in m.matrix.entries)
    R = [rows[i * n:(i + 1) * n] for i in range(g.dim)]
    db, B = integer_terms(r.beta.matrix.entries)
    da, acols = integer_terms(g.alpha.matrix.transpose().entries)
    dw, W = g.bracket.integer
    RA = []
    for col in acols:
        acc = [{} for _ in range(n)]
        for k, a in col:
            for out, row in zip(acc, R[k]):
                for c, x in row:
                    out[c] = out.get(c, 0) + a * x
        RA.append([tuple(row.items()) for row in acc])
    names = g.space.names

    def fail(check, witness, diff, scale):
        rep.fail(check, witness=witness, residual=tuple(
            fmt_scalar(Fraction(diff.get(c, 0), scale)) for c in range(n * n)))

    for i in range(g.dim):
        diff = _product(RA[i], B, n)
        for c, x in _product(B, R[i], n).items():
            diff[c] = diff.get(c, 0) - da * x
        if any(diff.values()):
            fail("axiom-1", (names[i],), diff, da * dr * db)
    p = g.space.parities
    RB = [_product(Rm, B, n) for Rm in R]
    P = [[_product(RAi, Rj, n) for Rj in R] for RAi in RA]
    lscale, rscale = da * dr, dw * db
    for i in range(g.dim):
        for j in range(g.dim):
            diff = {}
            for m, w in W.get((i, j), ()):
                for c, x in RB[m].items():
                    diff[c] = diff.get(c, 0) + lscale * w * x
            sign = rscale if (p[i] and p[j]) else -rscale
            for c, x in P[i][j].items():
                diff[c] = diff.get(c, 0) - rscale * x
            for c, x in P[j][i].items():
                diff[c] = diff.get(c, 0) - sign * x
            if any(diff.values()):
                fail("axiom-2", (names[i], names[j]), diff, lscale * dr * rscale)
    rep.metrics["module_dim"] = n
    return rep


def _product(a, b, n: int) -> dict:
    """{r * n + c: value} of the product of two integer matrices held as
    rows of (column, integer) pairs; cancelled cells may stay as zeros."""
    out = {}
    for r, row in enumerate(a):
        base = r * n
        for k, x in row:
            for c, y in b[k]:
                out[base + c] = out.get(base + c, 0) + x * y
    return out


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
