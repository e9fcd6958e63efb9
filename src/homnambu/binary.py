"""Hom-Lie superalgebras: brackets, twist maps, verifiers, Yau twists.

A bracket is a graded.SuperBracket of arity 2: the nonzero structure
vectors of [e_i, e_j], keyed by ordered pairs, stored as its integer view
(graded.SuperBracket.integer, scale D_W).  from_canonical accepts
coefficients on canonical index pairs only (i < j, or i = j odd) and
fills in the mirrors through the super-skew rule
[y,x] = -(-1)^{|x||y|}[x,y]; from_vectors accepts any entries so the
verifiers have something to catch, and yau_twist and change_of_basis
build their brackets with it.

The verifiers read the integer view and print Fractions only for a
finding.  verify_skew formats the bracket's skew_breaks walk, and passes
at once on a super_skew bracket; verify_hom_jacobi
reads the composite table [alpha e_u, e_c] (SuperBracket.composite) and
sums each triple's cyclic residual at scale D_alpha D_W^2, with
hom_jacobi_residual as its naive Fraction oracle; verify_multiplicative,
verify_morphism and the yau_twist precondition are
graded.compat_residuals.
"""

from fractions import Fraction
from itertools import product

from .graded import (GradedMap, GradedSpace, SuperBracket, compat_residuals,
                     skew_basis)
from .linalg import (InputError, Matrix, PreconditionError, Subspace, Vec,
                     field, integer_terms, is_zero_vec, record, vec_add,
                     vec_scale, zero_vec)
from .report import Report, fmt_vec


class SuperBracket2(SuperBracket):
    """Binary bracket: value(i, j) is [e_i, e_j]."""
    arity = 2


@record(frozen=True)
class HomLieSuper:
    space: GradedSpace
    bracket: SuperBracket2
    alpha: GradedMap
    # the torus grading and value-free coboundary rows, filled on demand
    # by cohomology
    memo: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    def __post_init__(self):
        if self.bracket.space != self.space:
            raise InputError("bracket space mismatch")
        if self.alpha.domain != self.space or self.alpha.codomain != self.space:
            raise InputError("twist must be an endomorphism of the algebra")
        if self.alpha.parity != 0:
            raise InputError("twist must be even")

    @property
    def dim(self) -> int:
        return self.space.dim


def verify_skew(a: HomLieSuper) -> Report:
    """Super-skew symmetry and the parity law, on every basis pair i <= j.

    [e_i,e_j] + (-1)^{|i||j|}[e_j,e_i] must vanish and [e_i,e_j] must
    have the parity of i + j: the findings of the bracket's skew_breaks
    walk on those pairs, none when it is super_skew.
    """
    rep = Report("verify_skew")
    sp = a.space
    if not a.bracket.super_skew:
        for (i, j), slot, found in a.bracket.skew_breaks():
            if i > j:
                continue
            if slot is None:
                rep.fail("parity-law", witness=(sp.names[i], sp.names[j]),
                         detail=f"output hits {found}")
            else:
                rep.fail("skew", witness=(sp.names[i], sp.names[j]),
                         residual=tuple(fmt_vec(found)))
    rep.metrics["pairs_checked"] = sp.dim * (sp.dim + 1) // 2
    return rep


def hom_jacobi_residual(a: HomLieSuper, x: int, y: int, z: int) -> Vec:
    """Cyclic residual (-1)^{|x||z|}[a(x),[y,z]] + cycled, zero when Jacobi holds.

    Kept deliberately naive, in Fractions; verify_hom_jacobi must agree
    with it on every canonical triple.
    """
    p = a.space.parities
    out = zero_vec(a.space.dim)
    for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
        sign = -1 if (p[u] and p[w]) else 1
        term = a.bracket.eval_vectors(a.alpha.column(u), a.bracket.value(v, w))
        out = vec_add(out, vec_scale(sign, term))
    return out


def verify_hom_jacobi(a: HomLieSuper) -> Report:
    """Hom-Jacobi on all canonical basis triples (skew is assumed).

    With the bracket's integer view W (scale D_W) and the twist cleared
    to integers (D_alpha), one composite table C[u][c] = [alpha e_u, e_c]
    is built from the nonzero W alone, at scale D_alpha D_W, by
    SuperBracket.composite.  A triple's
    residual is then the cyclic signed sum of W(v,w)_c C[u][c] over the
    nonzero W(v,w), at scale D_alpha D_W^2, and only the residuals a
    report prints are divided back into Fractions.
    """
    rep = Report("verify_hom_jacobi")
    sb = skew_basis(3, a.space)
    p = a.space.parities
    dim = a.space.dim
    dw, W = a.bracket.integer
    da, rows = integer_terms(a.alpha.matrix.entries)
    C = {u: cols for (u,), cols in a.bracket.composite((rows,), 1).items()}
    scale = da * dw * dw
    for (x, y, z) in sb.tuples:
        out = [0] * dim
        for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
            Cu = C.get(u)
            inner = W.get((v, w))
            if Cu and inner:
                sign = -1 if (p[u] and p[w]) else 1
                for c, wc in inner:
                    for m, l in Cu.get(c, ()):
                        out[m] += sign * wc * l
        if any(out):
            rep.fail("hom-jacobi",
                     witness=(a.space.names[x], a.space.names[y], a.space.names[z]),
                     residual=tuple(fmt_vec(Fraction(r, scale) for r in out)))
    rep.metrics["triples_checked"] = len(sb.tuples)
    return rep


def verify_multiplicative(a: HomLieSuper) -> Report:
    """alpha[x,y] = [alpha x, alpha y] on all basis pairs."""
    rep = Report("verify_multiplicative")
    for key, resid in compat_residuals(a.alpha, a.bracket, a.bracket,
                                       product(range(a.dim), repeat=2)):
        rep.fail("multiplicative",
                 witness=tuple(a.space.names[i] for i in key),
                 residual=tuple(fmt_vec(resid)))
    return rep


def verify_morphism(f: GradedMap, a: HomLieSuper, b: HomLieSuper) -> Report:
    """f[x,y]_a = [f x, f y]_b and f o alpha_a = alpha_b o f."""
    rep = Report("verify_morphism")
    if f.domain != a.space or f.codomain != b.space:
        raise InputError("morphism endpoints do not match the algebras")
    for key, resid in compat_residuals(f, a.bracket, b.bracket,
                                       product(range(a.dim), repeat=2)):
        rep.fail("bracket-compat",
                 witness=tuple(a.space.names[i] for i in key),
                 residual=tuple(fmt_vec(resid)))
    lhs = f.matrix.mul(a.alpha.matrix)
    rhs = b.alpha.matrix.mul(f.matrix)
    if lhs != rhs:
        for j in range(a.dim):
            resid = vec_add(lhs.col(j), vec_scale(-1, rhs.col(j)))
            if not is_zero_vec(resid):
                rep.fail("twist-compat", witness=(a.space.names[j],),
                         residual=tuple(fmt_vec(resid)))
    return rep


def yau_twist(lie: HomLieSuper, morphism: GradedMap) -> HomLieSuper:
    """Twist a Lie superalgebra (alpha = id) along one of its morphisms."""
    if not lie.alpha.is_identity():
        raise PreconditionError("yau_twist expects an untwisted algebra")
    if morphism.domain != lie.space or morphism.codomain != lie.space:
        raise PreconditionError("twisting map must be an endomorphism")
    for (i, j), _ in compat_residuals(morphism, lie.bracket, lie.bracket,
                                      product(range(lie.dim), repeat=2)):
        raise PreconditionError(
            f"twisting map is not a morphism at "
            f"({lie.space.names[i]},{lie.space.names[j]})")
    vectors = {}
    for key, v in lie.bracket.vectors().items():
        w = morphism.apply(v)
        if not is_zero_vec(w):
            vectors[key] = w
    twisted = HomLieSuper(lie.space, SuperBracket2.from_vectors(lie.space, vectors),
                          morphism)
    jacobi = verify_hom_jacobi(twisted)
    if not jacobi.ok:
        raise PreconditionError(
            f"twisted algebra fails Hom-Jacobi at "
            f"({','.join(jacobi.findings[0].witness)})")
    return twisted


def is_subalgebra(a: HomLieSuper, s: Subspace) -> bool:
    """alpha(s) in s and [s,s] in s."""
    return a.alpha.keeps(s) and s.contains_subspace(a.bracket.span(s, s))


def is_ideal(a: HomLieSuper, s: Subspace) -> bool:
    """alpha(s) in s and [s, g] in s; [s, g] contains [s, s]."""
    return a.alpha.keeps(s) and s.contains_subspace(
        a.bracket.span(s, Subspace.full(a.dim)))


def change_of_basis(a: HomLieSuper, s: Matrix) -> HomLieSuper:
    """Conjugate the whole structure by an invertible even matrix.

    Column j of s holds the new basis vector e'_j in old coordinates.
    """
    from .linalg import invert
    sinv = invert(s)
    if sinv is None:
        raise PreconditionError("basis change matrix is singular")
    dim = a.dim
    for i, row in enumerate(s.entries):
        for j, _ in row:
            if a.space.parities[i] != a.space.parities[j]:
                raise PreconditionError("basis change must be even")
    cols = [s.col(i) for i in range(dim)]
    vectors = {}
    for i in range(dim):
        for j in range(dim):
            w = sinv.apply(a.bracket.eval_vectors(cols[i], cols[j]))
            if not is_zero_vec(w):
                vectors[(i, j)] = w
    alpha2 = GradedMap(a.space, a.space, sinv.mul(a.alpha.matrix.mul(s)))
    return HomLieSuper(a.space, SuperBracket2.from_vectors(a.space, vectors),
                       alpha2)
