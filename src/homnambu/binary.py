"""Hom-Lie superalgebras: brackets, twist maps, verifiers, Yau twists.

A bracket is a graded.SuperBracket of arity 2: the nonzero structure
vectors of [e_i, e_j], keyed by ordered pairs, stored as its integer view
(graded.SuperBracket.integer, scale D_W).  from_canonical accepts
coefficients on canonical index pairs only (i < j, or i = j odd) and
fills in the mirrors through the super-skew rule
[y,x] = -(-1)^{|x||y|}[x,y]; from_vectors accepts any entries so the
verifiers have something to catch.

yau_twist and change_of_basis transport the integer view and read no
Fraction vector: yau_twist maps each stored vector through the integer
columns of D_alpha alpha (linalg.map_terms), and change_of_basis maps
each through D_t s^-1 the same way and then contracts its input slots
with the integer rows of D_s s, each vector packed in one int.
change_of_basis takes any graded.HomAlgebra: it moves a bracket of either
arity and every twist of the record's twists tuple.  Both divide D and
the values by one gcd and keep a True super_skew, as an even map keeps
the symmetry, so they build the bracket from_vectors would, with the
same keys in the same order; change_of_basis_direct in tests/oracles.py
is the Fraction oracle of change_of_basis.

The verifiers read the integer view and print Fractions only for a
finding.  verify_skew formats the bracket's skew_breaks walk, and passes
at once on a super_skew bracket; verify_hom_jacobi reads the composite
table [alpha e_u, e_c] (SuperBracket.composite, one packed int per
vector) and sums each triple's cyclic residual at scale D_alpha D_W^2 as
one int, with hom_jacobi_residual as its naive Fraction oracle;
verify_multiplicative, verify_morphism and the yau_twist precondition
are graded.compat_residuals, reported by report_compat, as in ternary.
HomLieSuper is a graded.HomAlgebra with twists (alpha,); is_subalgebra
and is_ideal read twists and bracket.arity, so they take either arity.
"""

from fractions import Fraction
from itertools import product

from .graded import (GradedMap, GradedSpace, HomAlgebra, SuperBracket,
                     _column_bound, compat_residuals, skew_basis)
from .linalg import (InputError, Matrix, PreconditionError, Subspace, Vec,
                     content, field, integer_terms, invert, is_zero_vec,
                     map_terms, pack, record, slot_width, unpack, vec_add,
                     vec_scale, zero_vec)
from .report import Report, fmt_vec


class SuperBracket2(SuperBracket):
    """Binary bracket: value(i, j) is [e_i, e_j]."""
    arity = 2


@record(frozen=True)
class HomLieSuper(HomAlgebra):
    space: GradedSpace
    bracket: SuperBracket2
    alpha: GradedMap
    # what is known of the algebra (graded.HomAlgebra), filled on demand
    memo: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    @property
    def twists(self) -> tuple:
        return (self.alpha,)


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
    SuperBracket.composite, each vector packed in one int.  A triple's
    residual is then the cyclic signed sum of W(v,w)_c C[u][c] over the
    nonzero W(v,w), at scale D_alpha D_W^2, summed as one int: three sums
    over c, whose slots SuperBracket.join_width bounds, so the triple
    holds exactly when the int is 0.  Only a failing triple's int is
    unpacked, and only the residuals a report prints are divided back
    into Fractions.  The verdict is kept in a's memo (keep_verdict):
    cohomology reads a "pass" as half of a proof of d^2 = 0.
    """
    rep = Report("verify_hom_jacobi")
    sb = skew_basis(3, a.space)
    p = a.space.parities
    dim = a.space.dim
    dw, W = a.bracket.integer
    da, rows = integer_terms(a.alpha.matrix.entries)
    width = a.bracket.join_width((rows,), 3)
    table, = a.bracket.composite((rows,), (1,), width)
    C = {u: cols for (u,), cols in table.items()}
    scale = da * dw * dw
    for (x, y, z) in sb.tuples:
        out = 0
        for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
            Cu = C.get(u)
            inner = W.get((v, w))
            if Cu and inner:
                sign = -1 if (p[u] and p[w]) else 1
                for c, wc in inner:
                    col = Cu.get(c)
                    if col:
                        out += sign * wc * col
        if out:
            rep.fail("hom-jacobi",
                     witness=(a.space.names[x], a.space.names[y], a.space.names[z]),
                     residual=tuple(fmt_vec(Fraction(r, scale)
                                            for r in unpack(out, width, dim))))
    rep.metrics["triples_checked"] = len(sb.tuples)
    return a.keep_verdict(rep)


def report_compat(rep: Report, check: str, f: GradedMap,
                  source: SuperBracket, target: SuperBracket, keys) -> None:
    """Fail check on rep, witness the key's names, at each key where f
    does not carry source to target (graded.compat_residuals)."""
    names = f.domain.names
    for key, resid in compat_residuals(f, source, target, keys):
        rep.fail(check, witness=tuple(names[i] for i in key),
                 residual=tuple(fmt_vec(resid)))


def verify_multiplicative(a: HomLieSuper) -> Report:
    """alpha[x,y] = [alpha x, alpha y] on all basis pairs, the verdict kept
    in a's memo (keep_verdict), as verify_hom_jacobi keeps its own."""
    rep = Report("verify_multiplicative")
    report_compat(rep, "multiplicative", a.alpha, a.bracket, a.bracket,
                  product(range(a.dim), repeat=2))
    return a.keep_verdict(rep)


def verify_morphism(f: GradedMap, a: HomLieSuper, b: HomLieSuper) -> Report:
    """f[x,y]_a = [f x, f y]_b and f o alpha_a = alpha_b o f."""
    rep = Report("verify_morphism")
    if f.domain != a.space or f.codomain != b.space:
        raise InputError("morphism endpoints do not match the algebras")
    report_compat(rep, "bracket-compat", f, a.bracket, b.bracket,
                  product(range(a.dim), repeat=2))
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
    dw, view = lie.bracket.integer
    da, cols = integer_terms(morphism.matrix.transpose().entries)
    bracket = _least(SuperBracket2, lie.space, da * dw,
                     map_terms(view, cols),
                     lie.bracket.super_skew and morphism.parity == 0)
    twisted = HomLieSuper(lie.space, bracket, morphism)
    jacobi = verify_hom_jacobi(twisted)
    if not jacobi.ok:
        raise PreconditionError(
            f"twisted algebra fails Hom-Jacobi at "
            f"({','.join(jacobi.findings[0].witness)})")
    return twisted


def is_subalgebra(a: HomAlgebra, s: Subspace) -> bool:
    """Every twist keeps s, and [s, ..., s] lies in s."""
    return all(m.keeps(s) for m in a.twists) and s.contains_subspace(
        a.bracket.span(*[s] * a.bracket.arity))


def is_ideal(a: HomAlgebra, s: Subspace) -> bool:
    """Every twist keeps s, and [s, g, ..., g], which holds [s, ..., s],
    lies in s."""
    return all(m.keeps(s) for m in a.twists) and s.contains_subspace(
        a.bracket.span(s, *[Subspace.full(a.dim)] * (a.bracket.arity - 1)))


def change_of_basis(a: HomAlgebra, s: Matrix) -> HomAlgebra:
    """Conjugate the whole structure, of either arity, by an invertible
    even matrix: a record of a's type, its bracket of a's bracket class.

    Column j of s holds the new basis vector e'_j in old coordinates, so
    the new bracket is W'(i1, .., in) = s^-1 [s e_i1, .., s e_in] and each
    new twist alpha'(e_j) = s^-1 alpha(s e_j).  All are computed on
    integers by one transport: with S = D_s s and s^-1 cleared by D_t,
    each stored vector, of the bracket's integer view or a column of
    D_alpha alpha, is mapped through the integer columns of D_t s^-1
    (linalg.map_terms, as yau_twist applies alpha) and packed in one int
    (linalg.pack), and its input slots are contracted one after the other
    over the nonzero entries of S: W'(i, j) = sum_ab S(a, i) S(b, j) D_t
    s^-1 W(a, b) at scale D_t D_s^2 D_W on a binary bracket, D_s^3 on a
    ternary one.  A slot of an n-slot sum is at most c^n t in size, c the
    largest column sum of |S| (c^n is graded._column_bound of n copies of
    S) and t the largest |entry| of the mapped vectors, which the packing
    width holds with its sign.
    Every ordering is contracted, so a bracket that is not super-skew is
    carried as it is, and D is reduced as from_vectors leaves it.
    """
    sinv = invert(s)
    if sinv is None:
        raise PreconditionError("basis change matrix is singular")
    p = a.space.parities
    for i, row in enumerate(s.entries):
        for j, _ in row:
            if p[i] != p[j]:
                raise PreconditionError("basis change must be even")
    dim = a.dim
    ds, srows = integer_terms(s.entries)
    dt, tcols = integer_terms(sinv.transpose().entries)

    def conjugate(d, vectors, arity):
        # (scale, {key: s^-1 v(s e_i1, ...) as (m, int) pairs}), keys sorted
        mapped = map_terms(vectors, tcols)
        top = max((abs(x) for v in mapped.values() for _, x in v), default=0)
        width = slot_width(_column_bound([srows] * arity) * top)
        acc = {key: pack(terms, width) for key, terms in mapped.items()}
        for slot in range(arity):
            out = {}
            for key, v in acc.items():
                for i, x in srows[key[slot]]:
                    new = key[:slot] + (i,) + key[slot + 1:]
                    out[new] = out.get(new, 0) + x * v
            acc = out
        return dt * ds ** arity * d, {
            key: tuple((m, x) for m, x in enumerate(unpack(v, width, dim))
                       if x)
            for key, v in sorted(acc.items()) if v}

    d, vectors = conjugate(*a.bracket.integer, a.bracket.arity)
    bracket = _least(type(a.bracket), a.space, d, vectors,
                     a.bracket.super_skew)
    twists = []
    for twist in a.twists:
        da, acols = integer_terms(twist.matrix.transpose().entries)
        d, cols = conjugate(da, {(j,): c for j, c in enumerate(acols) if c}, 1)
        alpha = Matrix(dim, dim, tuple(
            tuple((r, Fraction(x, d)) for r, x in cols.get((j,), ()))
            for j in range(dim))).transpose()
        twists.append(GradedMap(a.space, a.space, alpha))
    return type(a)(a.space, bracket, *twists)


def _least(cls: type, space: GradedSpace, d: int, vectors: dict,
           super_skew: bool) -> SuperBracket:
    """The cls bracket of the integer vectors at scale d, d and every value
    divided by their gcd, so D is least as from_vectors leaves it.  A
    super_skew bracket mapped by an even map stays super-skew, so a True
    flag is kept, and otherwise the constructor walks skew_breaks."""
    g = content(d, (x for terms in vectors.values() for _, x in terms))
    if g > 1:
        vectors = {key: tuple((m, x // g) for m, x in terms)
                   for key, terms in vectors.items()}
    return cls(space, (d // g, vectors), True if super_skew else None)
