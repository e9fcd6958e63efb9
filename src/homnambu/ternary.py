"""Ternary Hom-Lie superalgebras and the supertrace-induced bracket.

The induced bracket of a Hom-Lie superalgebra (g, [.,.], alpha) with a
supertrace functional tau is

    [x1,x2,x3] = tau(x1)[x2,x3]
               - (-1)^{|x1||x2|} tau(x2)[x1,x3]
               + (-1)^{|x3|(|x1|+|x2|)} tau(x3)[x1,x2].

The generalized Jacobi (Hom-Nambu) identity is checked in the slot
placement that the induction theorem actually proves:

    [a1(x), a2(y), [z,u,v]] = [[x,y,z], a1(u), a2(v)]
        + (-1)^{|z|(|x|+|y|)}         [a1(z), [x,y,u], a2(v)]
        + (-1)^{(|z|+|u|)(|x|+|y|)}   [a1(z), a2(u), [x,y,v]].

The bracket is a graded.SuperBracket of arity 3 holding only its nonzero
structure vectors.  verify_hom_nambu evaluates the identity through
composite matrices such as w -> [a1(x), a2(y), w], one per pair of basis
elements and free slot; hom_nambu_residual_direct is the naive oracle.
"""

from dataclasses import dataclass, field

from .binary import HomLieSuper, verify_morphism
from .graded import (GradedMap, GradedSpace, SuperBracket,
                     parity_law_violations, skew_basis)
from .linalg import (InputError, Matrix, PreconditionError, Subspace, Vec,
                     is_zero_vec, unit_vec, vec_add, vec_scale, zero_vec)
from .report import Report, fmt_vec
from .reps import TraceFunctional


class SuperBracket3(SuperBracket):
    """Ternary bracket: entries[(i, j, k)] is [e_i, e_j, e_k]."""
    arity = 3


@dataclass(frozen=True)
class TernaryHomLieSuper:
    space: GradedSpace
    bracket: SuperBracket3
    alpha1: GradedMap
    alpha2: GradedMap
    # value-free coboundary rows, filled on demand by cohomology
    memo: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    def __post_init__(self):
        if self.bracket.space != self.space:
            raise InputError("ternary bracket space mismatch")
        for a in (self.alpha1, self.alpha2):
            if a.domain != self.space or a.codomain != self.space or a.parity != 0:
                raise InputError("twists must be even endomorphisms")

    @property
    def dim(self) -> int:
        return self.space.dim

    def same_twists(self) -> bool:
        return self.alpha1.matrix == self.alpha2.matrix


def induce_ternary(g: HomLieSuper, tau: TraceFunctional,
                   alpha1: GradedMap, alpha2: GradedMap) -> TernaryHomLieSuper:
    """Build the induced ternary bracket from a supertrace functional."""
    if tau.algebra.space != g.space:
        raise PreconditionError("trace functional belongs to another algebra")
    dim = g.dim
    p = g.space.parities
    coeffs = {}
    for key in skew_basis(3, g.space).tuples:
        i, j, k = key
        v = zero_vec(dim)
        if tau.values[i] != 0:
            v = vec_add(v, vec_scale(tau.values[i], g.bracket.value(j, k)))
        if tau.values[j] != 0:
            s = -1 if (p[i] and p[j]) else 1
            v = vec_add(v, vec_scale(-s * tau.values[j], g.bracket.value(i, k)))
        if tau.values[k] != 0:
            s = -1 if (p[k] and (p[i] ^ p[j])) else 1
            v = vec_add(v, vec_scale(s * tau.values[k], g.bracket.value(i, j)))
        if not is_zero_vec(v):
            coeffs[key] = v
    bracket = SuperBracket3.from_canonical(g.space, coeffs)
    return TernaryHomLieSuper(g.space, bracket, alpha1, alpha2)


def verify_ternary_skew(t: TernaryHomLieSuper) -> Report:
    """Both adjacent-transposition laws and the parity law, all basis triples."""
    rep = Report("verify_ternary_skew")
    sp = t.space
    p = sp.parities
    dim = sp.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                v = t.bracket.value(i, j, k)
                s12 = 1 if (p[i] and p[j]) else -1
                r12 = vec_add(v, vec_scale(-s12, t.bracket.value(j, i, k)))
                if not is_zero_vec(r12):
                    rep.fail("skew-12",
                             witness=(sp.names[i], sp.names[j], sp.names[k]),
                             residual=tuple(fmt_vec(r12)))
                s23 = 1 if (p[j] and p[k]) else -1
                r23 = vec_add(v, vec_scale(-s23, t.bracket.value(i, k, j)))
                if not is_zero_vec(r23):
                    rep.fail("skew-23",
                             witness=(sp.names[i], sp.names[j], sp.names[k]),
                             residual=tuple(fmt_vec(r23)))
                bad = parity_law_violations(sp, v, (p[i] + p[j] + p[k]) % 2)
                if bad:
                    rep.fail("parity-law",
                             witness=(sp.names[i], sp.names[j], sp.names[k]),
                             detail=f"output hits {bad[0]}")
    return rep


def _composites(t: TernaryHomLieSuper, free: int, first: GradedMap,
                second: GradedMap):
    """Matrices M[a][b]: M[a][b] w is the bracket with w in slot `free` and
    first(e_a), second(e_b) in the other two slots, in order.

    free = 2 gives [first(e_a), second(e_b), w], free = 1 gives
    [first(e_a), w, second(e_b)] and free = 0 gives [w, first(e_a), second(e_b)].
    """
    dim = t.dim
    units = [unit_vec(dim, k) for k in range(dim)]
    out = []
    for a in range(dim):
        row = []
        for b in range(dim):
            pair = [first.column(a), second.column(b)]
            cols = [t.bracket.eval_vectors(*pair[:free], units[k], *pair[free:])
                    for k in range(dim)]
            row.append(Matrix.from_columns(cols, dim))
        out.append(row)
    return out


def hom_nambu_residual_direct(t: TernaryHomLieSuper, x, y, z, u, v,
                              a1=None, a2=None) -> Vec:
    """Straightforward evaluation of the generalized Jacobi residual.

    Kept deliberately naive; the composite-matrix verifier below must
    agree with it and the tests lean on that.
    """
    a1 = a1 if a1 is not None else t.alpha1
    a2 = a2 if a2 is not None else t.alpha2
    p = t.space.parities
    B = t.bracket.eval_vectors
    lhs = B(a1.column(x), a2.column(y), t.bracket.value(z, u, v))
    t1 = B(t.bracket.value(x, y, z), a1.column(u), a2.column(v))
    s2 = -1 if (p[z] and (p[x] ^ p[y])) else 1
    t2 = B(a1.column(z), t.bracket.value(x, y, u), a2.column(v))
    s3 = -1 if ((p[z] ^ p[u]) and (p[x] ^ p[y])) else 1
    t3 = B(a1.column(z), a2.column(u), t.bracket.value(x, y, v))
    rhs = vec_add(vec_add(t1, vec_scale(s2, t2)), vec_scale(s3, t3))
    return vec_add(lhs, vec_scale(-1, rhs))


def verify_hom_nambu(t: TernaryHomLieSuper) -> Report:
    """Generalized Jacobi identity on all basis 5-tuples.

    With distinct twists the swapped slot placement is evaluated too and a
    note is emitted when the two placements disagree.
    """
    rep = Report("verify_hom_nambu")
    fails = _hom_nambu_violations(t, t.alpha1, t.alpha2, rep, "hom-nambu")
    rep.metrics["tuples_checked"] = t.dim ** 5
    if not t.same_twists():
        alt = Report("alt")
        alt_fails = _hom_nambu_violations(t, t.alpha2, t.alpha1, alt, "hom-nambu-swapped")
        if (fails == 0) != (alt_fails == 0):
            rep.note("placement-disagreement",
                     detail="identity holds in one twist placement but not the other")
    return rep


def _hom_nambu_violations(t, a1, a2, rep, check_name) -> int:
    sp = t.space
    p = sp.parities
    dim = t.dim
    L = _composites(t, 2, a1, a2)  # [a1 x, a2 y, w]
    N = _composites(t, 0, a1, a2)  # [w, a1 u, a2 v]
    Q = _composites(t, 1, a1, a2)  # [a1 z, w, a2 v]
    W = t.bracket.value
    count = 0
    for x in range(dim):
        for y in range(dim):
            Lxy = L[x][y]
            for z in range(dim):
                for u in range(dim):
                    s2 = -1 if (p[z] and (p[x] ^ p[y])) else 1
                    s3 = -1 if ((p[z] ^ p[u]) and (p[x] ^ p[y])) else 1
                    Lzu = L[z][u]
                    for v in range(dim):
                        lhs = Lxy.apply(W(z, u, v))
                        r = N[u][v].apply(W(x, y, z))
                        r2 = Q[z][v].apply(W(x, y, u))
                        r3 = Lzu.apply(W(x, y, v))
                        resid = tuple(
                            lv - (rv + s2 * r2v + s3 * r3v)
                            for lv, rv, r2v, r3v in zip(lhs, r, r2, r3))
                        if not is_zero_vec(resid):
                            count += 1
                            if count <= 16:
                                rep.fail(check_name,
                                         witness=(sp.names[x], sp.names[y],
                                                  sp.names[z], sp.names[u],
                                                  sp.names[v]),
                                         residual=tuple(fmt_vec(resid)))
    if count > 16:
        rep.note(f"{check_name}-truncated",
                 detail=f"{count} violations total, first 16 reported")
    return count


def verify_ternary_multiplicative(t: TernaryHomLieSuper) -> Report:
    """alpha[x1,x2,x3] = [alpha x1, alpha x2, alpha x3] when both twists agree."""
    rep = Report("verify_ternary_multiplicative")
    if not t.same_twists():
        rep.applicable = False
        rep.note("twists-differ", detail="multiplicativity needs alpha1 = alpha2")
        return rep
    a = t.alpha1
    for key in skew_basis(3, t.space).tuples:
        i, j, k = key
        lhs = a.apply(t.bracket.value(i, j, k))
        rhs = t.bracket.eval_vectors(a.column(i), a.column(j), a.column(k))
        resid = vec_add(lhs, vec_scale(-1, rhs))
        if not is_zero_vec(resid):
            rep.fail("ternary-multiplicative",
                     witness=(t.space.names[i], t.space.names[j], t.space.names[k]),
                     residual=tuple(fmt_vec(resid)))
    return rep


def ternary_is_subalgebra(t: TernaryHomLieSuper, s: Subspace) -> bool:
    """Both twists keep s, and [s,s,s] lies in s."""
    if s.ambient_dim != t.dim:
        raise InputError("subspace ambient dimension mismatch")
    basis = s.vectors()
    for m in (t.alpha1, t.alpha2):
        for uvec in basis:
            if not s.contains(m.apply(uvec)):
                return False
    for a in basis:
        for b in basis:
            for c in basis:
                if not s.contains(t.bracket.eval_vectors(a, b, c)):
                    return False
    return True


def ternary_is_ideal(t: TernaryHomLieSuper, s: Subspace) -> bool:
    """Twist stability plus [s, g, g] in s."""
    if s.ambient_dim != t.dim:
        raise InputError("subspace ambient dimension mismatch")
    basis = s.vectors()
    for m in (t.alpha1, t.alpha2):
        for uvec in basis:
            if not s.contains(m.apply(uvec)):
                return False
    dim = t.dim
    for a in basis:
        for j in range(dim):
            ej = tuple(1 if n == j else 0 for n in range(dim))
            for k in range(dim):
                ek = tuple(1 if n == k else 0 for n in range(dim))
                if not s.contains(t.bracket.eval_vectors(a, ej, ek)):
                    return False
    return True


def ideal_criterion(g: HomLieSuper, tau: TraceFunctional, j: Subspace,
                    t: TernaryHomLieSuper) -> Report:
    """Binary Hom-ideals become ternary Hom-ideals iff [g,g] in J or J in ker tau."""
    from .binary import derived_subspace, is_ideal
    from .reps import trace_kernel
    rep = Report("ideal_criterion")
    if not is_ideal(g, j):
        rep.applicable = False
        rep.note("precondition", detail="J is not a binary Hom-ideal")
        return rep
    for uvec in j.vectors():
        if not j.contains(t.alpha2.apply(uvec)):
            rep.applicable = False
            rep.note("precondition", detail="alpha2 does not preserve J")
            return rep
    lhs = ternary_is_ideal(t, j)
    comm = derived_subspace(g, Subspace.full(g.dim), Subspace.full(g.dim))
    in_comm = j.contains_subspace(comm)
    in_ker = trace_kernel(tau).contains_subspace(j)
    rhs = in_comm or in_ker
    rep.metrics["ternary_ideal"] = lhs
    rep.metrics["commutator_in_J"] = in_comm
    rep.metrics["J_in_trace_kernel"] = in_ker
    if lhs != rhs:
        rep.fail("criterion-equivalence",
                 detail=f"ternary ideal: {lhs}, criterion sides: {rhs}")
    return rep


def verify_induced_homomorphism(f: GradedMap,
                                g1: HomLieSuper, tau1: TraceFunctional,
                                t1: TernaryHomLieSuper,
                                g2: HomLieSuper, tau2: TraceFunctional,
                                t2: TernaryHomLieSuper) -> Report:
    """Trace-compatible twisted morphisms transport the induced brackets."""
    rep = Report("verify_induced_homomorphism")
    base = verify_morphism(f, g1, g2)
    if not base.ok:
        rep.absorb(base, "binary-")
        return rep
    for jcol in range(g1.dim):
        if tau2.apply(f.column(jcol)) != tau1.values[jcol]:
            rep.fail("trace-compat", witness=(g1.space.names[jcol],))
    for (m1, m2, label) in ((t1.alpha1, t2.alpha1, "twist1-compat"),
                            (t1.alpha2, t2.alpha2, "twist2-compat")):
        if f.matrix.mul(m1.matrix) != m2.matrix.mul(f.matrix):
            rep.fail(label)
    if not rep.ok:
        return rep
    for key in skew_basis(3, g1.space).tuples:
        i, j, k = key
        lhs = f.apply(t1.bracket.value(i, j, k))
        rhs = t2.bracket.eval_vectors(f.column(i), f.column(j), f.column(k))
        resid = vec_add(lhs, vec_scale(-1, rhs))
        if not is_zero_vec(resid):
            rep.fail("ternary-bracket-compat",
                     witness=(g1.space.names[i], g1.space.names[j], g1.space.names[k]),
                     residual=tuple(fmt_vec(resid)))
    return rep


def check_twist_commutes(lie: HomLieSuper, morphism: GradedMap,
                         tau: TraceFunctional) -> Report:
    """Inducing then twisting equals twisting then inducing.

    Both routes start from an untwisted algebra: route A applies the
    morphism to the induced bracket, route B induces from the Yau twist.
    """
    from .binary import yau_twist
    rep = Report("check_twist_commutes")
    if not lie.alpha.is_identity():
        raise PreconditionError("check_twist_commutes expects alpha = id")
    for jcol in range(lie.dim):
        if tau.apply(morphism.column(jcol)) != tau.values[jcol]:
            rep.applicable = False
            rep.note("precondition",
                     detail=f"tau o morphism differs from tau at "
                            f"{lie.space.names[jcol]}")
            return rep
    plain = induce_ternary(lie, tau, lie.alpha, lie.alpha)
    twisted_binary = yau_twist(lie, morphism)
    route_b = induce_ternary(twisted_binary, tau, morphism, morphism)
    sb = skew_basis(3, lie.space)
    for key in sb.tuples:
        i, j, k = key
        route_a = morphism.apply(plain.bracket.value(i, j, k))
        resid = vec_add(route_a, vec_scale(-1, route_b.bracket.value(i, j, k)))
        if not is_zero_vec(resid):
            rep.fail("twist-commutes",
                     witness=(lie.space.names[i], lie.space.names[j],
                              lie.space.names[k]),
                     residual=tuple(fmt_vec(resid)))
    rep.metrics["triples_checked"] = len(sb.tuples)
    return rep
