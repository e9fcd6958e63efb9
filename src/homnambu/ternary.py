"""Ternary Hom-Lie superalgebras and the supertrace-induced bracket.

The induced bracket of a Hom-Lie superalgebra (g, [.,.], alpha) with a
supertrace functional tau is

    [x1,x2,x3] = tau(x1)[x2,x3]
               - (-1)^{|x1||x2|} tau(x2)[x1,x3]
               + (-1)^{|x3|(|x1|+|x2|)} tau(x3)[x1,x2],

the formula that also transfers 2-cocycles; both are
reps.TraceFunctional.induce, which alone holds its signs.  induce_ternary
runs it in ints: tau's integer values against the binary bracket's
integer view, at D_tau D_W, and SuperBracket.from_integer fills every
ordering of the ternary bracket's integer view, its one stored form, so
no structure vector is summed in Fractions.

The generalized Jacobi (Hom-Nambu) identity is checked in the slot
placement that the induction theorem actually proves:

    [a1(x), a2(y), [z,u,v]] = [[x,y,z], a1(u), a2(v)]
        + (-1)^{|z|(|x|+|y|)}         [a1(z), [x,y,u], a2(v)]
        + (-1)^{(|z|+|u|)(|x|+|y|)}   [a1(z), a2(u), [x,y,v]].

TernaryHomLieSuper is a graded.HomAlgebra with twists (alpha1, alpha2); its
subalgebra and ideal tests are binary.is_subalgebra and is_ideal.  The
bracket is a graded.SuperBracket of arity 3 holding only its nonzero
structure vectors W(i,j,k), as its integer view (SuperBracket.integer,
scale D_W), which every verifier reads.  verify_ternary_skew passes at once
when SuperBracket.super_skew holds, and otherwise formats the bracket's
skew_breaks walk.  verify_ternary_multiplicative and
verify_induced_homomorphism are binary.report_compat.
verify_hom_nambu evaluates the identity as a sparse join over integers.
It takes the bracket's integer view, clears the denominators of both
twists once, and has SuperBracket.composite build three integer tables
from the nonzero W alone: [a1 e_a, a2 e_b, e_c], [e_c, a1 e_a, a2 e_b]
and [a1 e_a, e_c, a2 e_b], each vector packed in one Python int
(linalg.pack, in slots SuperBracket.join_width proves wide enough).
For each (x, y) it then pairs the nonzero W(z,u,v) with the first table
(the left side) and the nonzero W(x,y,w) with all three (the right
side), one int multiply-add per pair, so a tuple where every term is
zero costs nothing.  Every term has degree 2 in the bracket and 1 in
each twist, so the integer residuals are a fixed multiple of the true
ones; only failing residuals are unpacked, and only those a report
prints are divided back into Fractions.

When a1 = a2 and the bracket is super_skew, the residual is super-skew
in (x, y) and in (z, u, v), so the join runs over canonical orbits:
only canonical (x, y) blocks, and in them only canonical (z, u, v), are
computed, about a twelfth of the work, and each failing orbit is
expanded into its distinct orderings with the canonicalize signs.  The
report is the same.  Every algebra induced with alpha1 = alpha2 takes
this path (from_integer makes every induced bracket super_skew), while
distinct twists and brackets that break skew symmetry or the parity law
take the full join.  Both joins read one table builder and block kernel,
_block_kernel, over every key or the canonical ones alone, and
hom_nambu_residual_direct is the naive oracle of both.
"""

from fractions import Fraction

from .binary import (HomLieSuper, is_ideal, report_compat, verify_morphism,
                     yau_twist)
from .graded import (GradedMap, GradedSpace, HomAlgebra, SuperBracket,
                     _ordering_signs, image, skew_basis)
from .linalg import (PreconditionError, Subspace, Vec, field, integer_terms,
                     is_zero_vec, record, unpack, vec_add, vec_scale)
from .report import Report, fmt_vec
from .reps import TraceFunctional, trace_kernel, trace_mismatches


class SuperBracket3(SuperBracket):
    """Ternary bracket: value(i, j, k) is [e_i, e_j, e_k]."""
    arity = 3


@record(frozen=True)
class TernaryHomLieSuper(HomAlgebra):
    space: GradedSpace
    bracket: SuperBracket3
    alpha1: GradedMap
    alpha2: GradedMap
    # what is known of the algebra (graded.HomAlgebra), filled on demand
    memo: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    @property
    def twists(self) -> tuple:
        return (self.alpha1, self.alpha2)


def induce_ternary(g: HomLieSuper, tau: TraceFunctional,
                   alpha1: GradedMap, alpha2: GradedMap) -> TernaryHomLieSuper:
    """Build the induced ternary bracket: tau.induce of the binary
    bracket's integer view (D_W) on the canonical triples, at D_tau D_W,
    made a bracket by SuperBracket.from_integer."""
    if tau.algebra.space != g.space:
        raise PreconditionError("trace functional belongs to another algebra")
    dw, W = g.bracket.integer
    dt, coeffs = tau.induce(lambda i, j: W.get((i, j), ()),
                            skew_basis(3, g.space).tuples)
    bracket = SuperBracket3.from_integer(g.space, dt * dw, coeffs)
    return TernaryHomLieSuper(g.space, bracket, alpha1, alpha2)


def verify_ternary_skew(t: TernaryHomLieSuper) -> Report:
    """Both adjacent-transposition laws and the parity law, all basis triples.

    The findings are those of the bracket's skew_breaks walk, slots 0 and
    1 named skew-12 and skew-23, in the order of a loop over all dim^3
    triples; a super_skew bracket has none, and passes at once.
    """
    rep = Report("verify_ternary_skew")
    if t.bracket.super_skew:
        return rep
    names = t.space.names
    for key, slot, found in t.bracket.skew_breaks():
        witness = tuple(names[i] for i in key)
        if slot is None:
            rep.fail("parity-law", witness=witness,
                     detail=f"output hits {found[0]}")
        else:
            rep.fail(("skew-12", "skew-23")[slot], witness=witness,
                     residual=tuple(fmt_vec(found)))
    return rep


def hom_nambu_residual_direct(t: TernaryHomLieSuper, x, y, z, u, v,
                              a1=None, a2=None) -> Vec:
    """Straightforward evaluation of the generalized Jacobi residual.

    Kept deliberately naive; the sparse integer join of verify_hom_nambu
    must agree with it and the tests lean on that.
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

    The residuals come from one sparse join over integers, _hom_nambu_join:
    the denominators of the bracket (D_W) and of the twists (D1, D2) are
    cleared once, so every integer residual is D_W^2 D1 D2 times the true
    one.  Each residual is summed as one int, its coordinates in slots
    wide enough for an a-priori bound (SuperBracket.join_width), so a
    tuple holds exactly when its int is 0; only the failing ones are
    unpacked, and only the first 16, the ones reported, are divided back
    into exact Fractions.  A tuple is visited only when some term of its
    identity reads a stored entry; every other tuple has residual zero.
    With one twist and a super_skew bracket (any induced bracket) only
    canonical (x, y) and (z, u, v) are computed, and each failing orbit is
    expanded into its distinct orderings, residuals times the canonicalize
    signs; otherwise every tuple is.  Either way tuples_checked counts all
    dim^5 tuples, the violations come in lexicographic order, their total
    is the number of failing tuples, and past 16 a note gives it.

    With distinct twists the swapped slot placement is evaluated too, up
    to its first violation, and a note is emitted when the two placements
    disagree.  The verdict is kept in t's memo (keep_verdict): cohomology
    reads a "pass" as half of a proof of delta^2 = 0.
    """
    rep = Report("verify_hom_nambu")
    scale, found = _hom_nambu_join(t, t.alpha1, t.alpha2)
    names = t.space.names
    count = 0
    for tup, resid in found:
        count += 1
        if count <= 16:
            rep.fail("hom-nambu", witness=tuple(names[i] for i in tup),
                     residual=tuple(fmt_vec(Fraction(r, scale)
                                            for r in resid)))
    if count > 16:
        rep.note("hom-nambu-truncated",
                 detail=f"{count} violations total, first 16 reported")
    rep.metrics["tuples_checked"] = t.dim ** 5
    if not t.same_twists():
        swapped = _hom_nambu_join(t, t.alpha2, t.alpha1)[1]
        if (count == 0) != (next(swapped, None) is None):
            rep.note("placement-disagreement",
                     detail="identity holds in one twist placement but not the other")
    return t.keep_verdict(rep)


def _hom_nambu_join(t: TernaryHomLieSuper, a1: GradedMap, a2: GradedMap):
    """(scale, violations) of the identity in the placement (a1, a2).

    violations yields ((x, y, z, u, v), residual) for every basis 5-tuple
    with a nonzero residual, in lexicographic order; each residual is a
    list of integers, scale times the true one.  When a1 = a2 and the
    bracket is super_skew (skew symmetry and the parity law), _orbit_join
    computes them on canonical orbits; otherwise _join computes every
    tuple.  Both sum their blocks with _block_kernel, and
    hom_nambu_residual_direct is the naive oracle of both.
    """
    scale, tables = _integer_tables(t, a1, a2)
    join = (_orbit_join if a1.matrix == a2.matrix and t.bracket.super_skew
            else _join)
    return scale, join(t, *tables)


def _integer_tables(t: TernaryHomLieSuper, a1: GradedMap, a2: GradedMap):
    """(scale, (width, W, L, N, Q)): the bracket's integer view W and its
    composite tables L, N and Q (free slot 2, 0 and 1) in the placement
    (a1, a2), packed in slots of `width` bits.  The integer view (D_W) and
    the twists cleared of denominators (D1, D2) make everything integer,
    and every term of the identity has degree 2 in the bracket and 1 in
    each twist, so scale = D_W^2 D1 D2.  A residual is the left side and
    three right-hand terms, each a sum over c of W(k)_c times a table
    vector, so the width is SuperBracket.join_width's for 4 terms.
    """
    dw, W = t.bracket.integer
    d1, rows1 = integer_terms(a1.matrix.entries)
    d2, rows2 = integer_terms(a2.matrix.entries)
    width = t.bracket.join_width((rows1, rows2), 4)
    L, N, Q = t.bracket.composite((rows1, rows2), (2, 0, 1), width)
    return dw * dw * d1 * d2, (width, W, L, N, Q)


def _block_kernel(t: TernaryHomLieSuper, W: dict, L: dict, N: dict, Q: dict,
                  keys):
    """block(x, y) -> [(key, packed residual)] for the keys
    z*dim^2 + u*dim + v in `keys`, increasing, whose residual is nonzero:
    every key, or the canonical ones.

    Built once: lhs[c], each key of a nonzero W(z,u,v) with its column c
    term, read by the left side [a1 x, a2 y, W(z,u,v)] through L[x, y];
    rhs[w][c], each right-hand entry that reads W(x,y,w)[c], as its key
    and its composite: N[u, v] with w = z, Q[z, v] with w = u and L[z, u]
    with w = v, of signs 1, (-1)^{|z|(|x|+|y|)} and
    (-1)^{(|z|+|u|)(|x|+|y|)}, in two lists: the entries whose sign is
    always 1, and those whose sign flips when |x|+|y| is odd.  A block
    sums only the keys these touch; no other can be nonzero.  The tables
    hold each vector packed in one int, so a term is one multiply-add
    whatever the dimension, into one int per key, and a residual is zero
    exactly when its int is, since join_width bounds every slot.
    """
    p = t.space.parities
    dim = t.dim
    dd = dim * dim
    size = dd * dim
    wanted = set(keys)
    lhs = [[] for _ in range(dim)]
    for (z, u, v), terms in W.items():
        key = z * dd + u * dim + v
        if key in wanted:
            for c, wc in terms:
                lhs[c].append((key, wc))
    rhs = [[([], []) for _ in range(dim)] for _ in range(dim)]
    for weight, table, offset, flip in (
            (dd, N, lambda u, v: u * dim + v, lambda u, v: False),
            (dim, Q, lambda z, v: z * dd + v, lambda z, v: p[z]),
            (1, L, lambda z, u: z * dd + u * dim, lambda z, u: p[z] != p[u])):
        for (a, b), cols in table.items():
            off, f = offset(a, b), int(flip(a, b))
            for w in range(dim):
                key = w * weight + off
                if key in wanted:
                    for c, col in cols.items():
                        rhs[w][c][f].append((key, col))
    row_xy = {}
    for (x, y, w), terms in W.items():
        row_xy.setdefault((x, y), []).append((w, terms))

    def block(x, y):
        acc = [0] * size
        for c, col in L.get((x, y), {}).items():
            for key, wc in lhs[c]:
                acc[key] += wc * col
        odd = p[x] != p[y]
        for w, terms in row_xy.get((x, y), ()):
            row = rhs[w]
            for c, wc in terms:
                kept, flipped = row[c]
                f = -wc
                for key, col in kept:
                    acc[key] += f * col
                if odd:
                    f = wc
                for key, col in flipped:
                    acc[key] += f * col
        return [(key, acc[key]) for key in keys if acc[key]]

    return block


def _unkey(key: int, dim: int) -> tuple:
    """(z, u, v) of the key z*dim^2 + u*dim + v."""
    return key // (dim * dim), key // dim % dim, key % dim


def _join(t: TernaryHomLieSuper, width: int, W: dict, L: dict, N: dict,
          Q: dict):
    """The residuals, one (x, y) block of _block_kernel at a time, every
    key kept, each block's nonzero keys in order, unpacked."""
    dim = t.dim
    block = _block_kernel(t, W, L, N, Q, range(dim ** 3))
    for x in range(dim):
        for y in range(dim):
            for key, r in block(x, y):
                yield (x, y, *_unkey(key, dim)), unpack(r, width, dim)


def _orbit_join(t: TernaryHomLieSuper, width: int, W: dict, L: dict, N: dict,
                Q: dict):
    """The residuals of _join, computed on canonical orbits only.

    With a1 = a2 and a super-skew bracket that obeys the parity law, the
    residual R(x, y, z, u, v) is super-skew in (x, y) and in (z, u, v):
    R at any ordering is R at the canonical one times the canonicalize
    signs of both parts, and zero when an even index repeats.  So only
    canonical (x, y) blocks are computed, each of _block_kernel with the
    canonical keys (z, u, v) alone.  Each failing canonical key is
    unpacked and expanded into its distinct orderings, and the block of a
    non-canonical (x, y) is the one of (y, x) times the pair's sign, so
    the violations come out as _join yields them.
    """
    p = t.space.parities
    dim = t.dim
    block = _block_kernel(t, W, L, N, Q, sorted(
        (z * dim + u) * dim + v for z, u, v in skew_basis(3, t.space).tuples))

    orbits = {}  # canonical key -> {ordering's key: its sign is -1}

    def orbit(key):
        """The distinct orderings of a canonical key, each with whether its
        canonicalize sign is -1, read off _ordering_signs once per key."""
        if key not in orbits:
            idx = _unkey(key, dim)
            signs = orbits[key] = {}
            for order, positive in _ordering_signs(tuple(p[i] for i in idx)):
                i, j, m = order(idx)
                signs[(i * dim + j) * dim + m] = not positive
        return orbits[key].items()

    def expanded(x, y):
        """Sorted (key, R, -R) of every failing tuple (x, y, key), x <= y."""
        found = []
        for key, packed in block(x, y):
            resid = unpack(packed, width, dim)
            neg = [-r for r in resid]
            found += [(code, neg, resid) if odd else (code, resid, neg)
                      for code, odd in orbit(key)]
        found.sort(key=lambda item: item[0])
        return found

    mirrored = {}
    for x in range(dim):
        for y in range(dim):
            if x > y:
                found = mirrored.pop((y, x), ())
                flip = not (p[x] and p[y])
            elif x < y or p[x]:
                found = expanded(x, y)
                flip = False
                if x < y and found:
                    mirrored[x, y] = found
            else:
                continue
            for key, resid, neg in found:
                yield (x, y, *_unkey(key, dim)), neg if flip else resid


def verify_ternary_multiplicative(t: TernaryHomLieSuper) -> Report:
    """alpha[x1,x2,x3] = [alpha x1, alpha x2, alpha x3] when both twists
    agree, and not-applicable otherwise; the verdict is kept in t's memo
    (keep_verdict), as verify_hom_nambu keeps its own."""
    rep = Report("verify_ternary_multiplicative")
    if not t.same_twists():
        rep.applicable = False
        rep.note("twists-differ", detail="multiplicativity needs alpha1 = alpha2")
        return t.keep_verdict(rep)
    report_compat(rep, "ternary-multiplicative", t.alpha1, t.bracket,
                  t.bracket, skew_basis(3, t.space).tuples)
    return t.keep_verdict(rep)


def ideal_criterion(g: HomLieSuper, tau: TraceFunctional, j: Subspace,
                    t: TernaryHomLieSuper) -> Report:
    """Binary Hom-ideals become ternary Hom-ideals iff [g,g] in J or J in ker tau."""
    rep = Report("ideal_criterion")
    if not is_ideal(g, j):
        rep.applicable = False
        rep.note("precondition", detail="J is not a binary Hom-ideal")
        return rep
    if not t.alpha2.keeps(j):
        rep.applicable = False
        rep.note("precondition", detail="alpha2 does not preserve J")
        return rep
    lhs = is_ideal(t, j)
    in_comm = j.contains_subspace(image(g))
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
    for jcol in trace_mismatches(tau1, f, tau2):
        rep.fail("trace-compat", witness=(g1.space.names[jcol],))
    for k, (m1, m2) in enumerate(zip(t1.twists, t2.twists), 1):
        if f.matrix.mul(m1.matrix) != m2.matrix.mul(f.matrix):
            rep.fail(f"twist{k}-compat")
    if not rep.ok:
        return rep
    report_compat(rep, "ternary-bracket-compat", f, t1.bracket, t2.bracket,
                  skew_basis(3, g1.space).tuples)
    return rep


def check_twist_commutes(lie: HomLieSuper, morphism: GradedMap,
                         tau: TraceFunctional) -> Report:
    """Inducing then twisting equals twisting then inducing.

    Both routes start from an untwisted algebra: route A applies the
    morphism to the induced bracket, route B induces from the Yau twist.
    """
    rep = Report("check_twist_commutes")
    if not lie.alpha.is_identity():
        raise PreconditionError("check_twist_commutes expects alpha = id")
    bad = trace_mismatches(tau, morphism)
    if bad:
        rep.applicable = False
        rep.note("precondition", detail=f"tau o morphism differs from tau at "
                                        f"{lie.space.names[bad[0]]}")
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
