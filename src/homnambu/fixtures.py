"""Worked example algebras used across the test suite and the CLI corpus.

Each positive fixture returns an (algebra, representation) pair; the
negative fixtures return whatever broken object their verifier expects.
The negatives are built through the raw constructors on purpose.
"""

from fractions import Fraction

from .binary import HomLieSuper, SuperBracket2, change_of_basis, yau_twist
from .graded import GradedMap, graded_space, identity_map
from .linalg import Matrix, integer_terms, invert, map_terms
from .reps import (Representation, adjoint_representation, trace_functional,
                   zero_representation)
from .ternary import TernaryHomLieSuper, induce_ternary


def a0():
    """Two-dimensional abelian algebra with one even and one odd generator."""
    sp = graded_space(("e1", "e2"), (0, 1))
    lie = HomLieSuper(sp, SuperBracket2.from_canonical(sp, {}), identity_map(sp))
    return lie, zero_representation(lie)


def aff1():
    """The affine line: [e1,e2] = e2, purely even, adjoint representation."""
    sp = graded_space(("e1", "e2"), (0, 0))
    bracket = SuperBracket2.from_canonical(sp, {(0, 1): (0, 1)})
    lie = HomLieSuper(sp, bracket, identity_map(sp))
    return lie, adjoint_representation(lie)


GL11_COEFFS = {
    (0, 2): (0, 0, 1, 0),    # [h1,q] = q
    (0, 3): (0, 0, 0, -1),   # [h1,p] = -p
    (1, 2): (0, 0, -1, 0),   # [h2,q] = -q
    (1, 3): (0, 0, 0, 1),    # [h2,p] = p
    (2, 3): (1, 1, 0, 0),    # [q,p] = h1 + h2
}


def gl11():
    """gl(1|1) on basis (h1, h2, q, p) with its defining representation.

    The supertrace of the defining representation is (1, -1, 0, 0), which
    is what makes this the workhorse fixture: the induced ternary bracket
    is nonzero but small enough to check by hand.
    """
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    bracket = SuperBracket2.from_canonical(sp, GL11_COEFFS)
    lie = HomLieSuper(sp, bracket, identity_map(sp))
    v = graded_space(("v0", "v1"), (0, 1))
    mk = lambda grid, par: GradedMap(v, v, Matrix.build(grid), par)
    mats = (
        mk([[1, 0], [0, 0]], 0),
        mk([[0, 0], [0, 1]], 0),
        mk([[0, 1], [0, 0]], 1),
        mk([[0, 0], [1, 0]], 1),
    )
    rep = Representation(lie, v, mats, identity_map(v))
    return lie, rep


def gl11_tau():
    lie, rep = gl11()
    return lie, trace_functional(rep)


def induced_gl11() -> TernaryHomLieSuper:
    lie, tau = gl11_tau()
    return induce_ternary(lie, tau, lie.alpha, lie.alpha)


def alpha_t(space, t):
    """diag(1, 1, t, 1/t): an automorphism of gl(1|1) for any nonzero t."""
    t = Fraction(t)
    d = [Fraction(1), Fraction(1), t, 1 / t]
    m = Matrix.build([[d[i] if i == j else 0 for j in range(4)] for i in range(4)])
    return GradedMap(space, space, m)


def gl11t(t=Fraction(2)):
    """Yau twist of gl(1|1) along alpha_t, with its adjoint representation.

    The defining representation does not survive the twist (no even beta
    on the 2-dimensional module intertwines it), so the twisted fixture
    ships the adjoint action instead.  Its supertrace functional is
    (-t + 1/t, t - 1/t, 0, 0), still alpha_t-invariant.
    """
    base, _ = gl11()
    twisted = yau_twist(base, alpha_t(base.space, t))
    return twisted, adjoint_representation(twisted)


def matrix_units(m: int, n: int) -> list:
    """Index pairs (i, j) of the basis E_ij of gl(m|n), in basis order:
    even diagonal units, then even off-diagonal units, then odd units,
    each group in lexicographic (i, j) order."""
    size = m + n
    deg = [0] * m + [1] * n
    diag = [(i, i) for i in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    even_off = [(i, j) for i, j in pairs if deg[i] == deg[j]]
    odd = [(i, j) for i, j in pairs if deg[i] != deg[j]]
    return diag + even_off + odd


def glmn(m: int, n: int):
    """gl(m|n) on the matrix units E_ij, of parity |i| + |j| where the first
    m indices are even, with the supercommutator and its defining
    representation; alpha and beta are identities.

    The basis names are E{i}_{j}, in matrix_units order, so gl(1|1) is
    gl11() up to names.
    """
    size = m + n
    deg = [0] * m + [1] * n
    units = matrix_units(m, n)
    pos = {u: k for k, u in enumerate(units)}
    par = [(deg[i] + deg[j]) % 2 for i, j in units]
    dim = len(units)
    sp = graded_space([f"E{i}_{j}" for i, j in units], par)
    coeffs = {}
    for a, (i, j) in enumerate(units):
        for b in range(a, dim):
            if a == b and par[a] == 0:
                continue
            k, l = units[b]
            # [E_ij, E_kl] = d_jk E_il - (-1)^{|a||b|} d_li E_kj
            v = [0] * dim
            if j == k:
                v[pos[(i, l)]] += 1
            if l == i:
                v[pos[(k, j)]] -= -1 if (par[a] and par[b]) else 1
            if any(v):
                coeffs[(a, b)] = tuple(v)
    lie = HomLieSuper(sp, SuperBracket2.from_canonical(sp, coeffs),
                      identity_map(sp))
    mod = graded_space([f"v{i}" for i in range(size)], deg)
    mats = tuple(
        GradedMap(mod, mod,
                  Matrix.build([[1 if (r, c) == u else 0 for c in range(size)]
                                for r in range(size)]),
                  par[k])
        for k, u in enumerate(units))
    return lie, Representation(lie, mod, mats, identity_map(mod))


def central_twist(m: int, n: int) -> GradedMap:
    """alpha = id + lambda(.) I on gl(m|n): I the identity matrix, which is
    central, and lambda(E_k) = k + 1 on the even units, 0 on the odd ones,
    an even functional that is no multiple of the supertrace.  The bracket
    with alpha is Hom-Jacobi but not multiplicative, and when m = n,
    str(I) = 0, so the supertrace tau has tau o alpha = tau."""
    sp = glmn(m, n)[0].space
    p = sp.parities
    return GradedMap(sp, sp, Matrix.build(
        [[(r == k) + (0 if p[k] else k + 1) * (i == j) for k in range(sp.dim)]
         for r, (i, j) in enumerate(matrix_units(m, n))]))


# --- negative controls -----------------------------------------------------
# Each one breaks exactly the axiom named in its function, with the
# witness tuple the verifier is expected to report.


def neg_skew():
    """[q,p] and [p,q] forced antisymmetric; odd-odd pairs must be symmetric.

    verify_skew fails at witness (q, p).
    """
    lie, _ = gl11()
    b = lie.bracket.with_entry(2, 3, (1, 0, 0, 0)).with_entry(3, 2, (-1, 0, 0, 0))
    return HomLieSuper(lie.space, b, lie.alpha)


def neg_jacobi():
    """[q,p] = h1 consistently (mirror included): skew holds, Jacobi breaks.

    verify_hom_jacobi fails at witness (q, q, p) with residual 2q.
    """
    sp = graded_space(("h1", "h2", "q", "p"), (0, 0, 1, 1))
    coeffs = dict(GL11_COEFFS)
    coeffs[(2, 3)] = (1, 0, 0, 0)
    return HomLieSuper(sp, SuperBracket2.from_canonical(sp, coeffs), identity_map(sp))


def neg_mult():
    """alpha swapping h1 and h2 is not a morphism of gl(1|1).

    verify_multiplicative fails at witness (h1, q).
    """
    lie, _ = gl11()
    m = Matrix.build([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return HomLieSuper(lie.space, lie.bracket, GradedMap(lie.space, lie.space, m))


def neg_rep():
    """beta = diag(1,2) breaks the intertwining axiom.

    verify_representation fails axiom 1 at witness (q,).
    """
    lie, rep = gl11()
    beta = GradedMap(rep.module_space, rep.module_space,
                     Matrix.build([[1, 0], [0, 2]]))
    return Representation(lie, rep.module_space, rep.matrices, beta)


def neg_ternary_skew():
    """One stored ternary coefficient bumped by +1, permuted copies stale."""
    t = induced_gl11()
    v = t.bracket.value(0, 2, 3)
    bumped = (v[0] + 1,) + v[1:]
    return TernaryHomLieSuper(t.space, t.bracket.with_entry(0, 2, 3, bumped),
                              t.alpha1, t.alpha2)


def neg_nambu():
    """[h1,q,p] doubled consistently: skew survives, Hom-Nambu does not."""
    t = induced_gl11()
    b = t.bracket.with_canonical((0, 2, 3), (2, 2, 0, 0))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def neg_ternary_mult():
    """Induced bracket with a non-morphism even twist in both slots."""
    t = induced_gl11()
    m = Matrix.build([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    a = GradedMap(t.space, t.space, m)
    return TernaryHomLieSuper(t.space, t.bracket, a, a)


# --- randomization helpers --------------------------------------------------


def random_even_invertible(rng, space) -> Matrix:
    """Random invertible parity-preserving matrix with entries in [-2, 2]."""
    dim = space.dim
    while True:
        m = Matrix.build([[rng.randint(-2, 2)
                           if space.parities[i] == space.parities[j] else 0
                           for j in range(dim)] for i in range(dim)])
        if invert(m) is not None:
            return m


def conjugate_pair(lie, rep, s: Matrix):
    """Transport (lie, rep) along the basis change e'_j = s e_j.

    The module and beta stay put; rho'(e'_j) = rho(s e_j) by linearity:
    column j of D_s s mapped through the action matrices, each cleared to
    integers and flattened into one column, by the map_terms transport
    that change_of_basis conjugates the bracket and alpha with.
    """
    lie2 = change_of_basis(lie, s)
    n = rep.module_space.dim
    dr, flat = integer_terms(
        [(r * n + c, x) for r, row in enumerate(rep.rho_matrix(a).entries)
         for c, x in row] for a in range(lie.dim))
    ds, cols = integer_terms(s.transpose().entries)
    images = map_terms(dict(enumerate(cols)), flat)
    mats = []
    for j in range(lie.dim):
        rows = [[] for _ in range(n)]
        for rc, x in images.get(j, ()):
            rows[rc // n].append((rc % n, Fraction(x, dr * ds)))
        mats.append(GradedMap(rep.module_space, rep.module_space,
                              Matrix(n, n, tuple(map(tuple, rows))),
                              lie.space.parities[j]))
    rep2 = Representation(lie2, rep.module_space, tuple(mats), rep.beta)
    return lie2, rep2


def conjugate_gl11(rng):
    lie, rep = gl11()
    return conjugate_pair(lie, rep, random_even_invertible(rng, lie.space))
