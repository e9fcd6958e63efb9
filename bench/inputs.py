"""Seeded input generators for the benchmark workloads.

gl(m|n) is built on the matrix units E_ij with parity |i| + |j|, where
|i| = 0 for the first m indices and 1 for the last n.  The basis order is
even diagonal units, then even off-diagonal units, then odd units, each
group in lexicographic (i, j) order, so gl(1|1) lands on the (h1, h2, q, p)
layout of ``homnambu.fixtures.gl11``.

Seeds vary the inputs but not their arithmetic cost.  A conjugate is
taken along S0 P: S0 is one fixed dense draw of
``fixtures.random_even_invertible`` and P a seeded signed permutation
inside each parity class, so P only relabels and re-signs the new basis.
Independent dense draws per seed made the gl(2|1) Hom-Nambu check take
anywhere from 12 s to 23 s, which would drown any change being measured.
The twist scales E_ij by d_i / d_j with d a seeded permutation of
1, ..., m + n.
"""

import random
from fractions import Fraction

from homnambu.binary import HomLieSuper, SuperBracket2, yau_twist
from homnambu.fixtures import conjugate_pair, random_even_invertible
from homnambu.graded import GradedMap, graded_space, identity_map
from homnambu.linalg import Matrix, vec_scale
from homnambu.reps import Representation, TraceFunctional, trace_functional
from homnambu.ternary import TernaryHomLieSuper, induce_ternary


def matrix_units(m: int, n: int) -> list:
    """Index pairs (i, j) of the basis E_ij of gl(m|n), in basis order."""
    size = m + n
    deg = [0] * m + [1] * n
    diag = [(i, i) for i in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    even_off = [(i, j) for i, j in pairs if deg[i] == deg[j]]
    odd = [(i, j) for i, j in pairs if deg[i] != deg[j]]
    return diag + even_off + odd


def glmn(m: int, n: int):
    """gl(m|n) with the supercommutator and its defining representation.

    Returns (algebra, representation); alpha and beta are identities, so
    the supertrace functional is the supertrace of the matrix.
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


# the fixed draw behind every conjugate
CONJUGATOR_DRAW = 0


def twist_weights(m: int, n: int, rng) -> list:
    """A seeded permutation of 1, ..., m + n: distinct, so alpha != id."""
    d = list(range(1, m + n + 1))
    rng.shuffle(d)
    return d


def diagonal_alpha(lie: HomLieSuper, m: int, n: int, d) -> GradedMap:
    """The automorphism E_ij -> (d_i / d_j) E_ij of gl(m|n)."""
    scale = [Fraction(d[i], d[j]) for i, j in matrix_units(m, n)]
    dim = lie.dim
    alpha = Matrix.build([[scale[r] if r == c else 0 for c in range(dim)]
                          for r in range(dim)])
    return GradedMap(lie.space, lie.space, alpha)


def diagonal_twist(lie: HomLieSuper, m: int, n: int, d) -> HomLieSuper:
    """Yau twist of gl(m|n) along ``diagonal_alpha``."""
    return yau_twist(lie, diagonal_alpha(lie, m, n, d))


def twisted_tau(twisted: HomLieSuper, rep: Representation) -> TraceFunctional:
    """The untwisted supertrace, carried over to the twisted algebra.

    A diagonal twist fixes every diagonal unit, so the functional stays
    alpha-invariant.
    """
    return TraceFunctional(twisted, trace_functional(rep).values)


def conjugator(space, rng) -> Matrix:
    """S0 P: the fixed dense draw times a seeded even signed permutation."""
    s0 = random_even_invertible(random.Random(CONJUGATOR_DRAW), space)
    perm = list(range(space.dim))
    for par in (0, 1):
        idx = [i for i in perm if space.parities[i] == par]
        dest = idx[:]
        rng.shuffle(dest)
        for a, b in zip(idx, dest):
            perm[a] = b
    cols = [vec_scale(rng.choice((-1, 1)), s0.col(perm[j]))
            for j in range(space.dim)]
    return Matrix.from_columns(cols, space.dim)


def conjugate(lie: HomLieSuper, rep: Representation, rng):
    """The seeded even conjugate of (lie, rep) along ``conjugator``."""
    return conjugate_pair(lie, rep, conjugator(lie.space, rng))


def broken_nambu(t: TernaryHomLieSuper) -> TernaryHomLieSuper:
    """Double the first nonzero canonical coefficient, mirrors included.

    Skew symmetry survives; the Hom-Nambu identity does not.  This is
    what ``homnambu.fixtures.neg_nambu`` does to gl(1|1).
    """
    coeffs = t.bracket.canonical_coeffs()
    key = min(coeffs)
    b = t.bracket.with_canonical(key, tuple(2 * c for c in coeffs[key]))
    return TernaryHomLieSuper(t.space, b, t.alpha1, t.alpha2)


def induce(lie: HomLieSuper, tau: TraceFunctional) -> TernaryHomLieSuper:
    return induce_ternary(lie, tau, lie.alpha, lie.alpha)
