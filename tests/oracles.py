"""Naive oracles that only tests call, shared by several test modules."""

from homnambu.linalg import Matrix, is_zero_vec, vec_add, vec_scale
from homnambu.report import Report, fmt_vec


def select(m: Matrix, row_idx, col_idx) -> Matrix:
    """Rows row_idx and distinct columns col_idx of m, in the given orders,
    by renumbering the stored columns; no zero is materialised.  The
    oracle of the key blocks that cohomology cuts out by parity."""
    pos = {j: n for n, j in enumerate(col_idx)}
    rows = tuple(tuple(sorted((pos[c], x) for c, x in m.entries[i]
                              if c in pos)) for i in row_idx)
    return Matrix(len(row_idx), len(col_idx), rows)


def parity_law_violations(space, v, want_parity: int) -> list:
    """Names of the basis elements where v has a component of the wrong
    parity."""
    return [space.names[k] for k, c in enumerate(v)
            if c != 0 and space.parities[k] != want_parity]


def skew_oracle(a):
    """The skew and parity-law report of a loop over every basis pair
    i <= j in Fractions: the oracle of verify_skew."""
    rep = Report("verify_skew")
    sp = a.space
    for i in range(sp.dim):
        for j in range(i, sp.dim):
            sign = 1 if (sp.parities[i] and sp.parities[j]) else -1
            resid = vec_add(a.bracket.value(i, j),
                            vec_scale(-sign, a.bracket.value(j, i)))
            if not is_zero_vec(resid):
                rep.fail("skew", witness=(sp.names[i], sp.names[j]),
                         residual=tuple(fmt_vec(resid)))
            want = (sp.parities[i] + sp.parities[j]) % 2
            bad = parity_law_violations(sp, a.bracket.value(i, j), want)
            if bad:
                rep.fail("parity-law", witness=(sp.names[i], sp.names[j]),
                         detail=f"output hits {bad}")
    rep.metrics["pairs_checked"] = sp.dim * (sp.dim + 1) // 2
    return rep
