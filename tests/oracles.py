"""Naive oracles that only tests call, shared by several test modules."""

from homnambu.linalg import Matrix


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
