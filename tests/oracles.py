"""Naive oracles that only tests call, shared by several test modules."""

from homnambu.cohomology import cochain_keys, coboundary_matrix
from homnambu.linalg import (ZERO, Matrix, is_zero_vec, kernel, vec_add,
                             vec_scale)
from homnambu.report import Report, fmt_vec


def select(m: Matrix, row_idx, col_idx) -> Matrix:
    """Rows row_idx and distinct columns col_idx of m, in the given orders,
    by renumbering the stored columns; no zero is materialised.  The
    oracle of the key blocks that cohomology cuts out by parity and
    weight."""
    pos = {j: n for n, j in enumerate(col_idx)}
    rows = tuple(tuple(sorted((pos[c], x) for c, x in m.entries[i]
                              if c in pos)) for i in row_idx)
    return Matrix(len(row_idx), len(col_idx), rows)


def key_parts(key) -> list:
    """The basis indices a cochain key is made of: every index of every
    pair, and the element, in order."""
    if isinstance(key, tuple):
        return [i for part in key for i in key_parts(part)]
    return [key]


def parity_cocycles(obj, cx: str, degree: int, parity: int) -> list:
    """A basis of the cx cocycles of this degree and parity, cut by key
    parity alone, from the assembled coboundary_matrix: per key parity q,
    the RREF kernel basis of the rows and columns of keys of parity q at
    one output o with |key| + |o| = parity, each vector placed at every
    such output in turn.  The order cohomology.cocycles keeps."""
    space = obj.space
    dim = space.dim if cx.endswith("adjoint") else 1
    full = coboundary_matrix(obj, cx, degree, parity)
    p = space.parities

    def keys_of_parity(cx, degree, q):
        return [n for n, key in enumerate(cochain_keys(cx, degree, space))
                if sum(p[i] for i in key_parts(key)) % 2 == q]

    outputs = p if dim > 1 else (0,)
    n = len(cochain_keys(cx, degree, space)) * dim
    out = []
    for q in (0, 1):
        serves = [o for o, po in enumerate(outputs) if (q + po) % 2 == parity]
        if not serves:
            continue
        rows = keys_of_parity(cx.replace("adjoint", "scalar"), degree + 1, q)
        cols = keys_of_parity(cx, degree, q)
        block = select(full, [i * dim + serves[0] for i in rows],
                       [j * dim + serves[0] for j in cols])
        for v in kernel(block).vectors():
            for o in serves:
                full_v = [ZERO] * n
                for j, x in zip(cols, v):
                    full_v[j * dim + o] = x
                out.append(tuple(full_v))
    return out


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
