"""Naive oracles that only tests call, shared by several test modules."""

from itertools import permutations, product

from homnambu.binary import HomLieSuper
from homnambu.cohomology import (_apply, _blocks, _row_keys, bracket_cochain,
                                 cochain_keys, coboundary_matrix)
from homnambu.graded import GradedMap, canonicalize
from homnambu.linalg import (ZERO, Matrix, PreconditionError, Subspace,
                             content, integer_terms, invert, is_zero_vec,
                             kernel, solve, vec_add, vec_scale)
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


def read_blocks(obj, cx: str, degree: int, labels) -> list:
    """[(row keys, column keys, integer rows, multiplier)] of the (q, w)
    blocks of these labels of the cx coboundary on degree-cochains, in
    order, all streamed from one walk: the positions of a block's row and
    column keys, in key order, and its rows as a Matrix over those
    columns, each row's columns sorted, as a builder need not yield
    them."""
    multiplier, _, block = _blocks(obj, cx, degree)
    out = []
    for label in labels:
        count, row_keys, col_keys, rows = block(label)
        rows = tuple(tuple(sorted(row)) for row in rows)
        assert len(rows) == count
        out.append((list(row_keys), col_keys,
                    Matrix(count, len(col_keys), rows), multiplier))
    return out


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
    full = coboundary_matrix(obj, cx, degree)
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


def change_of_basis_direct(a, s):
    """binary.change_of_basis in Fractions, on an algebra of either
    arity: one s^-1 [s e_i1, .., s e_in] per ordered key, and s^-1 alpha s
    per twist; its naive oracle."""
    sinv = invert(s)
    if sinv is None:
        raise PreconditionError("basis change matrix is singular")
    for i, row in enumerate(s.entries):
        for j, _ in row:
            if a.space.parities[i] != a.space.parities[j]:
                raise PreconditionError("basis change must be even")
    cols = [s.col(i) for i in range(a.dim)]
    vectors = {}
    for key in product(range(a.dim), repeat=a.bracket.arity):
        w = sinv.apply(a.bracket.eval_vectors(*(cols[i] for i in key)))
        if not is_zero_vec(w):
            vectors[key] = w
    twists = [GradedMap(a.space, a.space, sinv.mul(t.matrix.mul(s)))
              for t in a.twists]
    return type(a)(a.space,
                   type(a.bracket).from_vectors(a.space, vectors), *twists)


def moved_cochain(c, s: Matrix) -> tuple:
    """The coordinates of c(s e_a ^ s e_b, s e_z) for a ternary 2-cochain
    c and an even matrix s, at every key ((a, b), z) in key order, summed
    in Fractions over every index of s's columns: c(e_i ^ e_j, e_k) read
    at canonicalize's key and sign, zero where an even index repeats.  An
    adjoint value keeps its coordinates, output by output."""
    p = c.space.parities
    cols = [[(i, x) for i, x in enumerate(s.col(j)) if x]
            for j in range(s.cols)]
    out = []
    for (a, b), z in cochain_keys(c.complex, 2, c.space):
        acc = {}
        for (i, x), (j, y), (k, w) in product(cols[a], cols[b], cols[z]):
            pair, sign, zero = canonicalize((i, j), p)
            if not zero:
                value = c.values[pair, k]
                for o, v in enumerate(value if isinstance(value, tuple)
                                      else (value,)):
                    acc[o] = acc.get(o, ZERO) + sign * x * y * w * v
        out += [acc.get(o, ZERO)
                for o in range(len(c.coords) // len(c.values))]
    return tuple(out)


def find_unit_direct(g, t):
    """series.find_unit in dense Fractions: every (i, j, m) equation
    sum_k u_k [e_k, e_i, e_j]_m = [e_i, e_j]_m, zero rows included, read
    off the structure vectors of each basis tuple; its naive oracle."""
    dim = t.dim
    rows = []
    rhs_col = []
    for i in range(dim):
        for j in range(dim):
            b = g.bracket.value(i, j)
            cols = [t.bracket.value(k, i, j) for k in range(dim)]
            for comp in range(dim):
                rows.append(tuple(v[comp] for v in cols))
                rhs_col.append(b[comp])
    sol = solve(Matrix.build(rows), tuple(rhs_col))
    if sol is None:
        return None
    for k, c in enumerate(sol):
        if c != 0 and t.space.parities[k] == 1:
            return None
    return sol


def rho_of_vector(rep, v) -> Matrix:
    """rho extended linearly, one scaled action matrix per nonzero
    coordinate of v; mixed-parity combinations stay raw matrices."""
    n = rep.module_space.dim
    out = Matrix.zero(n, n)
    for i, c in enumerate(v):
        if c != 0:
            out = out.add(rep.rho_matrix(i).scale(c))
    return out


def integer_fill(space, d: int, coeffs: dict) -> tuple:
    """The (D, view) that SuperBracket.from_integer builds from valid
    canonical integer coefficients, each ordering signed by one
    canonicalize call, its tuple shared by the orderings of one sign: the
    oracle of from_integer's sign tables."""
    p = space.parities
    g = content(d, (x for terms in coeffs.values() for _, x in terms))
    view = {}
    for key, terms in coeffs.items():
        if not terms:
            continue
        pos = tuple((m, x // g) for m, x in terms)
        neg = tuple((m, -x) for m, x in pos)
        for order in dict.fromkeys(permutations(key)):
            view[order] = pos if canonicalize(order, p)[1] == 1 else neg
    return d // g, view


def span_direct(bracket, *subspaces) -> Subspace:
    """The span of [S1, ..., Sn] by a recursive contraction over the
    integer view, one cut slot at a time: the oracle of
    SuperBracket.span.

    Only the slots smaller than the space are contracted; the indices of
    the full slots are kept in front of each key, and on a super-skew
    bracket whose full slots are adjacent only the keys with those
    indices weakly increasing are read.  The cut slots are contracted
    the last first, a zero partial ending its branch, and every vector
    left is an image."""
    dim = bracket.space.dim
    rows = [integer_terms(s.basis.entries)[1] for s in subspaces]
    if not all(rows):
        return Subspace.zero(dim)
    cut = [k for k, s in enumerate(subspaces) if s.dim < dim]
    full = [k for k, s in enumerate(subspaces) if s.dim == dim]

    def contract(table, slot):
        if slot < 0:
            yield from map(sorted, table.values())
            return
        by_last = {}
        for key, terms in table.items():
            by_last.setdefault(key[-1], []).append((key[:-1], terms))
        for row in rows[cut[slot]]:
            acc = {}
            for k, c in row:
                for prefix, terms in by_last.get(k, ()):
                    col = acc.setdefault(prefix, {})
                    for m, x in terms:
                        col[m] = col.get(m, 0) + c * x
            part = {}
            for prefix, col in acc.items():
                terms = [t for t in col.items() if t[1]]
                if terms:
                    part[prefix] = terms
            if part:
                yield from contract(part, slot - 1)

    keys = bracket.integer[1].items()
    if full and full[-1] - full[0] == len(full) - 1 and bracket.super_skew:
        lo, hi = full[0], full[-1] + 1
        keys = [(key, terms) for key, terms in keys
                if list(key[lo:hi]) == sorted(key[lo:hi])]
    table = {(tuple([key[k] for k in full]), *[key[k] for k in cut]):
             terms for key, terms in keys}
    images = [tuple(r) for r in contract(table, len(cut) - 1) if r]
    return Subspace.spanned_by_rows(Matrix(len(images), dim, tuple(images)))


def annihilator_rows(bracket) -> Matrix:
    """One integer row per stored prefix (i1, ..., i(n-1)) and output
    coordinate m, its entry at k the m-th coordinate of [e_i1, ...,
    e_i(n-1), e_k], every prefix read, in the order of the stored keys."""
    rows = {}
    for key, terms in bracket.integer[1].items():
        for m, x in terms:
            rows.setdefault((key[:-1], m), []).append((key[-1], x))
    rows = tuple(tuple(sorted(r)) for r in rows.values())
    return Matrix(len(rows), bracket.space.dim, rows)


def annihilator_direct(bracket) -> Subspace:
    """The z with [e_i1, ..., e_i(n-1), z] = 0: the kernel of
    annihilator_rows, the oracle of SuperBracket.annihilator."""
    return kernel(annihilator_rows(bracket))


def series_direct(bracket, start: Subspace, args, rmax=None) -> tuple:
    """(terms, stabilized, class_index) of the series from start whose
    next term is span_direct of args(last term), run as series ran before
    its steps could stop early: up to rmax steps, None meaning the
    ambient dimension plus one."""
    if rmax is None:
        rmax = start.ambient_dim + 1
    terms = [start]
    stabilized = start.is_zero()
    while len(terms) <= rmax:
        terms.append(span_direct(bracket, *args(terms[-1])))
        if terms[-1] == terms[-2]:
            stabilized = True
            break
    class_index = next((k for k, s in enumerate(terms) if s.is_zero()), None)
    return tuple(terms), stabilized, class_index


def verify_bracket_cocycle(g: HomLieSuper) -> Report:
    """The bracket as a binary-adjoint 2-cochain is a cocycle: its d^2 is
    zero, else the first failing triple of basis names is the witness."""
    rep = Report("verify_bracket_cocycle")
    resid = _apply(g, "binary-adjoint", 2, [bracket_cochain(g).coords])[0]
    if resid:
        triple = _row_keys("binary-adjoint", 2, g.space)[min(resid) // g.dim]
        rep.fail("bracket-cocycle",
                 witness=tuple(g.space.names[i] for i in triple))
    return rep
