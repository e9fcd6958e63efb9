"""Cochain spaces and coboundary operators.

Three complexes are materialized as exact matrices over the canonical
cochain coordinates:

  binary-scalar   d_s: super-skew multilinear functionals on g, coordinates
                  on canonical tuples, the displayed sum over i<j of signed
                  f([x_i,x_j], alpha(...)) terms;
  ternary-scalar  delta1 f(X,z) = -f(X.z) and the three-term delta2;
  ternary-adjoint the same delta1, and the six-term delta2 whose extra
                  terms are again evaluations of f with |f|-dependent
                  signs (an even cochain sees the scalar operator
                  doubled; values never enter a bracket).

Binary adjoint 2-cochains (g-valued, super-skew) get the cyclic cocycle
operator phi(a x,[y,z]) + signed cyclic terms; its kernel feeds the
induced-cocycle transfer.

All four complexes share one coordinate layout, defined by cochain_keys
alone.  The keys are canonical index tuples on the binary side and k,
(pair, k) or (pair, pair, k) in ternary degree 1, 2 or 3, after the
(fundamental pair, element) convention of phi_rho(X, z).  A scalar
cochain has one coordinate per key; an adjoint cochain has dim of them,
key-major.  Lengths, parities, make_cochain, Cochain.values and the
document format all derive from it.

Every coboundary builder emits a linalg.SparseMatrix of value-free rows,
one dict of nonzero coefficients per row; _adjoint_lift turns them into the
adjoint matrices, which are block-diagonal across the output index.
Cohomology is computed on parity blocks of these sparse matrices, and on
the adjoint complex from the value-free rows alone.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import product

from .binary import HomLieSuper
from .graded import (GradedSpace, canonicalize, skew_basis, tuple_parity,
                     wedge2_expand)
from .linalg import (InputError, Matrix, PreconditionError, SparseMatrix,
                     Subspace, frac, image, kernel, solve, subspace_intersection,
                     vec, vec_add, vec_scale, zero_vec, is_zero_vec, ZERO)
from .report import Report, fmt_scalar
from .reps import TraceFunctional
from .ternary import TernaryHomLieSuper, induce_ternary

# the degrees each complex has cochains in
_DEGREES = {"binary-scalar": (1, 2, 3, 4), "binary-adjoint": (2,),
           "ternary-scalar": (1, 2, 3), "ternary-adjoint": (1, 2, 3)}
COMPLEXES = tuple(_DEGREES)


def cochain_keys(cx: str, degree: int, space: GradedSpace) -> tuple:
    """Argument keys of a cx cochain of this degree, in coordinate order.

    binary-scalar (degree 1-4) and binary-adjoint (degree 2) key on the
    canonical index tuples of skew_basis.  The ternary complexes key on k,
    (pair, k) or (pair, pair, k) in degree 1, 2 or 3: canonical pairs,
    pair-major, the element last.  A scalar cochain has one coordinate per
    key; an adjoint cochain has dim of them, key-major, the output index
    running fastest.
    """
    if cx not in _DEGREES:
        raise InputError(f"unknown complex {cx}")
    if type(degree) is not int or degree not in _DEGREES[cx]:
        raise InputError(f"unsupported degree {degree!r} for {cx}")
    if cx.startswith("binary"):
        return skew_basis(degree, space).tuples
    if degree == 1:
        return tuple(range(space.dim))
    pairs = skew_basis(2, space).tuples
    return tuple(product(*[pairs] * (degree - 1), range(space.dim)))


def _width(cx: str, space: GradedSpace) -> int:
    """Coordinates per key: dim on the g-valued (adjoint) complexes."""
    return space.dim if cx.endswith("adjoint") else 1


def cochain_length(cx: str, degree: int, space: GradedSpace) -> int:
    return len(cochain_keys(cx, degree, space)) * _width(cx, space)


def coordinate_parities(cx: str, degree: int, space: GradedSpace) -> tuple:
    """Per coordinate: argument-key parity, plus output parity for the
    adjoint complexes.  A cochain of parity |f| is supported exactly on the
    coordinates whose entry here equals |f|."""
    p = space.parities
    part_parity = dict(enumerate(p))  # each distinct pair is summed once

    def parity(key) -> int:
        if isinstance(key, int):
            return p[key]
        total = 0
        for part in key:
            if part not in part_parity:
                part_parity[part] = parity(part)
            total += part_parity[part]
        return total % 2

    keyp = [parity(key) for key in cochain_keys(cx, degree, space)]
    if _width(cx, space) == 1:
        return tuple(keyp)
    return tuple((kp + po) % 2 for kp in keyp for po in p)


def parity_support(cx: str, degree: int, space: GradedSpace, parity: int) -> tuple:
    cps = coordinate_parities(cx, degree, space)
    return tuple(i for i, cp in enumerate(cps) if cp == parity % 2)


@dataclass(frozen=True)
class Cochain:
    complex: str
    degree: int
    parity: int
    space: GradedSpace
    coords: tuple

    def __post_init__(self):
        cps = coordinate_parities(self.complex, self.degree, self.space)
        if len(self.coords) != len(cps):
            raise InputError(f"cochain needs {len(cps)} coordinates, "
                             f"got {len(self.coords)}")
        for i, c in enumerate(self.coords):
            if c != 0 and cps[i] != self.parity % 2:
                raise InputError(f"cochain coordinate {i} breaks the parity "
                                 f"support rule")

    @cached_property
    def values(self) -> dict:
        """cochain key -> coordinate, or -> output vector on the adjoint
        complexes, in key order; make_cochain inverts it."""
        keys = cochain_keys(self.complex, self.degree, self.space)
        width = _width(self.complex, self.space)
        if width == 1:
            return dict(zip(keys, self.coords))
        return dict(zip(keys, zip(*[iter(self.coords)] * width)))

    @staticmethod
    def zero(cx: str, degree: int, space: GradedSpace, parity: int = 0) -> "Cochain":
        n = cochain_length(cx, degree, space)
        return Cochain(cx, degree, parity, space, zero_vec(n))

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def add(self, other: "Cochain") -> "Cochain":
        if (self.complex, self.degree, self.parity) != (other.complex, other.degree, other.parity):
            raise InputError("cochain shape mismatch")
        return Cochain(self.complex, self.degree, self.parity, self.space,
                       vec_add(self.coords, other.coords))

    def scale(self, c) -> "Cochain":
        return Cochain(self.complex, self.degree, self.parity, self.space,
                       vec_scale(frac(c), self.coords))

    def sub(self, other: "Cochain") -> "Cochain":
        return self.add(other.scale(-1))


def make_cochain(cx: str, degree: int, space: GradedSpace, values: dict,
                 parity: int | None = None) -> Cochain:
    """Build a cochain from sparse values keyed by cochain_keys.

    Scalar complexes take a rational per key, adjoint ones a dim-vector.
    A key outside cochain_keys, or a vector of another length, is an
    input error.
    """
    keys = cochain_keys(cx, degree, space)
    width = _width(cx, space)
    position = {key: i for i, key in enumerate(keys)}
    per_key = [ZERO if width == 1 else zero_vec(width)] * len(keys)
    for key, val in values.items():
        if key not in position:
            raise InputError(f"{key!r} is not a canonical key of a {cx} "
                             f"{degree}-cochain")
        if width == 1:
            per_key[position[key]] = frac(val)
        elif isinstance(val, (tuple, list)) and len(val) == width:
            per_key[position[key]] = vec(val)
        else:
            raise InputError(f"{cx} value at {key!r} must be a vector of "
                             f"{width} rationals")
    coords = (tuple(per_key) if width == 1
              else tuple(c for v in per_key for c in v))
    if parity is None:
        parity = infer_parity(cx, degree, space, coords)
    return Cochain(cx, degree, parity, space, coords)


def infer_parity(cx: str, degree: int, space: GradedSpace, coords: tuple) -> int:
    cps = coordinate_parities(cx, degree, space)
    seen = {cps[i] for i, c in enumerate(coords) if c != 0}
    if len(seen) > 1:
        raise InputError("cochain support mixes parities")
    return seen.pop() if seen else 0


def binary_pair_eval(c: Cochain, i: int, j: int):
    """phi(e_i, e_j) for a degree-2 binary cochain, canonicalization signs
    applied.  Scalar complexes return a Fraction, adjoint ones a vector."""
    if c.complex not in ("binary-scalar", "binary-adjoint") or c.degree != 2:
        raise InputError("binary_pair_eval needs a binary degree-2 cochain")
    scalar = c.complex == "binary-scalar"
    t, sign, zero_flag = canonicalize((i, j), c.space.parities)
    if zero_flag:
        return ZERO if scalar else zero_vec(c.space.dim)
    return sign * c.values[t] if scalar else vec_scale(sign, c.values[t])


def _terms(v) -> list:
    """The nonzero (index, value) terms of a dense vector."""
    return [(i, x) for i, x in enumerate(v) if x]


def _adjoint_lift(m: SparseMatrix, dim: int) -> SparseMatrix:
    """Lift value-free rows to an adjoint complex.

    Each row becomes dim rows, one per output index o; row o reads the
    output-o coordinate of every key, so column j moves to j*dim+o.
    """
    return SparseMatrix(m.rows * dim, m.cols * dim, tuple(
        tuple((j * dim + o, x) for j, x in row)
        for row in m.entries for o in range(dim)))


def _expand_eval(row: dict, sign, head: tuple, rest_cols: list, sb, parities):
    """row[idx(canon)] += sign * coeff for every basis expansion of
    f(head_vector, rest_1, ..., rest_r); row is a sparse dict."""
    combos = [((), Fraction(1))]
    for col in rest_cols:
        nxt = []
        for (idx_tuple, coeff) in combos:
            for m, c in enumerate(col):
                if c != 0:
                    nxt.append((idx_tuple + (m,), coeff * c))
        combos = nxt
        if not combos:
            return
    for m, c in enumerate(head):
        if c == 0:
            continue
        for (idx_tuple, coeff) in combos:
            full = (m,) + idx_tuple
            canon, csign, zero_flag = canonicalize(full, parities)
            if zero_flag:
                continue
            pos = sb.index.get(canon)
            if pos is None:
                continue
            row[pos] = row.get(pos, ZERO) + sign * csign * c * coeff


ONE_ = Fraction(1)


def _memo(obj, key: tuple, build):
    """obj.memo[key], built on first use, so results live as long as obj."""
    if key not in obj.memo:
        obj.memo[key] = build()
    return obj.memo[key]


def _memoized(fn):
    """Cache fn(obj, *args) in obj.memo under (fn's name, *args)."""
    @wraps(fn)
    def cached(obj, *args):
        return _memo(obj, (fn.__name__, *args), lambda: fn(obj, *args))
    return cached


@_memoized
def ds_matrix(g: HomLieSuper, p: int) -> SparseMatrix:
    """Matrix of the scalar coboundary on canonical cochain coordinates."""
    if p not in (1, 2, 3):
        raise InputError(f"unsupported degree {p}")
    sp = g.space
    par = sp.parities
    sb_in = skew_basis(p, sp)
    sb_out = skew_basis(p + 1, sp)
    acols = [g.alpha.column(i) for i in range(g.dim)]
    rows = []
    for X in sb_out.tuples:
        row = {}
        k = p + 1
        for i in range(k):
            for j in range(i + 1, k):
                s = 1 if (i + j) % 2 == 0 else -1
                pre_i = sum(par[X[t]] for t in range(i)) & 1
                pre_j = sum(par[X[t]] for t in range(j)) & 1
                if pre_i and par[X[i]]:
                    s = -s
                if pre_j and par[X[j]]:
                    s = -s
                if par[X[i]] and par[X[j]]:
                    s = -s
                bvec = g.bracket.value(X[i], X[j])
                rest = [acols[X[t]] for t in range(k) if t != i and t != j]
                _expand_eval(row, Fraction(s), bvec, rest, sb_in, par)
        rows.append(row)
    return SparseMatrix.build(rows, len(sb_in.tuples))


@_memoized
def binary_adjoint_cocycle_matrix(g: HomLieSuper) -> SparseMatrix:
    """Cyclic cocycle operator on g-valued super-skew 2-cochains.

    Rows run over all ordered basis triples times output component; any
    composite psi o bracket is annihilated, so coboundaries and the bracket
    itself land in the kernel whenever Hom-Jacobi holds.
    """
    sp = g.space
    p = sp.parities
    sb2 = skew_basis(2, sp)
    acols = [g.alpha.column(i) for i in range(g.dim)]
    rows = []
    for x, y, z in product(range(g.dim), repeat=3):
        w1 = wedge2_expand(acols[x], g.bracket.value(y, z), sp, sb2)
        sa = -1 if (p[x] and (p[y] ^ p[z])) else 1
        w2 = wedge2_expand(acols[y], g.bracket.value(z, x), sp, sb2)
        sb_ = -1 if (p[z] and (p[x] ^ p[y])) else 1
        w3 = wedge2_expand(acols[z], g.bracket.value(x, y), sp, sb2)
        rows.append({j: a + sa * b + sb_ * c
                     for j, (a, b, c) in enumerate(zip(w1, w2, w3))})
    return _adjoint_lift(SparseMatrix.build(rows, len(sb2.tuples)), g.dim)


def binary_adjoint_cocycle_space(g: HomLieSuper, parity: int | None = None) -> Subspace:
    ker = kernel(binary_adjoint_cocycle_matrix(g))
    if parity is None:
        return ker
    sel = parity_support("binary-adjoint", 2, g.space, parity)
    n = cochain_length("binary-adjoint", 2, g.space)
    axes = [tuple(ONE_ if i == s else ZERO for i in range(n)) for s in sel]
    return subspace_intersection(ker, Subspace.from_vectors(n, axes))


def binary_adjoint_d1_matrix(g: HomLieSuper) -> SparseMatrix:
    """psi -> -psi o bracket, mapping g->g maps to adjoint 2-cochains."""
    rows = [{m: -c for m, c in enumerate(g.bracket.value(i, j))}
            for i, j in cochain_keys("binary-adjoint", 2, g.space)]
    return _adjoint_lift(SparseMatrix.build(rows, g.dim), g.dim)


def bracket_cochain(g: HomLieSuper) -> Cochain:
    """The bracket packaged as an even g-valued 2-cochain."""
    sb2 = skew_basis(2, g.space)
    values = {t: g.bracket.value(t[0], t[1]) for t in sb2.tuples}
    return make_cochain("binary-adjoint", 2, g.space, values, parity=0)


def verify_bracket_cocycle(g: HomLieSuper) -> Report:
    rep = Report("verify_bracket_cocycle")
    m = binary_adjoint_cocycle_matrix(g)
    resid = m.apply(bracket_cochain(g).coords)
    if not is_zero_vec(resid):
        idx = next(i for i, c in enumerate(resid) if c != 0)
        dim = g.dim
        triple = idx // dim
        x, rem = divmod(triple, dim * dim)
        y, z = divmod(rem, dim)
        rep.fail("bracket-cocycle",
                 witness=(g.space.names[x], g.space.names[y], g.space.names[z]))
    return rep


def _single_twist(t: TernaryHomLieSuper):
    if not t.same_twists():
        raise PreconditionError("ternary cohomology needs alpha1 = alpha2")
    return t.alpha1


@_memoized
def pair_twist_matrix(t: TernaryHomLieSuper) -> Matrix:
    """alpha acting on the canonical pair basis (wedge square of alpha)."""
    a = _single_twist(t)
    sp = t.space
    sb2 = skew_basis(2, sp)
    cols = [wedge2_expand(a.column(i), a.column(j), sp, sb2)
            for (i, j) in sb2.tuples]
    return Matrix.from_columns(cols, len(sb2.tuples))


@_memoized
def delta1_matrix(t: TernaryHomLieSuper, cx: str) -> SparseMatrix:
    """f -> ((X,z) -> -f(X.z)); the adjoint matrix lifts the scalar one."""
    _single_twist(t)
    if cx == "ternary-adjoint":
        return _adjoint_lift(delta1_matrix(t, "ternary-scalar"), t.dim)
    if cx != "ternary-scalar":
        raise InputError(f"unknown ternary complex {cx}")
    rows = [{m: -c for m, c in enumerate(t.bracket.value(x1, x2, k))}
            for (x1, x2), k in cochain_keys(cx, 2, t.space)]
    return SparseMatrix.build(rows, t.dim)


def delta2_matrix(t: TernaryHomLieSuper, cx: str, parity: int = 0) -> SparseMatrix:
    """The 2-coboundary on (pair, element) cochains.

    Scalar: -f([X,Y]_a, a z) - (-1)^{|X||Y|} f(aY, X.z) + f(aX, Y.z),
    with [X,Y]_a = X.y1 ^ a(y2) + (-1)^{|X||y1|} a(y1) ^ X.y2.
    Adjoint appends the three extra terms, each again an evaluation of f
    (the theorem's expansion pairs them off against the scalar ones):

        - f(X.y1 ^ a(y2), a z) - (-1)^{(|f|+|X|)|y1|} f(a(y1) ^ X.y2, a z)
        - (-1)^{|Y|(|X|+|f|)} f(aY, X.z) + (-1)^{|X||f|} f(aX, Y.z)

    so an even cochain sees the scalar operator doubled.  Values never
    enter a bracket; the matrix is block-diagonal across the value index
    but depends on the cochain parity through the extra signs.  Each
    matrix is memoized once per algebra: the scalar one ignores parity,
    the adjoint one reads it mod 2.
    """
    if cx == "ternary-scalar":
        return _memo(t, ("delta2_matrix", cx, 0), lambda: _delta2_rows(t, cx, 0))
    if cx != "ternary-adjoint":
        raise InputError(f"unknown ternary complex {cx}")
    parity %= 2
    return _memo(t, ("delta2_matrix", cx, parity), lambda: _adjoint_lift(
        _value_free(t, cx, 2, parity), t.dim))


def _delta2_rows(t: TernaryHomLieSuper, cx: str, fpar: int) -> SparseMatrix:
    """delta2_matrix's value-free rows for cochains of parity fpar."""
    a = _single_twist(t)
    sp = t.space
    p = sp.parities
    dim = sp.dim
    sb2 = skew_basis(2, sp)
    pairs = sb2.tuples
    pairp = [tuple_parity(q, p) for q in pairs]
    atw = pair_twist_matrix(t)
    adense = [a.column(i) for i in range(dim)]
    # every vector as its nonzero (index, value) terms, built once
    acols = [_terms(v) for v in adense]
    apairs = [_terms(atw.col(P)) for P in range(len(pairs))]
    acts = [[_terms(t.bracket.value(x1, x2, k)) for k in range(dim)]
            for x1, x2 in pairs]
    adjoint = cx == "ternary-adjoint"
    position = {key: i for i, key in
                enumerate(cochain_keys("ternary-scalar", 2, sp))}
    cols = [[position[(pair, m)] for m in range(dim)] for pair in pairs]

    def add(row, pair_terms, elem_terms, sign):
        """row += sign * (coefficients of f(pair, elem)), f's coordinates
        read off the (pair, element) key layout."""
        for P, cr in pair_terms:
            col = cols[P]
            for m, cm in elem_terms:
                c = col[m]
                old = row.get(c, ZERO)
                row[c] = old + cr * cm if sign > 0 else old - cr * cm

    rows = []
    for P, (p1, p2) in enumerate(pairs):
        for Qp, (q1, q2) in enumerate(pairs):
            sxy = -1 if (pairp[P] and pairp[Qp]) else 1
            s4 = -1 if (((fpar + pairp[P]) & 1) and p[q1]) else 1
            s5 = -1 if (pairp[Qp] and ((pairp[P] + fpar) & 1)) else 1
            s6 = -1 if (pairp[P] and fpar) else 1
            sfb = -1 if (pairp[P] and p[q1]) else 1
            # the two wedges of [X,Y]_a: X.y1 ^ a(y2) and a(y1) ^ X.y2
            w1 = _terms(wedge2_expand(t.bracket.value(p1, p2, q1),
                                      adense[q2], sp, sb2))
            w2 = _terms(wedge2_expand(adense[q1],
                                      t.bracket.value(p1, p2, q2), sp, sb2))
            for k in range(dim):
                row = {}
                az, xz, yz = acols[k], acts[P][k], acts[Qp][k]
                add(row, w1, az, -1)
                add(row, w2, az, -sfb)
                add(row, apairs[Qp], xz, -sxy)
                add(row, apairs[P], yz, 1)
                if adjoint:
                    add(row, w1, az, -1)
                    add(row, w2, az, -s4)
                    add(row, apairs[Qp], xz, -s5)
                    add(row, apairs[P], yz, s6)
                rows.append(row)
    return SparseMatrix.build(rows, len(position))


def coboundary_matrix(obj, cx: str, degree: int, parity: int = 0) -> SparseMatrix:
    if cx.startswith("ternary") != isinstance(obj, TernaryHomLieSuper):
        raise InputError(f"complex {cx} does not match the given algebra")
    if cx == "binary-scalar":
        return ds_matrix(obj, degree)
    if cx == "ternary-scalar":
        if degree == 1:
            return delta1_matrix(obj, cx)
        if degree == 2:
            return delta2_matrix(obj, cx)
        raise InputError(f"unsupported degree {degree} for {cx}")
    if cx == "ternary-adjoint":
        if degree == 1:
            return delta1_matrix(obj, cx)
        if degree == 2:
            return delta2_matrix(obj, cx, parity)
        raise InputError(f"unsupported degree {degree} for {cx}")
    raise InputError(f"no coboundary matrix for complex {cx}")


def apply_coboundary(obj, c: Cochain) -> Cochain:
    m = coboundary_matrix(obj, c.complex, c.degree, c.parity)
    return Cochain(c.complex, c.degree + 1, c.parity, c.space, m.apply(c.coords))


def _value_free(obj, cx: str, degree: int, parity: int = 0) -> SparseMatrix:
    """The coboundary of cx degree-cochains before the adjoint lift, on
    ternary-scalar keys; on the scalar complexes, the coboundary itself."""
    if cx != "ternary-adjoint":
        return coboundary_matrix(obj, cx, degree)
    if not isinstance(obj, TernaryHomLieSuper):
        raise InputError(f"complex {cx} does not match the given algebra")
    if degree == 1:
        return delta1_matrix(obj, "ternary-scalar")
    if degree == 2:
        parity %= 2
        return _memo(obj, ("delta2_rows", cx, parity),
                     lambda: _delta2_rows(obj, cx, parity))
    raise InputError(f"unsupported degree {degree} for {cx}")


def parity_block(m: SparseMatrix, cx: str, degree: int, space: GradedSpace,
                 parity: int = 0) -> SparseMatrix:
    """m, a coboundary on cx cochains of this degree, restricted to one
    parity: columns are the degree coordinates of that parity, rows the
    degree + 1 ones.  Coboundaries preserve parity, so the kernel of the
    block is the cocycle space of the cochains of that parity."""
    return m.select(parity_support(cx, degree + 1, space, parity),
                    parity_support(cx, degree, space, parity))


def even_cocycles(obj, cx: str, degree: int) -> list:
    """A basis of the even cx cocycles of this degree as full coordinate
    tuples: the RREF kernel basis of the even block, spread back over every
    coordinate."""
    space = obj.space
    block = parity_block(coboundary_matrix(obj, cx, degree), cx, degree, space)
    sel = parity_support(cx, degree, space, 0)
    n = cochain_length(cx, degree, space)
    out = []
    for v in kernel(block).vectors():
        full = [ZERO] * n
        for pos, x in zip(sel, v):
            full[pos] = x
        out.append(tuple(full))
    return out


def cohomology_dims(obj, cx: str, degree: int) -> tuple:
    """(dim Z, dim B, dim H) on the even-parity block.

    The adjoint lift is block-diagonal across the output index o with the
    value-free matrix in every block, so the even block of output o is the
    value-free matrix on the keys of parity p[o]: each key parity is
    eliminated once and counted once per output of that parity.
    """
    if degree not in (1, 2):
        raise InputError(f"unsupported degree {degree}")
    space = obj.space
    if cx == "ternary-adjoint":
        layout, outputs = "ternary-scalar", Counter(space.parities)
    else:
        layout, outputs = cx, {0: 1}
    zdim = bdim = 0
    for parity, count in outputs.items():
        z = kernel(parity_block(_value_free(obj, cx, degree), layout, degree,
                                space, parity))
        if degree == 1:
            b = Subspace.zero(z.ambient_dim)
        else:
            b = image(parity_block(_value_free(obj, cx, degree - 1), layout,
                                   degree - 1, space, parity))
        for v in b.vectors():
            if not z.contains(v):
                raise InputError("coboundary escaped the cocycle space")
        zdim += count * z.dim
        bdim += count * b.dim
    return (zdim, bdim, zdim - bdim)


def is_binary_cocycle(g: HomLieSuper, phi: Cochain) -> bool:
    if phi.degree != 2:
        raise InputError("cocycle test expects degree 2")
    if phi.complex == "binary-scalar":
        return is_zero_vec(ds_matrix(g, 2).apply(phi.coords))
    if phi.complex == "binary-adjoint":
        return is_zero_vec(binary_adjoint_cocycle_matrix(g).apply(phi.coords))
    raise InputError("cocycle test expects a binary cochain")


def induce_cocycle(g: HomLieSuper, tau: TraceFunctional, phi: Cochain,
                   t: TernaryHomLieSuper | None = None) -> Cochain:
    """Transfer a binary 2-cocycle to the induced ternary complex.

    phi_rho(X,z) = tau(x1) phi(x2,z) - (-1)^{|x1||x2|} tau(x2) phi(x1,z)
                 + (-1)^{|z|(|x1|+|x2|)} tau(z) phi(x1,x2).
    The result is checked against the matching ternary delta2.
    """
    if phi.complex not in ("binary-scalar", "binary-adjoint") or phi.degree != 2:
        raise PreconditionError("induce_cocycle expects a binary 2-cochain")
    if not is_binary_cocycle(g, phi):
        raise PreconditionError("induce_cocycle expects a 2-cocycle")
    for j in range(g.dim):
        if tau.apply(g.alpha.column(j)) != tau.values[j]:
            raise PreconditionError("trace functional is not twist invariant")
    if t is None:
        t = induce_ternary(g, tau, g.alpha, g.alpha)
    scalar = phi.complex == "binary-scalar"
    out_cx = "ternary-scalar" if scalar else "ternary-adjoint"

    def ev(i, j):
        """phi(e_i, e_j) as a vector, of length 1 on the scalar complex."""
        v = binary_pair_eval(phi, i, j)
        return (v,) if scalar else v

    p = g.space.parities
    tv = tau.values
    values = {}
    for key in cochain_keys(out_cx, 2, g.space):
        (x1, x2), k = key
        s12 = -1 if (p[x1] and p[x2]) else 1
        s3 = -1 if (p[k] and (p[x1] ^ p[x2])) else 1
        val = vec_add(vec_add(vec_scale(tv[x1], ev(x2, k)),
                              vec_scale(-s12 * tv[x2], ev(x1, k))),
                      vec_scale(s3 * tv[k], ev(x1, x2)))
        if not is_zero_vec(val):
            values[key] = val[0] if scalar else val
    induced = make_cochain(out_cx, 2, g.space, values, parity=phi.parity)
    resid = coboundary_matrix(t, out_cx, 2, induced.parity).apply(induced.coords)
    if not is_zero_vec(resid):
        raise PreconditionError("induced cochain is not a ternary cocycle")
    return induced


def verify_1cocycle_transfer(g: HomLieSuper, tau: TraceFunctional,
                             t: TernaryHomLieSuper) -> Report:
    """Scalar 1-cocycles of g annihilate the induced triple brackets."""
    rep = Report("verify_1cocycle_transfer")
    ker = kernel(ds_matrix(g, 1))
    sb3 = skew_basis(3, g.space)
    rep.metrics["cocycle_space_dim"] = ker.dim
    for w in ker.vectors():
        for key in sb3.tuples:
            val = sum(wc * bc for wc, bc in
                      zip(w, t.bracket.value(key[0], key[1], key[2])))
            if val != 0:
                rep.fail("induced-1cocycle",
                         witness=tuple(g.space.names[i] for i in key),
                         residual=(fmt_scalar(val),))
    rep.metrics["triples_checked"] = len(sb3.tuples) * ker.dim
    return rep


def verify_lemma_identity(g: HomLieSuper, tau: TraceFunctional,
                          omega: Cochain,
                          t: TernaryHomLieSuper | None = None) -> Report:
    """delta1 of the induced complex agrees with the tau-combination of the
    binary coboundary: delta_rho^1(omega) = (d_s^1 omega)_rho, coordinatewise."""
    rep = Report("verify_lemma_identity")
    if omega.complex != "binary-scalar" or omega.degree != 1:
        raise PreconditionError("lemma identity expects a scalar 1-cochain")
    if t is None:
        t = induce_ternary(g, tau, g.alpha, g.alpha)
    lhs = delta1_matrix(t, "ternary-scalar").apply(omega.coords)
    dphi = Cochain("binary-scalar", 2, omega.parity, g.space,
                   ds_matrix(g, 1).apply(omega.coords))
    rhs = induce_cocycle(g, tau, dphi, t).coords
    if lhs != rhs:
        names = g.space.names
        keys = cochain_keys("ternary-scalar", 2, g.space)
        for (pair, k), a, b in zip(keys, lhs, rhs):
            if a != b:
                rep.fail("lemma-identity",
                         witness=tuple(names[m] for m in pair) + (names[k],),
                         residual=(fmt_scalar(a - b),))
    rep.metrics["coordinates"] = len(lhs)
    return rep


def verify_class_transfer(g: HomLieSuper, tau: TraceFunctional,
                          phi1: Cochain, phi2: Cochain,
                          t: TernaryHomLieSuper | None = None) -> Report:
    """Cohomologous binary scalar cocycles induce cohomologous cochains,
    via the same connecting 1-cochain.  Passing the induced t lets repeated
    calls share its memoized coboundary matrices."""
    rep = Report("verify_class_transfer")
    for phi in (phi1, phi2):
        if phi.complex != "binary-scalar" or phi.degree != 2:
            raise PreconditionError("class transfer expects binary scalar 2-cochains")
        if not is_binary_cocycle(g, phi):
            raise PreconditionError("class transfer expects 2-cocycles")
    diff = vec_add(phi2.coords, vec_scale(-1, phi1.coords))
    omega = solve(ds_matrix(g, 1), diff)
    if omega is None:
        raise PreconditionError("cocycles are not cohomologous")
    if t is None:
        t = induce_ternary(g, tau, g.alpha, g.alpha)
    psi1 = induce_cocycle(g, tau, phi1, t)
    psi2 = induce_cocycle(g, tau, phi2, t)
    lhs = vec_add(psi2.coords, vec_scale(-1, psi1.coords))
    rhs = delta1_matrix(t, "ternary-scalar").apply(omega)
    if lhs != rhs:
        idx = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        rep.fail("class-transfer", witness=(idx,),
                 residual=(fmt_scalar(lhs[idx] - rhs[idx]),))
    rep.metrics["connecting_cochain"] = [fmt_scalar(c) for c in omega]
    return rep
