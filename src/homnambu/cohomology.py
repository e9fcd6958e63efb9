"""Cochain spaces and coboundary operators.

Four complexes share one coordinate layout, defined by cochain_keys
alone.  The keys are canonical index tuples on the binary side and
(pair, ..., pair, k), degree - 1 pairs, on the ternary side, after the
(fundamental pair, element) convention of phi_rho(X, z).  A scalar
cochain has one coordinate per key; an adjoint (g-valued) cochain has dim
of them, key-major.  Lengths, parities, make_cochain, Cochain.values and
the document format all derive from it.

Every coboundary, so every degree with cohomology, is one entry of
_BUILDERS, a table from (complex, degree) to a builder of value-free rows
on the keys alone, since no cochain value ever enters a bracket.  Each
formula is written once, on a scalar complex, summed in ints over the
views the identity checkers read (SuperBracket.integer, the twist's
columns from integer_terms, and one graded.wedge_table per call for the
signed canonical position of every wedge of basis vectors): a builder
returns the integer rows, a linalg.Matrix of ints, and one exact
multiplier.  _scalar_rows gives an adjoint complex the scalar rows.

  binary-scalar   1-3  d_s, the sum over i<j of signed
                       f([x_i,x_j], alpha(...)) terms, 1/(D_W D_alpha^(p-1));
  binary-adjoint  1-2  d_s^1 and d_s^2 per output, d^2 being the cyclic
                       operator on canonical triples;
  ternary-scalar  1-3  one Leibniz formula on pairs, delta1 f(X,z) =
                       -f(X.z) and the three-term delta2 its p = 1 and 2
                       cases, 1/(D_W D_alpha^(2(p-1)));
  ternary-adjoint 1-2  the scalar delta1, and each scalar delta2 term
                       times 1 + (-1)^{|f| e} (see _leibniz_rows).

Coboundaries keep parity: the row of a key of parity q reads only
columns of keys of parity q, on a bracket that keeps the parity law
(one that breaks it has no coboundary here, a precondition error).  So a
builder takes a key parity q and builds one block, the rows whose keys
have parity q in key order, their columns numbered among the parity-q
columns.  _parity_keys is the one numbering of a block's rows and
columns, which the builders and the assembly read; a builder raises on
a term outside its columns rather than drop it.  Each block is memoized
on the algebra under (complex, degree, parity, q), built when first
read; only the ternary-adjoint delta2 reads the parity, and its even
blocks are the scalar delta2's objects.  Before a block is built the
operator is checked: the parity law, and the whole-operator row count,
taken from the key shapes, against MAX_COBOUNDARY_ROWS.

An adjoint coboundary applies its value-free rows once per output index,
so its matrix is block-diagonal across the outputs.  coboundary_matrix,
the one whole-operator form, built on each call, interleaves the two
blocks back into key order, scales them and lifts them, moving key
column j of output o to j*dim + o; it is the one place the rows become
Fractions.  Every coboundary of a given cochain goes through _apply,
which reads only the blocks whose columns the nonzero coordinates touch,
sums in ints and returns the nonzero outputs; apply_coboundary alone
makes them dense.  Cohomology and cocycle bases (cohomology_dims,
cocycles) eliminate each block they need once per key parity and count,
or place, it once per output it serves: a scalar cochain of parity f
needs the parity-f block alone, so a scalar (Z, B, H) builds only the
even blocks.

induce_cocycle transfers a binary 2-cocycle with
reps.TraceFunctional.induce, the formula that also builds the induced
bracket, on the cocycle's values cleared of denominators once.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .binary import HomLieSuper
from .graded import (GradedSpace, canonicalize, skew_basis, tuple_parity,
                     wedge_expand, wedge_table)
from .linalg import (InputError, Matrix, PreconditionError, Subspace,
                     field, frac, image, integer_terms, kernel, solve, vec,
                     vec_add, vec_scale, zero_vec, is_zero_vec, record, ZERO)
from .report import Report, fmt_scalar
from .reps import TraceFunctional, trace_mismatches
from .ternary import TernaryHomLieSuper

# the most rows a coboundary is built with: a larger one is an input error
MAX_COBOUNDARY_ROWS = 1 << 20
_PARITY_LAW = "coboundaries need a bracket that keeps the parity law"


def _check_degree(cx: str, degree: int) -> None:
    if cx not in _DEGREES:
        raise InputError(f"unknown complex {cx}")
    if type(degree) is not int or degree not in _DEGREES[cx]:
        raise InputError(f"unsupported degree {degree!r} for {cx}")


def cochain_keys(cx: str, degree: int, space: GradedSpace) -> tuple:
    """Argument keys of a cx cochain of this degree, in coordinate order.

    binary-scalar (degree 1-4) and binary-adjoint (degree 1-3) key on the
    canonical index tuples of skew_basis.  The ternary complexes key on
    (pair, ..., pair, k), degree - 1 canonical pairs (degree 1-4 scalar,
    1-3 adjoint), pair-major, the element last.  A scalar cochain has one
    coordinate per key; an adjoint cochain has dim of them, key-major, the
    output index running fastest.
    """
    _check_degree(cx, degree)
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


def _key_parities(cx: str, degree: int, space: GradedSpace) -> list:
    """The parity of each key of cochain_keys(cx, degree, space), in
    order: the sum of its parts' parities, mod 2.  A ternary key is a pair
    prefix and an element, so its parities are those of the prefixes,
    summed pair by pair, each combined with every element's, without
    listing the keys."""
    _check_degree(cx, degree)
    p = space.parities
    if cx.startswith("binary"):
        return [tuple_parity(key, p) for key in skew_basis(degree, space).tuples]
    pairp = [tuple_parity(pair, p) for pair in skew_basis(2, space).tuples]
    prefix = [0]
    for _ in range(degree - 1):
        prefix = [a ^ b for a in prefix for b in pairp]
    return [a ^ b for a in prefix for b in p]


@lru_cache(maxsize=64)
def _parity_keys(cx: str, degree: int, space: GradedSpace, q: int) -> array:
    """The positions in cochain_keys(cx, degree, space) of the keys of
    parity q, in order: the one numbering of a key-parity block's rows and
    columns, which the builders and the block assembly all read.  Computed
    once per space, not per coboundary applied, and kept as machine ints,
    since gl(2|2)'s ternary delta2 has 131,072 rows of each parity; every
    caller shares the one array and only reads it.  It depends on the
    space alone, so it is cached by space, not in an algebra's memo,
    which holds the blocks and nothing else; transfer-checks reads 12
    numberings, so 64 keep those of a few spaces at once."""
    parities = _key_parities(cx, degree, space)
    return array("q", (n for n, kp in enumerate(parities) if kp == q))


def coordinate_parities(cx: str, degree: int, space: GradedSpace) -> tuple:
    """Per coordinate: argument-key parity, plus output parity for the
    adjoint complexes.  A cochain of parity |f| is supported exactly on the
    coordinates whose entry here equals |f|."""
    keyp = _key_parities(cx, degree, space)
    if _width(cx, space) == 1:
        return tuple(keyp)
    return tuple((kp + po) % 2 for kp in keyp for po in space.parities)


def parity_support(cx: str, degree: int, space: GradedSpace, parity: int) -> tuple:
    cps = coordinate_parities(cx, degree, space)
    return tuple(i for i, cp in enumerate(cps) if cp == parity % 2)


@record(frozen=True)
class Cochain:
    complex: str
    degree: int
    parity: int
    space: GradedSpace
    coords: tuple
    # key -> coordinate (adjoint: output vector); make_cochain inverts it
    values: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if type(self.parity) is not int or self.parity not in (0, 1):
            raise InputError(f"cochain parity must be 0 or 1, not "
                             f"{self.parity!r}")
        cps = coordinate_parities(self.complex, self.degree, self.space)
        if len(self.coords) != len(cps):
            raise InputError(f"cochain needs {len(cps)} coordinates, "
                             f"got {len(self.coords)}")
        for i, c in enumerate(self.coords):
            if c != 0 and cps[i] != self.parity:
                raise InputError(f"cochain coordinate {i} breaks the parity "
                                 f"support rule")
        keys = cochain_keys(self.complex, self.degree, self.space)
        width = _width(self.complex, self.space)
        self.values.update(zip(keys, self.coords) if width == 1 else
                           zip(keys, zip(*[iter(self.coords)] * width)))

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


def _row_keys(cx: str, degree: int, space: GradedSpace) -> tuple:
    """The degree + 1 keys each value-free row of the cx coboundary on
    degree-cochains is keyed by, those of the scalar complex it reads."""
    return cochain_keys(_scalar(cx), degree + 1, space)


def _scalar(cx: str) -> str:
    return cx.replace("adjoint", "scalar")


def _ds_rows(g: HomLieSuper, cx: str, degree: int, parity: int,
             q: int) -> tuple:
    """d_s f(x_0, ..., x_p) = sum_{i<j} (-1)^{i+j} eps_ij
    f([x_i, x_j], a x_0, ..^i..^j.., a x_p), eps_ij the Koszul sign of
    moving x_i, then x_j, to the front, times 1/(D_W D_alpha^(p-1)), on
    the rows and columns of key parity q; a term on a column of the other
    parity is a precondition error."""
    sp = g.space
    par = sp.parities
    table = wedge_table(degree, sp, skew_basis(degree, sp).index)
    cols = {j: n for n, j in enumerate(_parity_keys(cx, degree, sp, q))}
    dw, W = g.bracket.integer
    da, acols = integer_terms(g.alpha.matrix.transpose().entries)
    k = degree + 1
    keys = _row_keys(cx, degree, sp)
    rows = []
    for X in (keys[i] for i in _parity_keys(cx, k, sp, q)):
        row = {}
        for i in range(k):
            for j in range(i + 1, k):
                moved = (par[X[i]] * sum(par[X[t]] for t in range(i))
                         + par[X[j]] * sum(par[X[t]] for t in range(j) if t != i))
                s = -1 if (i + j + moved) % 2 else 1
                args = [W.get((X[i], X[j]), ())] + [
                    acols[X[t]] for t in range(k) if t != i and t != j]
                for c, x in wedge_expand(args, table).items():
                    row[c] = row.get(c, 0) + s * x
        try:
            rows.append({cols[c]: x for c, x in row.items()})
        except KeyError:
            raise PreconditionError(_PARITY_LAW) from None
    return (Matrix.from_rows(rows, len(cols)),
            Fraction(1, dw * da ** (degree - 1)))


def _leibniz_rows(t: TernaryHomLieSuper, cx: str, degree: int, fpar: int,
                  q: int) -> tuple:
    """The Leibniz coboundary on fundamental objects, p = degree, i from 1:

      sum_{i<j} (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_j-1|)}
                f(aX_1, .., ^i, .., [X_i,X_j]_a in slot j, .., aX_p, a z)
      + sum_i (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_p|)}
                f(aX_1, .., ^i, .., aX_p, X_i.z),

    aX = a x1 ^ a x2, [X,Y]_a = X.y1 ^ a y2 + (-1)^{|X||y1|} a y1 ^ X.y2,
    times 1/(D_W D_alpha^(2(p-1))): a term has one bracket, 2(p-1) twists.
    The ternary-adjoint delta2 adds each term again times (-1)^{|f| e}, e =
    0 or |y1| on the wedges of [X,Y]_a and the other pair's parity on an
    action term: an even cochain sees the scalar rows at twice their
    multiplier, an odd one the terms with e even, doubled.  Only the rows
    (X, z) of key parity q are built, z completing the parity of X.
    """
    adjoint = cx == "ternary-adjoint"
    if adjoint and not fpar:
        rows, multiplier = _rows(t, "ternary-scalar", degree, 0, q)
        return rows, 2 * multiplier
    if not t.same_twists():
        raise PreconditionError("ternary cohomology needs alpha1 = alpha2")
    sp = t.space
    p, dim = sp.parities, sp.dim
    sb2 = skew_basis(2, sp)
    pairs = sb2.tuples
    npairs = len(pairs)
    pairp = [tuple_parity(pair, p) for pair in pairs]
    table = wedge_table(2, sp, sb2.index)
    dw, W = t.bracket.integer
    da, acols = integer_terms(t.alpha1.matrix.transpose().entries)
    acts = [[W.get((x1, x2, k), ()) for k in range(dim)] for x1, x2 in pairs]
    apairs = [wedge_expand([acols[i], acols[j]], table).items()
              for i, j in pairs] if degree > 1 else []
    # the z of each parity whose element terms are nonzero: per pair, then
    # for the twist
    *actz, az = [[[(z, terms) for z, terms in enumerate(per_z)
                   if terms and p[z] == e] for e in (0, 1)]
                 for per_z in (*acts, acols)]
    # per pair prefix of the columns, {element: its column among the
    # parity-q columns}; an element missing there is a term outside them
    keys = _parity_keys(cx, degree, sp, q)
    cols = [{} for _ in range(npairs ** (degree - 1))]
    for n, j in enumerate(keys):
        cols[j // dim][j % dim] = n

    @lru_cache(maxsize=None if degree > 2 else 0)  # pairs recur from p = 3
    def bracket(P, Q):
        """[X_P, X_Q]_a, less the wedge of odd e on the odd adjoint side."""
        q1, q2 = pairs[Q]
        out = wedge_expand([acts[P][q1], acols[q2]], table)
        if not (adjoint and p[q1]):
            s = -1 if pairp[P] and p[q1] else 1
            for c, x in wedge_expand([acols[q1], acts[P][q2]], table).items():
                out[c] = out.get(c, 0) + s * x
        return out.items()

    def add(block, slots, e, elem_table):
        """block[z] += (-1)^e * slot coefficients * f(prefix, z's elem)."""
        for parts in product(*slots):
            b, cr = 0, -1 if e % 2 else 1
            for Q, x in parts:
                b, cr = b * npairs + Q, cr * x
            col = cols[b]
            for z, elem_terms in elem_table:
                row = block[z]
                for m, cm in elem_terms:
                    c = col[m]  # KeyError: a term outside key parity q
                    row[c] = row.get(c, 0) + cr * cm

    rows = []
    try:
        for X in product(range(npairs), repeat=degree):
            par = [pairp[P] for P in X]
            e = q ^ sum(par) % 2  # the parity of the rows' elements z
            block = {z: {} for z in range(dim) if p[z] == e}
            for i in range(degree):  # i + 1 is the formula's i
                if not (adjoint and (sum(par) - par[i]) % 2):
                    add(block, [apairs[X[k]] for k in range(degree) if k != i],
                        i + 1 + par[i] * sum(par[i + 1:]), actz[X[i]][e])
                for j in range(i + 1, degree):
                    add(block, [bracket(X[i], X[j]) if k == j else apairs[X[k]]
                                for k in range(degree) if k != i],
                        i + 1 + par[i] * sum(par[i + 1:j]), az[e])
            rows.extend(block.values())
    except KeyError:
        raise PreconditionError(_PARITY_LAW) from None
    return (Matrix.from_rows(rows, len(keys)),
            Fraction(2 if adjoint else 1, dw * da ** (2 * degree - 2)))


def _scalar_rows(obj, cx: str, degree: int, parity: int, q: int) -> tuple:
    """The scalar rows, which an adjoint coboundary reads once per output."""
    return _rows(obj, _scalar(cx), degree, 0, q)


# (complex, degree) -> the builder of the value-free rows of key parity q
# of the coboundary on that complex's degree-cochains, called as
# build(obj, cx, degree, parity, q) and returning (integer rows,
# multiplier), the rows' columns numbered among the parity-q columns
_BUILDERS = {**{("binary-scalar", p): _ds_rows for p in (1, 2, 3)},
             ("binary-adjoint", 1): _scalar_rows,
             ("binary-adjoint", 2): _scalar_rows,
             **{("ternary-scalar", p): _leibniz_rows for p in (1, 2, 3)},
             ("ternary-adjoint", 1): _scalar_rows,
             ("ternary-adjoint", 2): _leibniz_rows}
# the degrees each complex has cochains in: its coboundaries' and one more
_DEGREES = {cx: tuple(d for c, d in _BUILDERS if c == cx) for cx, _ in _BUILDERS}
_DEGREES = {cx: (*ds, ds[-1] + 1) for cx, ds in _DEGREES.items()}
COMPLEXES = tuple(_DEGREES)


def _row_count(cx: str, degree: int, space: GradedSpace) -> int:
    """The rows of the whole cx coboundary on degree-cochains, counted from
    the key shapes: a ternary row key is degree canonical pairs, i < j or
    i = j odd, and an element; a binary one is a canonical (degree +
    1)-tuple, each even index in it at most once, an odd one any number of
    times, so ways[r] counts the r-tuples over the indices taken so far."""
    dim, odd = space.dim, sum(space.parities)
    if cx.startswith("ternary"):
        return (dim * (dim - 1) // 2 + odd) ** degree * dim
    ways = [1] + [0] * (degree + 1)
    for par in space.parities:
        ways = [sum(ways[r - m] for m in range((r if par else min(r, 1)) + 1))
                for r in range(degree + 2)]
    return ways[-1]


def _check_operator(obj, cx: str, degree: int):
    """The builder of the cx coboundary on degree-cochains, once obj fits
    cx, its bracket keeps the parity law the blocks split by, and the
    whole operator's row count is within MAX_COBOUNDARY_ROWS."""
    build = _BUILDERS.get((cx, degree)) if type(degree) is int else None
    if build is None:
        raise InputError(f"no coboundary for {cx} cochains of degree {degree!r}")
    if cx.startswith("ternary") != isinstance(obj, TernaryHomLieSuper):
        raise InputError(f"complex {cx} does not match the given algebra")
    n = _row_count(cx, degree, obj.space)
    if n > MAX_COBOUNDARY_ROWS:
        raise InputError(f"the {cx} coboundary of degree {degree} has "
                         f"{n} rows, over the cap of {MAX_COBOUNDARY_ROWS}")
    if not obj.bracket.super_skew and any(
            s is None for _, s, _ in obj.bracket.skew_breaks()):
        raise PreconditionError(_PARITY_LAW)
    return build


def _rows(obj, cx: str, degree: int, parity: int, q: int) -> tuple:
    """(integer rows, multiplier) of the key-parity-q block of the cx
    coboundary on degree-cochains, built once per algebra and kept in
    obj.memo under (cx, degree, parity, q); the operator is checked before
    a block is built, so a block in the memo was checked on obj.  Only the
    ternary-adjoint delta2 reads the cochain parity, mod 2; every other
    entry is under 0."""
    parity = parity % 2 if (cx, degree) == ("ternary-adjoint", 2) else 0
    key = (cx, degree, parity, q)
    if type(degree) is not int or key not in obj.memo:
        build = _check_operator(obj, cx, degree)
        obj.memo[key] = build(obj, cx, degree, parity, q)
    return obj.memo[key]


def coboundary_matrix(obj, cx: str, degree: int, parity: int = 0) -> Matrix:
    """The cx coboundary of degree-cochains of this parity, on full cochain
    coordinates, built on each call: the two key-parity blocks' rows,
    interleaved back into key order with their columns placed back, times
    the multiplier, each row applied once per output index o, reading the
    output-o coordinate of every key, so key column j moves to j*dim + o."""
    blocks = [_rows(obj, cx, degree, parity, q) for q in (0, 1)]
    space = obj.space
    dim = _width(cx, space)
    cols = [_parity_keys(cx, degree, space, q) for q in (0, 1)]
    rows = [iter(m.entries) for m, _ in blocks]
    entries = []
    for rp in _key_parities(_scalar(cx), degree + 1, space):
        row, col, multiplier = next(rows[rp]), cols[rp], blocks[rp][1]
        entries.extend(tuple((col[j] * dim + o, multiplier * x)
                             for j, x in row) for o in range(dim))
    return Matrix(len(entries), (len(cols[0]) + len(cols[1])) * dim,
                  tuple(entries))


def _apply(obj, cx: str, degree: int, parity: int, coords) -> dict:
    """coboundary_matrix(obj, cx, degree, parity).apply(coords) as a map
    {coordinate: Fraction} of its nonzero values, not in coordinate order,
    summed in ints: the coordinates' denominators are cleared once (by D),
    and only the key-parity blocks whose columns they touch are read, any
    parities mixed; each block row is summed per output over the integer
    coordinates at its key columns, and each nonzero sum is multiplied
    once, by multiplier / D.  Zero coordinates read no block, so the
    operator is checked for them alone."""
    space = obj.space
    dim = _width(cx, space)
    place = {}  # key column -> (its parity, its place among that parity's)
    for q in (0, 1):
        place.update((j, (q, n)) for n, j
                     in enumerate(_parity_keys(cx, degree, space, q)))
    if len(coords) != len(place) * dim:
        raise InputError("vector length mismatch in apply")
    d, (terms,) = integer_terms([enumerate(coords)])
    at = ({}, {})  # per key parity: block column -> (output, integer) pairs
    for j, x in terms:
        q, n = place[j // dim]
        at[q].setdefault(n, []).append((j % dim, x))
    if not (at[0] or at[1]):
        _check_operator(obj, cx, degree)
    out = {}
    for q in (0, 1):
        if not at[q]:
            continue
        m, multiplier = _rows(obj, cx, degree, parity, q)
        scale = multiplier / d
        for i, row in zip(_parity_keys(_scalar(cx), degree + 1, space, q),
                          m.entries):
            sums = {}
            for c, x in row:
                for o, y in at[q].get(c, ()):
                    sums[o] = sums.get(o, 0) + x * y
            for o, s in sums.items():
                if s:
                    out[i * dim + o] = s * scale
    return out


def apply_coboundary(obj, c: Cochain) -> Cochain:
    """The coboundary of c, the one place a coboundary value becomes dense."""
    out = _apply(obj, c.complex, c.degree, c.parity, c.coords)
    n = cochain_length(c.complex, c.degree + 1, c.space)
    return Cochain(c.complex, c.degree + 1, c.parity, c.space,
                   tuple(out.get(i, ZERO) for i in range(n)))


def _key_blocks(obj, cx: str, degree: int, parity: int) -> dict:
    """The parity block of the cx coboundary on degree-cochains, one per
    key parity q it reads: {q: (block, places)}.

    block is the memoized parity-q rows, their columns numbered among the
    parity-q columns; places has one entry per output the block serves,
    the cochain coordinate of each block column there.  A scalar cochain
    of parity f lives on the keys of parity f, so only that block is
    built.  The adjoint lift is block-diagonal across the output o, so
    output o sees the keys of parity f + |o|, and each key parity is
    eliminated once however many outputs it serves.  Coboundaries keep
    parity, so the kernel of a block is the cocycle space there.
    """
    space = obj.space
    dim = _width(cx, space)
    outputs = space.parities if dim > 1 else (0,)
    blocks = {}
    for q in (0, 1):
        serves = [o for o, po in enumerate(outputs)
                  if (q + po) % 2 == parity % 2]
        if serves:
            block = _rows(obj, cx, degree, parity, q)[0]
            cols = _parity_keys(cx, degree, space, q)
            blocks[q] = (block, [[j * dim + o for j in cols] for o in serves])
    return blocks


def cocycles(obj, cx: str, degree: int, parity: int) -> list:
    """A basis of the cx cocycles of this degree and parity as full
    coordinate tuples: each block's RREF kernel basis, placed at every
    output it serves."""
    n = cochain_length(cx, degree, obj.space)
    out = []
    for block, places in _key_blocks(obj, cx, degree, parity).values():
        for v in kernel(block).vectors():
            for place in places:
                full = [ZERO] * n
                for pos, x in zip(place, v):
                    full[pos] = x
                out.append(tuple(full))
    return out


def binary_adjoint_cocycle_space(g: HomLieSuper, parity: int) -> Subspace:
    """The cyclic cocycles among the g-valued 2-cochains of this parity."""
    return Subspace.from_vectors(cochain_length("binary-adjoint", 2, g.space),
                                 cocycles(g, "binary-adjoint", 2, parity))


def cohomology_dims(obj, cx: str, degree: int) -> tuple:
    """(dim Z, dim B, dim H) on the even-parity block, each key-parity
    block counted once per output it serves, in a degree whose coboundary,
    and the one below it above degree 1, are entries of _BUILDERS."""
    if type(degree) is not int or (cx, degree) not in _BUILDERS or (
            degree > 1 and (cx, degree - 1) not in _BUILDERS):
        raise InputError(f"no cohomology for {cx} in degree {degree!r}")
    upper = _key_blocks(obj, cx, degree, 0)  # first: it meets the row cap
    lower = _key_blocks(obj, cx, degree - 1, 0) if degree > 1 else {}
    zdim = bdim = 0
    for q, (block, places) in upper.items():
        z = kernel(block)
        b = image(lower[q][0]) if q in lower else Subspace.zero(z.ambient_dim)
        for v in b.vectors():
            if not z.contains(v):
                raise InputError("coboundary escaped the cocycle space")
        zdim += len(places) * z.dim
        bdim += len(places) * b.dim
    return (zdim, bdim, zdim - bdim)


def bracket_cochain(g: HomLieSuper) -> Cochain:
    """The bracket packaged as an even g-valued 2-cochain."""
    sb2 = skew_basis(2, g.space)
    values = {t: g.bracket.value(t[0], t[1]) for t in sb2.tuples}
    return make_cochain("binary-adjoint", 2, g.space, values, parity=0)


def verify_bracket_cocycle(g: HomLieSuper) -> Report:
    rep = Report("verify_bracket_cocycle")
    resid = _apply(g, "binary-adjoint", 2, 0, bracket_cochain(g).coords)
    if resid:
        triple = _row_keys("binary-adjoint", 2, g.space)[min(resid) // g.dim]
        rep.fail("bracket-cocycle",
                 witness=tuple(g.space.names[i] for i in triple))
    return rep


def is_binary_cocycle(g: HomLieSuper, phi: Cochain) -> bool:
    if phi.degree != 2:
        raise InputError("cocycle test expects degree 2")
    if not phi.complex.startswith("binary"):
        raise InputError("cocycle test expects a binary cochain")
    return not _apply(g, phi.complex, 2, phi.parity, phi.coords)


def induce_cocycle(g: HomLieSuper, tau: TraceFunctional, phi: Cochain,
                   t: TernaryHomLieSuper) -> Cochain:
    """Transfer a binary 2-cocycle to t, the algebra induced from (g, tau).

    phi_rho(X, z) is reps.TraceFunctional.induce of phi on the (pair,
    element) keys, phi's values cleared of denominators (D) once and
    read with the canonicalize signs; the result, divided by D_tau D, is
    checked against the matching ternary delta2 of t.
    """
    if phi.complex not in ("binary-scalar", "binary-adjoint") or phi.degree != 2:
        raise PreconditionError("induce_cocycle expects a binary 2-cochain")
    if not is_binary_cocycle(g, phi):
        raise PreconditionError("induce_cocycle expects a 2-cocycle")
    if trace_mismatches(tau, g.alpha):
        raise PreconditionError("trace functional is not twist invariant")
    scalar = phi.complex == "binary-scalar"
    out_cx = "ternary-scalar" if scalar else "ternary-adjoint"
    width = _width(phi.complex, g.space)
    d, rows = integer_terms(enumerate(phi.coords[n:n + width])
                            for n in range(0, len(phi.coords), width))
    at = dict(zip(cochain_keys(phi.complex, 2, g.space), rows))
    p = g.space.parities

    def ev(i, j):
        """The (m, integer) pairs of D phi(e_i, e_j), m < width."""
        key, sign, zero = canonicalize((i, j), p)
        if zero:
            return ()
        return at[key] if sign > 0 else tuple((m, -x) for m, x in at[key])

    keys = {(x1, x2, k): n for n, ((x1, x2), k)
            in enumerate(cochain_keys(out_cx, 2, g.space))}
    dt, rho = tau.induce(ev, keys)
    coords = [ZERO] * (len(keys) * width)
    for key, terms in rho.items():
        for m, x in terms:
            coords[keys[key] * width + m] = Fraction(x, dt * d)
    induced = Cochain(out_cx, 2, phi.parity, g.space, tuple(coords))
    if _apply(t, out_cx, 2, induced.parity, induced.coords):
        raise PreconditionError("induced cochain is not a ternary cocycle")
    return induced


def verify_1cocycle_transfer(g: HomLieSuper, tau: TraceFunctional,
                             t: TernaryHomLieSuper) -> Report:
    """Scalar 1-cocycles of g annihilate the induced triple brackets."""
    rep = Report("verify_1cocycle_transfer")
    ker = kernel(coboundary_matrix(g, "binary-scalar", 1))
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
                          omega: Cochain, t: TernaryHomLieSuper) -> Report:
    """delta1 of t, the algebra induced from (g, tau), agrees with the
    tau-combination of the binary coboundary: delta_rho^1(omega) =
    (d_s^1 omega)_rho, coordinatewise."""
    rep = Report("verify_lemma_identity")
    if omega.complex != "binary-scalar" or omega.degree != 1:
        raise PreconditionError("lemma identity expects a scalar 1-cochain")
    lhs = _apply(t, "ternary-scalar", 1, omega.parity, omega.coords)
    rhs = induce_cocycle(g, tau, apply_coboundary(g, omega), t).coords
    _fail_mismatches(rep, "lemma-identity", g.space, lhs,
                     {i: c for i, c in enumerate(rhs) if c})
    rep.metrics["coordinates"] = len(rhs)
    return rep


def _fail_mismatches(rep: Report, check: str, space: GradedSpace, lhs: dict,
                     rhs: dict) -> None:
    """One failure per coordinate where the ternary-scalar 2-cochain maps
    lhs and rhs differ, in order, witnessed by its key's three basis names."""
    names = space.names
    keys = cochain_keys("ternary-scalar", 2, space)
    for i in sorted(lhs.keys() | rhs.keys()):
        (pair, k), a, b = keys[i], lhs.get(i, ZERO), rhs.get(i, ZERO)
        if a != b:
            rep.fail(check, witness=tuple(names[m] for m in pair) + (names[k],),
                     residual=(fmt_scalar(a - b),))


def verify_class_transfer(g: HomLieSuper, tau: TraceFunctional,
                          phi1: Cochain, phi2: Cochain,
                          t: TernaryHomLieSuper) -> Report:
    """Cohomologous binary scalar cocycles induce cohomologous cochains
    on t, the algebra induced from (g, tau), via the same connecting
    1-cochain."""
    rep = Report("verify_class_transfer")
    for phi in (phi1, phi2):
        if phi.complex != "binary-scalar" or phi.degree != 2:
            raise PreconditionError("class transfer expects binary scalar 2-cochains")
        if not is_binary_cocycle(g, phi):
            raise PreconditionError("class transfer expects 2-cocycles")
    diff = tuple(b - a for a, b in zip(phi1.coords, phi2.coords))
    omega = solve(coboundary_matrix(g, "binary-scalar", 1), diff)
    if omega is None:
        raise PreconditionError("cocycles are not cohomologous")
    psi1 = induce_cocycle(g, tau, phi1, t).coords
    psi2 = induce_cocycle(g, tau, phi2, t).coords
    lhs = {i: b - a for i, (a, b) in enumerate(zip(psi1, psi2)) if a != b}
    rhs = _apply(t, "ternary-scalar", 1, 0, omega)
    _fail_mismatches(rep, "class-transfer", g.space, lhs, rhs)
    rep.metrics["connecting_cochain"] = [fmt_scalar(c) for c in omega]
    return rep
