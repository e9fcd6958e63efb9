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
returns a walk, one exact multiplier and a function that builds the
integer rows of any block it is given, one row at a time.  _scalar_rows
gives an adjoint complex the scalar walk.

  binary-scalar   1-3  d_s, the sum over i<j of signed
                       f([x_i,x_j], alpha(...)) terms, 1/(D_W D_alpha^(p-1));
  binary-adjoint  1-2  d_s^1 and d_s^2 per output, d^2 being the cyclic
                       operator on canonical triples;
  ternary-scalar  1-3  one Leibniz formula on pairs, delta1 f(X,z) =
                       -f(X.z) and the three-term delta2 its p = 1 and 2
                       cases, 1/(D_W D_alpha^(2(p-1)));
  ternary-adjoint 1-2  the scalar delta1, and each scalar delta2 term
                       times 1 + (-1)^{|f| e} (see _leibniz_rows).

Coboundaries keep parity and torus weight.  A key's label is (q, w): q
the sum of its parts' parities, mod 2, and w the sum of their weights
under the grading _grading reads off the document, the kernel over Q of
the homogeneity equations (w_k = the sum of the slot weights for each
nonzero structure constant, w_m = w_i for each nonzero off-diagonal
twist entry), solved in ints once per algebra.  On a bracket that keeps
the parity law (one that breaks it has no coboundary here, a
precondition error), the row of a key of label (q, w) reads only columns
of keys of that label, so the operator falls into (q, w) blocks; when
the kernel is 0 every weight is 0 and the blocks are the key-parity
blocks.  A walk builds the rows of the row keys it is given, their
columns numbered by their place among the column keys it is given, and
raises on a term outside them rather than drop it; whatever it caches
lives as long as the walk.  Before a walk starts the operator is
checked: the parity law, and the whole-operator row count, taken from
the key shapes, against MAX_COBOUNDARY_ROWS.

Cohomology and cocycle bases (cohomology_dims, cocycles) read the (q, w)
blocks that _key_blocks lists from _weight_groups, the keys grouped by
label: each block's rows go to rref as the walk builds them, so a block
of full column rank builds no row past the one that completes its rank,
and each block is eliminated once and counted, or placed, once per
output it serves.  A scalar cochain of parity f needs the parity-f
blocks alone, so a scalar (Z, B, H) builds no odd row.  No row is kept
once rref has read it.

The whole-operator forms read key-parity blocks, numbered by
_parity_keys, each memoized on the algebra under (complex, degree,
parity, q) when first read; only the ternary-adjoint delta2 reads the
parity, and its even blocks are the scalar delta2's objects.  An adjoint
coboundary applies its value-free rows once per output index, so its
matrix is block-diagonal across the outputs.  coboundary_matrix, the one
whole-operator form, built on each call, interleaves the two blocks back
into key order, scales them and lifts them, moving key column j of
output o to j*dim + o; it is the one place the rows become Fractions.
Every coboundary of a given cochain goes through _apply, which reads
only the blocks whose columns the nonzero coordinates touch, sums in
ints and returns the nonzero outputs; apply_coboundary alone makes them
dense.

induce_cocycle transfers a binary 2-cocycle with
reps.TraceFunctional.induce, the formula that also builds the induced
bracket, on the cocycle's values cleared of denominators once.
"""

from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, groupby, product

from .binary import HomLieSuper
from .graded import (GradedSpace, canonicalize, skew_basis, tuple_parity,
                     wedge_expand, wedge_table)
from .linalg import (InputError, Matrix, PreconditionError, Subspace, _gcd,
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
    parity q, in order: the numbering of a key-parity block's rows and
    columns, which the memoized blocks and their assembly read.  Computed
    once per space, not per coboundary applied, and kept as machine ints,
    since gl(2|2)'s ternary delta2 has 131,072 rows of each parity; every
    caller shares the one array and only reads it.  It depends on the
    space alone, so it is cached by space, not in an algebra's memo;
    transfer-checks reads 12 numberings, so 64 keep those of a few spaces
    at once."""
    parities = _key_parities(cx, degree, space)
    return array("q", (n for n, kp in enumerate(parities) if kp == q))


def _grading(obj) -> tuple:
    """Each basis element's torus weight, one int per element: the basis
    _weight_basis finds, packed by _pack, so that the weights of a key's
    parts add up in one int sum; every weight is 0 when the kernel is.
    Solved once per algebra and kept in obj.memo under "grading"."""
    if "grading" not in obj.memo:
        basis = _weight_basis(obj)
        obj.memo["grading"] = (tuple(_pack(basis, obj.space.dim)) if basis
                               else (0,) * obj.space.dim)
    return obj.memo["grading"]


def _weight_basis(obj) -> list:
    """A basis, as primitive int vectors over the basis elements, of the
    torus weights of obj, read off its document: the kernel over Q of the
    homogeneity equations, w_m = w_i for each nonzero twist entry (m, i),
    and w_k = the sum of the slot weights for each nonzero structure
    constant (a bracket key (i_1, .., i_n) and a coordinate k of its
    value).

    The basis starts as the unit vectors and is cut by one equation at a
    time, in ints: an equation that some vector breaks, by y_v, is kept by
    y_j v - y_v pivot for every other vector v, the pivot j a vector with
    the least |y_j|, which is dropped.  Whether an equation breaks any
    vector is one int comparison on the basis packed by _pack, so an
    equation the basis already keeps costs that comparison alone, where
    linalg.kernel would reduce it as a row; the walk stops as soon as no
    vector is left, which on a dense conjugate is early."""
    dim = obj.space.dim
    twists = ((obj.alpha,) if isinstance(obj, HomLieSuper)
              else (obj.alpha1, obj.alpha2))
    equations = chain(
        (((i,), col) for twist in twists for i, col in enumerate(
            integer_terms(twist.matrix.transpose().entries)[1])),
        obj.bracket.integer[1].items())
    basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    packed = _pack(basis, dim)
    for slots, terms in equations:
        total = sum(map(packed.__getitem__, slots))
        for k, _ in terms:
            if packed[k] == total:
                continue  # every vector keeps this equation
            y = [v[k] - sum(map(v.__getitem__, slots)) for v in basis]
            j = min((n for n, x in enumerate(y) if x), key=lambda n: abs(y[n]))
            pivot, yj = basis.pop(j), y.pop(j)
            if not basis:
                return []
            for n, (v, x) in enumerate(zip(basis, y)):
                if x:
                    w = [yj * a - x * b for a, b in zip(v, pivot)]
                    g = reduce(_gcd, filter(None, w))
                    basis[n] = [a // g for a in w]
            packed = _pack(basis, dim)
            total = sum(map(packed.__getitem__, slots))
    return basis


def _pack(basis: list, dim: int) -> list:
    """Per coordinate i the int sum_n basis[n][i] 2^(width n): signed
    slots wide enough that a sum of up to eight values in a slot, an
    equation's or a key's, stays within it, so the packed sums of two
    keys are equal exactly when their weights are."""
    width = max(max(map(abs, v)) for v in basis).bit_length() + 4
    packed = [0] * dim
    for n, v in enumerate(basis):
        shift = width * n
        packed = [x + (a << shift) for x, a in zip(packed, v)]
    return packed


def _weight_groups(cx: str, degree: int, space: GradedSpace,
                   weights: tuple) -> tuple:
    """cochain_keys(cx, degree, space) grouped by label (q, w), q the sum
    of the key's part parities, mod 2, and w the sum of their weights
    (weights[i] for element i, see _grading), as (width, labels,
    prefixes, elements): the key at position b * width + z is prefix b
    followed by element z, and its label is the sum of theirs, the
    parities mod 2.  labels holds each prefix's label, prefixes maps each
    label to its prefixes, increasing, and elements each label to its
    elements.  A ternary key is its pair prefix and its element (width
    dim), labelled pair by pair without listing the keys; a binary key is
    a prefix alone (width 1, one element 0 of label (0, 0))."""
    _check_degree(cx, degree)
    p = space.parities
    if cx.startswith("binary"):
        labels = [(sum(map(p.__getitem__, key)) % 2,
                   sum(map(weights.__getitem__, key)))
                  for key in skew_basis(degree, space).tuples]
        width, elements = 1, {(0, 0): (0,)}
    else:
        pairs = [(p[i] ^ p[j], weights[i] + weights[j])
                 for i, j in skew_basis(2, space).tuples]
        labels = [(0, 0)]
        for _ in range(degree - 1):
            labels = [(q ^ r, w + v) for q, w in labels for r, v in pairs]
        width, elements = space.dim, {}
        for z, label in enumerate(zip(p, weights)):
            elements[label] = elements.get(label, ()) + (z,)
    prefixes = {}
    for b, label in enumerate(labels):
        prefixes.setdefault(label, []).append(b)
    return width, labels, prefixes, elements


def _block_labels(groups: tuple) -> list:
    """The labels (q, w) of the keys of _weight_groups, sorted, so every
    even block comes before every odd one."""
    _, _, prefixes, elements = groups
    return sorted({(q ^ r, w + v) for q, w in prefixes for r, v in elements})


def _block(groups: tuple, label: tuple) -> tuple:
    """(count, keys) of the keys of one label of _weight_groups: how many
    there are, and an iterator of their positions in key order, which
    lists no key before it is read: the block's prefixes in order, each
    followed by the elements that complete its label."""
    width, labels, prefixes, elements = groups
    q, w = label
    runs = {(q ^ r, w - v): zs for (r, v), zs in elements.items()
            if (q ^ r, w - v) in prefixes}  # prefix label -> its elements
    return (sum(len(prefixes[pl]) * len(zs) for pl, zs in runs.items()),
            (b * width + z for b in sorted(chain.from_iterable(
                map(prefixes.__getitem__, runs))) for z in runs[labels[b]]))


def _block_keys(groups: tuple, label: tuple) -> array:
    """The positions of the keys of one label of _weight_groups, in key
    order: the numbering of a (q, w) block's columns."""
    return array("q", _block(groups, label)[1])


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


def _ds_rows(g: HomLieSuper, cx: str, degree: int, parity: int) -> tuple:
    """d_s f(x_0, ..., x_p) = sum_{i<j} (-1)^{i+j} eps_ij
    f([x_i, x_j], a x_0, ..^i..^j.., a x_p), eps_ij the Koszul sign of
    moving x_i, then x_j, to the front, times 1/(D_W D_alpha^(p-1))."""
    sp = g.space
    par = sp.parities
    table = wedge_table(degree, sp, skew_basis(degree, sp).index)
    dw, W = g.bracket.integer
    da, acols = integer_terms(g.alpha.matrix.transpose().entries)
    k = degree + 1
    keys = _row_keys(cx, degree, sp)

    def rows(row_keys, col_keys):
        cols = {j: n for n, j in enumerate(col_keys)}
        for X in (keys[i] for i in row_keys):
            px = [par[x] for x in X]
            before = list(accumulate(px, initial=0))  # parity left of a slot
            row = {}
            for i, j in combinations(range(k), 2):
                bracket = W.get((X[i], X[j]))
                if not bracket:
                    continue
                moved = px[i] * before[i] + px[j] * (before[j] - px[i])
                s = -1 if (i + j + moved) % 2 else 1
                args = [bracket] + [acols[X[t]] for t in range(k)
                                    if t != i and t != j]
                for c, x in wedge_expand(args, table).items():
                    row[c] = row.get(c, 0) + s * x
            try:
                row = [(cols[c], x) for c, x in row.items()]
            except KeyError:
                raise PreconditionError(_PARITY_LAW) from None
            yield tuple(sorted(term for term in row if term[1]))

    return Fraction(1, dw * da ** (degree - 1)), rows, (cx, 0)


def _leibniz_rows(t: TernaryHomLieSuper, cx: str, degree: int,
                  fpar: int) -> tuple:
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
    multiplier, an odd one the terms with e even, doubled.  A walk works
    out the terms of a pair prefix X, and each bracket [X_i, X_j]_a, when
    a row (X, z) first needs them, and keeps them for every block it
    builds, whose rows (X, z) share X across weights; a row reads the
    element terms at its own z alone.
    """
    adjoint = cx == "ternary-adjoint"
    if adjoint and not fpar:
        multiplier, rows, source = _walk(t, "ternary-scalar", degree, 0)
        return 2 * multiplier, rows, source
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
    apairs = [tuple(wedge_expand([acols[i], acols[j]], table).items())
              for i, j in pairs] if degree > 1 else []

    @lru_cache(maxsize=None)  # shared by the walk's blocks, dropped with it
    def bracket(P, Q):
        """[X_P, X_Q]_a, less the wedge of odd e on the odd adjoint side."""
        q1, q2 = pairs[Q]
        act = acts[P]
        out = wedge_expand([act[q1], acols[q2]], table) if act[q1] else {}
        if act[q2] and not (adjoint and p[q1]):
            s = -1 if pairp[P] and p[q1] else 1
            for c, x in wedge_expand([acols[q1], act[q2]], table).items():
                out[c] = out.get(c, 0) + s * x
        return tuple(out.items())

    def products(slots):
        """The (column prefix, coefficient) of each product of one term
        per slot; one slot is its own list, shared."""
        if len(slots) == 1:
            return slots[0]
        prefixes = [(0, 1)]
        for slot in slots:
            prefixes = [(b * npairs + Q, cr * x) for b, cr in prefixes
                        for Q, x in slot]
        return prefixes

    def terms(X):
        """The terms of the rows (X, z), as (per z the element's terms,
        (-1)^e, the slot products): an action term reads X_i.z, a bracket
        term a z."""
        par = [pairp[P] for P in X]
        out = []
        for i in range(degree):  # i + 1 is the formula's i
            slots = [apairs[X[k]] for k in range(degree) if k != i]
            if not (adjoint and (sum(par) - par[i]) % 2):
                e = i + 1 + par[i] * sum(par[i + 1:])
                out.append((acts[X[i]], -1 if e % 2 else 1, products(slots)))
            for j in range(i + 1, degree):
                slots[j - 1] = bracket(X[i], X[j])
                e = i + 1 + par[i] * sum(par[i + 1:j])
                out.append((acols, -1 if e % 2 else 1, products(slots)))
                slots[j - 1] = apairs[X[j]]
        return [part for part in out if part[2]]

    cache = {}  # pair prefix -> terms(X), for every block of the walk

    def rows(row_keys, col_keys):
        # per pair prefix of the columns, {element: its column in the
        # block}; a prefix or an element missing there is a term outside it
        cols = {}
        for n, j in enumerate(col_keys):
            cols.setdefault(j // dim, {})[j % dim] = n
        for i in row_keys:
            b0, z = divmod(i, dim)
            parts = cache.get(b0)
            if parts is None:
                X, b = [], b0
                for _ in range(degree):
                    b, P = divmod(b, npairs)
                    X.append(P)
                parts = cache[b0] = terms(X[::-1])
            row = {}
            try:
                for elems, s, prefixes in parts:
                    ez = elems[z]
                    if ez:
                        for b, cr in prefixes:
                            col, cr = cols[b], s * cr
                            for m, cm in ez:
                                c = col[m]
                                row[c] = row.get(c, 0) + cr * cm
            except KeyError:
                raise PreconditionError(_PARITY_LAW) from None
            yield tuple(sorted((c, x) for c, x in row.items() if x))

    return (Fraction(2 if adjoint else 1, dw * da ** (2 * degree - 2)), rows,
            (cx, fpar))


def _scalar_rows(obj, cx: str, degree: int, parity: int) -> tuple:
    """The scalar rows, which an adjoint coboundary reads once per output."""
    return _walk(obj, _scalar(cx), degree, 0)


# (complex, degree) -> the builder of the value-free rows of the coboundary
# on that complex's degree-cochains, called as build(obj, cx, degree,
# parity) and returning a walk (multiplier, rows, source): rows(row_keys,
# col_keys) yields, one at a time and in the order given, the integer row
# of each key position in row_keys, its columns numbered by their place in
# col_keys, and raises on a term outside them; source is the (complex,
# parity) whose rows they are, the scalar ones on an adjoint complex that
# reads them
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


def _walk(obj, cx: str, degree: int, parity: int) -> tuple:
    """The walk (multiplier, rows, source) of _BUILDERS for the cx
    coboundary on degree-cochains of this parity, once the operator is
    checked.  Whatever it caches lives as long as the walk, not the
    algebra."""
    return _check_operator(obj, cx, degree)(obj, cx, degree, parity)


def _rows(obj, cx: str, degree: int, parity: int, q: int) -> tuple:
    """(integer rows, multiplier) of the key-parity-q block of the cx
    coboundary on degree-cochains, the whole block in key order, built
    once per algebra and kept in obj.memo under (cx, degree, parity, q);
    the operator is checked before a block is built, so a block in the
    memo was checked on obj.  An adjoint block that reads the scalar rows
    is the scalar block object.  Only the ternary-adjoint delta2 reads the
    cochain parity, mod 2; every other entry is under 0."""
    parity = parity % 2 if (cx, degree) == ("ternary-adjoint", 2) else 0
    key = (cx, degree, parity, q)
    if type(degree) is not int or key not in obj.memo:
        multiplier, rows, (scx, sparity) = _walk(obj, cx, degree, parity)
        if (scx, sparity) != (cx, parity):
            block = _rows(obj, scx, degree, sparity, q)[0]
        else:
            row_keys = _parity_keys(_scalar(cx), degree + 1, obj.space, q)
            col_keys = _parity_keys(cx, degree, obj.space, q)
            block = Matrix(len(row_keys), len(col_keys),
                           tuple(rows(row_keys, col_keys)))
        obj.memo[key] = block, multiplier
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


def _key_blocks(obj, cx: str, degree: int, parity: int):
    """The (q, w) blocks of the cx coboundary on degree-cochains that the
    cochains of this parity live on, each as (label, outputs, row count,
    row keys, column keys), labels (q, w) under obj's _grading in sorted
    order, so every even block comes before every odd one.  The row keys
    are an iterator, the column keys in key order.  Call it after the
    operator is checked (_walk).

    outputs are the outputs the block serves.  A scalar cochain of parity
    f lives on the keys of parity f, so only those blocks are listed.  The
    adjoint lift is block-diagonal across the output o, so output o sees
    the keys of parity f + |o|, and each block is eliminated once however
    many outputs it serves.  Coboundaries keep parity and weight, so the
    kernel of a block is the cocycle space there, and a row key of a
    label no column key has keys a zero row, never built.
    """
    space = obj.space
    served = {}
    for o, po in enumerate(space.parities if _width(cx, space) > 1 else (0,)):
        served.setdefault((parity + po) % 2, []).append(o)
    weights = _grading(obj)
    rows = _weight_groups(_scalar(cx), degree + 1, space, weights)
    cols = _weight_groups(cx, degree, space, weights)
    for label in _block_labels(cols):
        if label[0] in served:
            yield (label, served[label[0]], *_block(rows, label),
                   _block_keys(cols, label))


def cocycles(obj, cx: str, degree: int, parity: int) -> list:
    """A basis of the cx cocycles of this degree and parity as full
    coordinate tuples: per key parity q, each (q, w) block's RREF kernel
    basis, its rows handed to rref as they are built, and the union
    sorted by lead column, which is the RREF kernel basis of the parity-q
    block, placed at every output it serves."""
    rows = _walk(obj, cx, degree, parity)[1]
    dim = _width(cx, obj.space)
    n = cochain_length(cx, degree, obj.space)
    out = []
    for _, blocks in groupby(_key_blocks(obj, cx, degree, parity),
                             lambda block: block[0][0]):
        vectors = []
        for _, outputs, count, row_keys, col_keys in blocks:
            z = kernel(Matrix(count, len(col_keys), rows(row_keys, col_keys)))
            vectors += [tuple((col_keys[c], x) for c, x in v)
                        for v in z.basis.entries]
        for v in sorted(vectors):
            for o in outputs:
                full = [ZERO] * n
                for j, x in v:
                    full[j * dim + o] = x
                out.append(tuple(full))
    return out


def binary_adjoint_cocycle_space(g: HomLieSuper, parity: int) -> Subspace:
    """The cyclic cocycles among the g-valued 2-cochains of this parity."""
    return Subspace.from_vectors(cochain_length("binary-adjoint", 2, g.space),
                                 cocycles(g, "binary-adjoint", 2, parity))


def cohomology_dims(obj, cx: str, degree: int) -> tuple:
    """(dim Z, dim B, dim H) on the even-parity cochains, in a degree whose
    coboundary, and the one below it above degree 1, are entries of
    _BUILDERS: per (q, w) block, Z from the kernel of its rows, handed to
    rref as they are built, so a block of full column rank builds no row
    past the one that completes it, and B from the image of the matching
    block of the coboundary below, each counted once per output the block
    serves.  No row is kept once it is eliminated."""
    if type(degree) is not int or (cx, degree) not in _BUILDERS or (
            degree > 1 and (cx, degree - 1) not in _BUILDERS):
        raise InputError(f"no cohomology for {cx} in degree {degree!r}")
    upper = _walk(obj, cx, degree, 0)[1]  # first: it meets the row cap
    if degree > 1:
        lower = _walk(obj, cx, degree - 1, 0)[1]
        below = _weight_groups(cx, degree - 1, obj.space, _grading(obj))
    zdim = bdim = 0
    for label, outputs, count, row_keys, col_keys in _key_blocks(
            obj, cx, degree, 0):
        z = kernel(Matrix(count, len(col_keys), upper(row_keys, col_keys)))
        low_keys = _block_keys(below, label) if degree > 1 else ()
        b = (image(Matrix(len(col_keys), len(low_keys),
                          tuple(lower(col_keys, low_keys))))
             if low_keys else Subspace.zero(z.ambient_dim))
        for v in b.vectors():
            if not z.contains(v):
                raise InputError("coboundary escaped the cocycle space")
        zdim += len(outputs) * z.dim
        bdim += len(outputs) * b.dim
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
