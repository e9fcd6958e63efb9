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
integer rows of any block it is given, one row at a time.  An adjoint
complex's entry is its scalar complex's builder, walked once as itself:
its value-free rows are the scalar ones, read once per output.

  binary-scalar   1-3  d_s, the sum over i<j of signed
                       f([x_i,x_j], alpha(...)) terms, 1/(D_W D_alpha^(p-1));
  binary-adjoint  1-2  d_s^1 and d_s^2 per output, d^2 being the cyclic
                       operator on canonical triples;
  ternary-scalar  1-3  one Leibniz formula on pairs, delta1 f(X,z) =
                       -f(X.z) and the three-term delta2 its p = 1 and 2
                       cases, 1/(D_W D_alpha^(2(p-1)));
  ternary-adjoint 1-2  the scalar delta1, and each scalar delta2 term
                       times 1 + (-1)^{|f| e}, per output.

e is the exponent of the Koszul sign of moving the value of f past
arguments.  In the module-valued coboundary (Ammar-Mabrouk-Makhlouf,
J. Geom. Phys. 61 (2011)) it is nonzero only in the action terms
rho(X_i) f(..), where X_i passes the value; a value-free complex has no
such term, and every term it keeps reads f(..) at arguments that never
pass the value, so e = 0 and the factor is 2 for either parity |f|.  The
ternary-adjoint delta2 is thus twice the scalar one whatever the
cochain's parity, and delta2 delta1 = 0 on it as on the scalar complex;
no builder reads the parity.

Coboundaries keep parity and torus weight.  A key's label is (q, w): q
the sum of its parts' parities, mod 2, and w the sum of their weights
under the grading _grading reads off the document, the kernel over Q of
the homogeneity equations (w_k = the sum of the slot weights for each
nonzero structure constant, w_m = w_i for each nonzero off-diagonal
twist entry), solved once per algebra by linalg.kernel, the rows
streamed to rref, which stops them at full column rank.  On a bracket
that keeps the parity law (one that breaks it has no coboundary here, a
precondition error), the row of a key of label (q, w) reads only columns
of keys of that label, so the operator falls into (q, w) blocks; when
the kernel is 0 every weight is 0 and the blocks are the key-parity
blocks.  A walk builds the rows of the row keys it is given, their
columns numbered by their place among the column keys it is given, and
raises on a term outside them rather than drop it; whatever it caches
lives as long as the walk.  Before a walk starts _check checks the
operator, building nothing: the whole-operator row count, taken from the
key shapes, against MAX_COBOUNDARY_ROWS, the parity law, and equal
twists.

Every consumer reads the (q, w) blocks through _blocks, one walk per
call: block(label) gives the block's row count, its row keys, its column
keys and its rows, each row built as it is read, and nothing outlives the
walk.  The one memo rule (graded.HomAlgebra): an algebra's memo holds
what has been computed or proved about the algebra, and no coboundary
row.  Here that is its grading, its rank beside its packed weights,
solved once by _grading; graded.image, [g, g, g], which _adapted reads
for its hyperplane; and the verdicts the identity verifiers keep there,
which _proved reads.  Cocycle bases
(cocycles) hand a block's rows to rref, and cohomology_dims counts
ranks: each block is eliminated once, as its rows are built, so a block
of full column rank builds no row past the one that completes its rank,
and counted, or placed, once per output it serves (_served).  A scalar
cochain of parity f needs the parity-f blocks alone, so a scalar (Z, B,
H) builds no odd row.  B is the column space of the coboundary below,
walked once beside _blocks: its rows at a block's column keys, which are
its row keys there, so each degree's keys are grouped once; dim B is its
exact rank.  A builder yields each row's (column, value) pairs in any
order: the eliminators read them as a map, and coboundary_matrix, whose
Matrix needs increasing columns, sorts them.

cohomology_dims builds no Subspace.  d^2 = 0, which makes cols - dim B an
upper bound on the rank of the upper block, comes from one of two
sources.  On an algebra where _proved holds, a super_skew bracket whose
identity (Hom-Jacobi or Hom-Nambu) and multiplicativity verdicts are both
on record as "pass", it is a theorem (Ammar-Makhlouf, J. Algebra 324
(2010); Ammar-Mabrouk-Makhlouf, J. Geom. Phys. 61 (2011)), and no row is
tested: each block's rows are read only until its rank reaches cols -
dim B, where it is proved.  Otherwise it is an int test on every row of
the upper block, read as it is built: its products with the lower
block's columns, packed by linalg.orthogonal_test, are all 0; the rows
past the rank are read for this test alone.  No verdict, a "fail" or a
"not-applicable" takes this path, so the identities are no precondition.
Z is the column count less the rank of the upper block: rref's on a
sparse block, and linalg.certified_rank's on a dense one (_dense,
DENSE_COLUMNS and DENSE_GRADING), a packed rank mod a prime that stops
at cols - dim B, and lifts its kernel to Q when it stops short of that,
so the answer stays exact.

One rule, owned by _adapted, says which basis an answer is computed in.
An answer that no even change of basis can alter, a dimension or a zero
test, is computed on a ternary algebra's copy in an adapted basis above
degree 1, when the copy grades more finely: the dims of cohomology_dims
and the induced cocycle test of induce_cocycle.  An answer in
coordinates (apply_coboundaries, cocycles, coboundary_matrix, the
induced cochains) stays in the document basis; no caller asks one of
them a ternary question above degree 1, so none is pulled back.

An induced bracket's image lies in [g, g], inside ker tau, so when
[g, g, g] spans a hyperplane it is ker tau and its normal phi is tau up
to scale.  A basis of a complement u and of K = ker phi gives [K, K, K]
= 0 and [u, u, .] = 0, so u of weight 1 and K of weight -1 is one more
torus weight, which _grading finds unaided when the twist alpha keeps
span(u) and K.  alpha keeps K when phi o alpha = c phi, and then u is
taken in ker(alpha - c id): a basis element for alpha = id or a
diagonal Yau twist, a vector of ker lambda for alpha = id + lambda(.) I.
Both are read off the document before any transport, and when phi o
alpha is no multiple of phi, or no such u has phi(u) != 0, the document
basis serves, as it does on an odd phi, a bracket that is not
super_skew, or gl(1|1), whose image is a line.  Otherwise the copy,
made by one binary.change_of_basis, is kept when its _grading rank is
higher than the document's; each grading is solved once, in its own
algebra's memo, and the copy itself is not memoized.  Every check of
_check runs first, on the document, in every degree, with its own
message, and each operator is then walked once, on the algebra used.  A
B that leaves Z, d^2 != 0, names the identity the document breaks
(_escaped), whichever row first shows it.  Degree 1 stays in the
document basis: on gl(2|2), in-process on a 2-core x86-64 host with
Python 3.11.7, the copy costs
about 18 ms and saves a degree-1 query about 1 ms (3.1 ms to 2.2 ms),
while ts2 goes from 0.39-0.42 s to 0.07-0.11 s and ta2 from 0.64-0.75 s
to 0.09-0.14 s.

An adjoint coboundary applies its value-free rows once per output index,
so its matrix is block-diagonal across the outputs.  coboundary_matrix
places each block's rows at their row keys, maps their columns back
through its column keys, scales and lifts them (key column j of output o
to j*dim + o); it is the one place the rows become Fractions.  _apply
takes a batch of cochains, streams only the blocks their nonzero keys'
labels touch, applies each row to the whole batch in ints and returns
each cochain's nonzero outputs; apply_coboundaries alone makes them
dense.

induce_cocycle transfers binary 2-cocycles with
reps.TraceFunctional.induce, the formula that also builds the induced
bracket, read off one ordered view of each cocycle.  It takes a
sequence, so a call walks the ternary delta2 once.  When _adapted
returns a copy, each cocycle phi is induced once more at the moved
basis, from phi(s., s.) and tau o s, and the delta2 zero test runs on
the copy; the cochains it returns are the document-basis ones.
verify_cochain_transfer checks the lemma delta1 omega = (d_s^1 omega)_rho
and the class transfer in one call: one induce_cocycle of every d_s^1
omega and every class cochain, and one ternary delta1 of the omegas and
the connecting cochains.  Each check runs once on the whole batch, in a
fixed order, shapes first, and the first check that fails raises: a
cochain of the wrong shape, or of another algebra, anywhere raises before
any coboundary is walked.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, groupby, product
from operator import itemgetter

from .binary import (HomLieSuper, change_of_basis, verify_hom_jacobi,
                     verify_multiplicative)
from .graded import (GradedSpace, canonicalize, image, skew_basis,
                     tuple_parity, wedge_expand, wedge_table)
from .linalg import (InputError, Matrix, PreconditionError, Subspace,
                     certified_rank, field, frac, integer_terms, kernel,
                     map_terms, orthogonal_test, pack, rank, slot_width,
                     solve, vec, vec_add, vec_scale, zero_vec, is_zero_vec,
                     record, ONE, ZERO)
from .report import Report, fmt_scalar
from .reps import TraceFunctional, trace_mismatches
from .ternary import (TernaryHomLieSuper, verify_hom_nambu,
                      verify_ternary_multiplicative)

# the most rows a coboundary is built with: a larger one is an input error
MAX_COBOUNDARY_ROWS = 1 << 20
# The rule for a dense (q, w) block, whose rank cohomology_dims takes from
# linalg.certified_rank rather than rref: DENSE_COLUMNS columns or more, on
# an algebra whose torus grading has rank DENSE_GRADING or less.  Measured
# per block, in-process, each path timed with its walk, on a 2-core x86-64
# host with Python 3.11.7:
# - the dense gl(2|2) conjugate (grading rank 0, its ternary copy 1):
#   bs2's 344 x 64 block 60-76 ms by rref, 15 ms mod p; bs3's 1408 x 344
#   block 9.5 s and 1.1-1.5 s; ts2's 31811 x 847 block 40 s and 2-3.5 s;
#   the dense gl(2|1) conjugate: 140 x 60 (bs3) 27-49 ms and 21 ms, 2560 x
#   128 (ts2) 60-110 ms and 40-74 ms, 512 x 48 12-21 ms and 5-11 ms;
# - torus-graded documents, rank 2 and up: rref wins on the large blocks,
#   whose rows stay sparse, 16043 x 483 of the central-twist gl(2|2) ta2
#   in 0.18-0.23 s against 0.59 s mod p, and gl(2|1) ts3's 4818 x 408 in
#   0.14-0.22 s against 0.56 s;
# - blocks under 32 columns: rref is as fast or faster, 408 x 26 of gl(2|1)
#   ts2 in 5.5-8 ms against 6-7 ms.
# The row density does not separate the two: the 847-column block of the
# dense ts2 fills 2 % of its cells, the rref-friendly 483-column one 2.2 %.
DENSE_COLUMNS = 32
DENSE_GRADING = 1
_PARITY_LAW = "coboundaries need a bracket that keeps the parity law"
# per bracket arity, the verifiers of the identity and of multiplicativity,
# the two facts d^2 = 0 rests on: their "pass" verdicts, kept in the memo
# under each report's command, its verifier's name, prove it (_proved), and
# _escaped names the first one a broken algebra fails
_IDENTITIES = {2: (verify_hom_jacobi, verify_multiplicative),
               3: (verify_hom_nambu, verify_ternary_multiplicative)}


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


def _grading(obj) -> tuple:
    """(rank, weights) of obj's torus grading: the rank, how many vectors
    _weight_basis finds, and each basis element's weight, one int per
    element: its coordinates in that basis, one linalg.pack slot per
    basis vector, wide enough (linalg.slot_width) for a sum of up to eight
    values in a slot, so that the weights of a key's parts add up in one
    int sum, equal for two keys exactly when their weights are; every
    weight is 0 when the kernel is.  Solved once per algebra and kept in
    obj.memo under "grading"."""
    if "grading" not in obj.memo:
        basis = _weight_basis(obj)
        width = slot_width(8 * max(map(abs, chain.from_iterable(basis)),
                                   default=0))
        obj.memo["grading"] = (len(basis), tuple(
            pack(enumerate(v[i] for v in basis), width)
            for i in range(obj.dim)))
    return obj.memo["grading"]


def _weight_basis(obj) -> list:
    """A basis, as primitive int vectors over the basis elements, of the
    torus weights of obj, read off its document: linalg.kernel of the
    homogeneity equations, one int row e_m - e_i for each nonzero
    off-diagonal twist entry (m, i), a twist read as a bracket of one
    slot, and one row e_k - e_i1 - .. - e_in for each distinct (k, sorted
    slots) of a nonzero structure constant (a bracket key (i_1, .., i_n)
    and a coordinate k of its value).  The rows go to rref as they are
    made, in two passes over the constants in key order: the first
    coordinate of each constant, then the others.  The first pass thus
    meets every key before any key's second coordinate, and the read,
    which stops at full column rank, stops early on a dense conjugate;
    the matrix counts every equation with its repeats, the most rows it
    can yield.  An RREF basis vector has a lead 1, so clearing its
    denominators leaves it primitive."""
    dim = obj.space.dim
    constants = [((i,), col) for twist in obj.twists
                 for i, col in enumerate(twist.matrix.transpose().entries)]
    constants += obj.bracket.integer[1].items()

    def equations():
        seen = set()
        for cut in (slice(1), slice(1, None)):
            for slots, terms in constants:
                terms = terms[cut]
                if terms:
                    slots = sorted(slots)
                for k, _ in terms:
                    if slots != [k] and (k, *slots) not in seen:
                        seen.add((k, *slots))
                        row = {k: 1}
                        for i in slots:
                            row[i] = row.get(i, 0) - 1
                        yield sorted((c, x) for c, x in row.items() if x)

    count = sum(len(terms) for _, terms in constants)
    basis = []
    for v in kernel(Matrix(count, dim, equations())).vectors():
        d = integer_terms([enumerate(v)])[0]
        basis.append([int(d * x) for x in v])
    return basis


def _weight_groups(cx: str, degree: int, space: GradedSpace,
                   weights: tuple) -> tuple:
    """cochain_keys(cx, degree, space) grouped by label (q, w), q the sum
    of the key's part parities, mod 2, and w the sum of their weights
    (weights[i] for element i, see _grading), as (width, labels,
    prefixes, elements): the key at position b * width + z is prefix b
    followed by element z, and its label is the sum of theirs, the
    parities mod 2.  labels holds each prefix's label, prefixes maps each
    label to its prefixes, increasing, and elements holds each element's
    label.  A ternary key is its pair prefix and its element (width dim),
    labelled pair by pair without listing the keys; a binary key is a
    prefix alone (width 1, one element 0 of label (0, 0))."""
    _check_degree(cx, degree)
    p = space.parities
    if cx.startswith("binary"):
        labels = [(sum(map(p.__getitem__, key)) % 2,
                   sum(map(weights.__getitem__, key)))
                  for key in skew_basis(degree, space).tuples]
        width, elements = 1, [(0, 0)]
    else:
        pairs = [(p[i] ^ p[j], weights[i] + weights[j])
                 for i, j in skew_basis(2, space).tuples]
        labels = [(0, 0)]
        for _ in range(degree - 1):
            labels = [(q ^ r, w + v) for q, w in labels for r, v in pairs]
        width, elements = space.dim, list(zip(p, weights))
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
    there are, and a function each call of which iterates their positions
    in key order, listing no key before it is read: the block's prefixes
    in order, each followed by the elements that complete its label."""
    width, labels, prefixes, elements = groups
    q, w = label
    runs = {}  # prefix label -> the elements that complete it
    for z, (r, v) in enumerate(elements):
        if (q ^ r, w - v) in prefixes:
            runs.setdefault((q ^ r, w - v), []).append(z)

    def keys():
        for b in sorted(chain.from_iterable(map(prefixes.__getitem__, runs))):
            for z in runs[labels[b]]:
                yield b * width + z
    return sum(len(prefixes[pl]) * len(zs) for pl, zs in runs.items()), keys


def coordinate_parities(cx: str, degree: int, space: GradedSpace) -> tuple:
    """Per coordinate: argument-key parity, plus output parity for the
    adjoint complexes.  A cochain of parity |f| is supported exactly on the
    coordinates whose entry here equals |f|.  The key parities are the
    labels of _weight_groups under all-zero weights, in key order."""
    _, labels, _, elements = _weight_groups(cx, degree, space,
                                            (0,) * space.dim)
    keyp = [q ^ r for q, _ in labels for r, _ in elements]
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
            if not isinstance(c, (int, Fraction)):
                raise InputError(f"cochain coordinate {i} is not an exact "
                                 f"rational: {c!r}")
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
        if ((self.complex, self.degree, self.parity, self.space)
                != (other.complex, other.degree, other.parity, other.space)):
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


def _ds_rows(g: HomLieSuper, cx: str, degree: int) -> tuple:
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
            yield tuple(term for term in row if term[1])

    return Fraction(1, dw * da ** (degree - 1)), rows


def _leibniz_rows(t: TernaryHomLieSuper, cx: str, degree: int) -> tuple:
    """The Leibniz coboundary on fundamental objects, p = degree, i from 1:

      sum_{i<j} (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_j-1|)}
                f(aX_1, .., ^i, .., [X_i,X_j]_a in slot j, .., aX_p, a z)
      + sum_i (-1)^i (-1)^{|X_i|(|X_i+1| + .. + |X_p|)}
                f(aX_1, .., ^i, .., aX_p, X_i.z),

    aX = a x1 ^ a x2, [X,Y]_a = X.y1 ^ a y2 + (-1)^{|X||y1|} a y1 ^ X.y2,
    times 1/(D_W D_alpha^(2(p-1))): a term has one bracket, 2(p-1) twists.
    A walk works out the terms of a pair prefix X, and each bracket [X_i,
    X_j]_a, when a row (X, z) first needs them, and keeps them for every
    block it builds, whose rows (X, z) share X across weights; a row reads
    the element terms at its own z alone.
    """
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
        """[X_P, X_Q]_a."""
        q1, q2 = pairs[Q]
        act = acts[P]
        out = wedge_expand([act[q1], acols[q2]], table) if act[q1] else {}
        if act[q2]:
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
            yield tuple((c, x) for c, x in row.items() if x)

    # the ternary-adjoint delta2 is each scalar term times 1 + (-1)^{|f| e}
    scale = 2 if (cx, degree) == ("ternary-adjoint", 2) else 1
    return Fraction(scale, dw * da ** (2 * degree - 2)), rows


# (complex, degree) -> the builder of the value-free rows of the coboundary
# on that complex's degree-cochains, called as build(obj, cx, degree) and
# returning a walk (multiplier, rows): rows(row_keys, col_keys)
# yields, one at a time and in the order given, the integer row of each key
# position in row_keys, its columns numbered by their place in col_keys,
# and raises on a term outside them; an adjoint complex has its scalar
# complex's builder, whose rows an adjoint cochain reads once per output
_BUILDERS = {**{("binary-scalar", p): _ds_rows for p in (1, 2, 3)},
             **{("binary-adjoint", p): _ds_rows for p in (1, 2)},
             **{("ternary-scalar", p): _leibniz_rows for p in (1, 2, 3)},
             **{("ternary-adjoint", p): _leibniz_rows for p in (1, 2)}}
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


def _check(obj, cx: str, degree: int):
    """The builder of _BUILDERS for the cx coboundary on degree-cochains,
    once obj fits cx, the operator's row count is within
    MAX_COBOUNDARY_ROWS, obj's bracket keeps the parity law the blocks
    split by and its twists are equal (the Leibniz formula has one
    alpha); the checks read obj's shape and flags, and build nothing."""
    build = _BUILDERS.get((cx, degree)) if type(degree) is int else None
    if build is None:
        raise InputError(f"no coboundary for {cx} cochains of degree {degree!r}")
    if cx.startswith("ternary") != (obj.bracket.arity == 3):
        raise InputError(f"complex {cx} does not match the given algebra")
    n = _row_count(cx, degree, obj.space)
    if n > MAX_COBOUNDARY_ROWS:
        raise InputError(f"the {cx} coboundary of degree {degree} has "
                         f"{n} rows, over the cap of {MAX_COBOUNDARY_ROWS}")
    if not obj.bracket.super_skew and any(
            s is None for _, s, _ in obj.bracket.skew_breaks()):
        raise PreconditionError(_PARITY_LAW)
    if not obj.same_twists():
        raise PreconditionError("ternary cohomology needs alpha1 = alpha2")
    return build


def _walk(obj, cx: str, degree: int) -> tuple:
    """The walk (multiplier, rows) of _BUILDERS for the cx coboundary on
    degree-cochains, once _check passes.  What it caches lives as long as
    it."""
    return _check(obj, cx, degree)(obj, cx, degree)


def _blocks(obj, cx: str, degree: int) -> tuple:
    """(multiplier, groups, block) of one _walk, the one reader of the
    (q, w) blocks: groups is _weight_groups of the columns under obj's
    _grading, and block(label) is the block's row count, an iterator of
    its row keys, its column keys (an array) and an iterator of its rows,
    the row keys and rows in key order and each row built as it is read.
    Coboundaries keep parity and weight, so a row key of a label no column
    key has keys a zero row, never built; nothing outlives the walk."""
    multiplier, rows = _walk(obj, cx, degree)
    weights = _grading(obj)[1]
    row_groups = _weight_groups(_scalar(cx), degree + 1, obj.space, weights)
    groups = _weight_groups(cx, degree, obj.space, weights)

    def block(label):
        count, row_keys = _block(row_groups, label)
        col_keys = array("q", _block(groups, label)[1]())
        return count, row_keys(), col_keys, rows(row_keys(), col_keys)
    return multiplier, groups, block


def coboundary_matrix(obj, cx: str, degree: int) -> Matrix:
    """The cx coboundary of degree-cochains, on full cochain coordinates:
    each (q, w) block's rows placed at their row keys, their columns
    sorted (a builder yields them in any order) and mapped back through
    its column keys, which increase, times the multiplier, and applied
    once per output o, so key column j moves to j*dim + o.  The rows of a
    label no column has are ()."""
    multiplier, groups, block = _blocks(obj, cx, degree)
    dim = _width(cx, obj.space)
    entries = [()] * (_row_count(cx, degree, obj.space) * dim)
    for label in _block_labels(groups):
        _, row_keys, col_keys, rows = block(label)
        for i, row in zip(row_keys, rows):
            row = sorted(row)
            entries[i * dim:(i + 1) * dim] = (
                tuple((col_keys[j] * dim + o, multiplier * x)
                      for j, x in row) for o in range(dim))
    return Matrix(len(entries), len(groups[1]) * groups[0] * dim,
                  tuple(entries))


def _apply(obj, cx: str, degree: int, batch) -> list:
    """[coboundary_matrix(obj, cx, degree).apply(coords) for coords
    in batch], each as {coordinate: Fraction} of its nonzero values, from
    one walk: each cochain is cleared of denominators once (by its D), only
    the blocks of its nonzero keys' labels (q, w) are streamed, and each
    row is applied to the whole batch, summed in ints keyed by cochain *
    dim + output, each nonzero sum times multiplier / D once."""
    if not batch:
        return []
    multiplier, (width, labels, _, elements), block = _blocks(obj, cx, degree)
    dim = _width(cx, obj.space)
    if any(len(coords) != len(labels) * width * dim for coords in batch):
        raise InputError("vector length mismatch in apply")
    scales = []
    at = {}  # label -> {key position: [(cochain * dim + output, integer)]}
    for n, coords in enumerate(batch):
        d, (terms,) = integer_terms([enumerate(coords)])
        scales.append(multiplier / d)
        for j, x in terms:
            key, o = divmod(j, dim)
            b, z = divmod(key, width)
            (q, w), (r, v) = labels[b], elements[z]
            at.setdefault((q ^ r, w + v), {}).setdefault(key, []).append(
                (n * dim + o, x))
    out = [{} for _ in batch]
    for label, keys in at.items():
        _, row_keys, col_keys, rows = block(label)
        cols = [keys.get(j, ()) for j in col_keys]  # block column -> pairs
        for i, row in zip(row_keys, rows):
            sums = {}
            for c, x in row:
                for k, y in cols[c]:
                    sums[k] = sums.get(k, 0) + x * y
            for k, s in sums.items():
                if s:
                    n, o = divmod(k, dim)
                    out[n][i * dim + o] = s * scales[n]
    return out


def _applied(obj, cochains) -> list:
    """(index, _apply's nonzero outputs) of each cochain, by shape: one
    _apply, so one walk, per complex and degree.  A cochain on another
    space than obj's is an input error, raised before any walk."""
    batches = {}
    for n, c in enumerate(cochains):
        if c.space != obj.space:
            raise InputError("cochain of another algebra")
        batches.setdefault((c.complex, c.degree), []).append(n)
    return [pair for shape, ns in batches.items() for pair in zip(
        ns, _apply(obj, *shape, [cochains[n].coords for n in ns]))]


def apply_coboundaries(obj, cochains) -> list:
    """The coboundary of each cochain, in order, from one walk per complex
    and degree: the one place a coboundary value becomes dense."""
    out = [None] * len(cochains)
    for n, values in _applied(obj, cochains):
        c = cochains[n]
        length = cochain_length(c.complex, c.degree + 1, c.space)
        out[n] = Cochain(c.complex, c.degree + 1, c.parity, c.space,
                         tuple(values.get(i, ZERO) for i in range(length)))
    return out


def _first_nonzero(obj, cochains: list) -> int:
    """The index of the first cochain whose coboundary on obj is nonzero,
    or len(cochains), from one walk per complex and degree."""
    return min((n for n, out in _applied(obj, cochains) if out),
               default=len(cochains))


def _served(cx: str, space: GradedSpace, parity: int) -> dict:
    """Key parity q -> the outputs at which the cx cochains of this parity
    live on the keys of parity q.  A scalar cochain of parity f lives on
    the keys of parity f, at its one output.  The adjoint lift is
    block-diagonal across the output o, so output o sees the keys of
    parity f + |o|, and a block is eliminated once however many outputs
    it serves."""
    served = {}
    for o, po in enumerate(space.parities if _width(cx, space) > 1 else (0,)):
        served.setdefault((parity + po) % 2, []).append(o)
    return served


def cocycles(obj, cx: str, degree: int, parity: int) -> list:
    """A basis of the cx cocycles of this degree and parity as full
    coordinate tuples: per key parity q, each (q, w) block's RREF kernel
    basis, its rows handed to rref as they are built, and the union
    sorted by lead column, which is the RREF kernel basis of the parity-q
    block, placed at every output it serves."""
    _, groups, block = _blocks(obj, cx, degree)
    served = _served(cx, obj.space, parity)
    dim = _width(cx, obj.space)
    n = cochain_length(cx, degree, obj.space)
    out = []
    for q, labels in groupby(_block_labels(groups), itemgetter(0)):
        if q not in served:
            continue
        vectors = []
        for label in labels:
            count, _, col_keys, rows = block(label)
            z = kernel(Matrix(count, len(col_keys), rows))
            vectors += [tuple((col_keys[c], x) for c, x in v)
                        for v in z.basis.entries]
        for v in sorted(vectors):
            for o in served[q]:
                full = [ZERO] * n
                for j, x in v:
                    full[j * dim + o] = x
                out.append(tuple(full))
    return out


def binary_adjoint_cocycle_space(g: HomLieSuper, parity: int) -> Subspace:
    """The cyclic cocycles among the g-valued 2-cochains of this parity."""
    return Subspace.from_vectors(cochain_length("binary-adjoint", 2, g.space),
                                 cocycles(g, "binary-adjoint", 2, parity))


def _adapted(obj, cx: str, degree: int) -> tuple:
    """The algebra that walks the cx coboundary on degree-cochains, once
    _check passes on obj, the document, as (algebra, s): obj's copy in a
    basis adapted to the hyperplane its ternary bracket's image spans,
    and s, the even basis change to it (its columns the new basis), or
    (obj, None).  The one owner of the basis rule: obj serves below
    degree 2, and whenever the copy grades no finer.  An induced bracket
    has its image in [g, g], inside ker tau, so an image that is a
    hyperplane is ker tau and its normal phi, one linalg.kernel, is tau
    up to scale; the image [g, g, g] is graded.image, the first term of
    both series, kept in obj's memo.  On an even phi and a super_skew
    bracket, a complement u of ker phi and any basis of ker phi give [K,
    K, K] = 0 and [u, u, .] = 0, so u of weight 1 and K of weight -1 is
    one more grading when the twist alpha (_check refused unequal ones)
    keeps span(u) and K.  alpha keeps K exactly when phi o alpha = c phi,
    and then alpha keeps span(u) exactly when alpha u = c u, so u is the
    first RREF basis vector of ker(alpha - c id) with phi(u) != 0, and s
    has u as column j, u's lead, and e_i - (phi_i / phi(u)) u, in K, as
    every other column i.  For alpha = id, or a diagonal twist, u is a
    basis element e_u and s the identity but row u.  Both are read off the
    document before any transport; when phi o alpha is no multiple of phi
    or every such eigenvector lies in K, obj serves; otherwise the copy is
    kept when its _grading rank is higher than obj's.  s is even, as phi
    and alpha are, so no dim and no zero test changes.  Each algebra's
    grading is solved once, in its own memo; the copy is not memoized,
    and no verdict is read off it (_proved reads obj's)."""
    _check(obj, cx, degree)
    dim = obj.dim
    if degree < 2 or obj.bracket.arity != 3 or not obj.bracket.super_skew:
        return obj, None
    hyperplane = image(obj)
    if hyperplane.dim != dim - 1:
        return obj, None
    phi = kernel(hyperplane.basis).vectors()[0]
    if any(x for x, odd in zip(phi, obj.space.parities) if odd):
        return obj, None
    alpha = obj.twists[0].matrix
    composed = alpha.transpose().apply(phi)  # phi o alpha
    lead = next(j for j, x in enumerate(phi) if x)
    c = composed[lead] / phi[lead]
    if vec_scale(c, phi) != composed:
        return obj, None
    eigen = kernel(alpha.add(Matrix.identity(dim).scale(-c))).basis.entries
    u = next((u for u in eigen if sum(phi[i] * x for i, x in u)), None)
    if u is None:
        return obj, None
    phi_u, j = sum(phi[i] * x for i, x in u), u[0][0]
    rows = [((i, ONE),) for i in range(dim)]  # s, by rows
    for r, x in u:
        row = {i: -y * x / phi_u for i, y in enumerate(phi) if y}
        row[r] = row.get(r, ZERO) + ONE
        row[j] = x
        rows[r] = tuple(sorted((i, y) for i, y in row.items() if y))
    s = Matrix(dim, dim, tuple(rows))
    moved = change_of_basis(obj, s)
    return (moved, s) if _grading(moved)[0] > _grading(obj)[0] else (obj, None)


def _squared_zero(obj, rows, zero):
    """The rows, each checked as it is read to have a zero product with
    the columns of the coboundary below (zero, a linalg.orthogonal_test
    of them): a row that fails is d^2 != 0, raised as _escaped(obj)."""
    for row in rows:
        if not zero(row):
            raise _escaped(obj)
        yield row


def _proved(obj) -> bool:
    """Whether d^2 = 0 on obj's complexes is on record: obj's bracket is
    super_skew and the verdicts of both _IDENTITIES, its identity's and
    its multiplicativity's, are "pass" in its memo.  With the twists
    equal, which _check makes sure of, d^2 = 0 follows from these
    (Ammar-Makhlouf, J. Algebra 324 (2010); Ammar-Mabrouk-Makhlouf, J.
    Geom. Phys. 61 (2011)).  No verdict, a "fail" or a "not-applicable"
    proves nothing."""
    return obj.bracket.super_skew and all(
        obj.memo.get(verify.__name__) == "pass"
        for verify in _IDENTITIES[obj.bracket.arity])


def _dense(obj, cols: int) -> bool:
    """Whether a block of cols columns of obj's coboundary is dense, so
    its rank comes from linalg.certified_rank: DENSE_COLUMNS columns or
    more, on an algebra whose _grading rank is at most DENSE_GRADING."""
    return cols >= DENSE_COLUMNS and _grading(obj)[0] <= DENSE_GRADING


def _escaped(obj) -> PreconditionError:
    """The error of a coboundary whose image leaves the cocycles, d^2 !=
    0: d^2 = 0 rests on the Hom-Jacobi (binary) or Hom-Nambu (ternary)
    identity and on a multiplicative twist, so the error names the first
    of these obj breaks, as the verifiers check them in that order, with
    its first witness."""
    for verify in _IDENTITIES[obj.bracket.arity]:
        for f in verify(obj).findings:
            if f.status == "fail":
                return PreconditionError(
                    f"coboundary escaped the cocycle space: the algebra "
                    f"breaks {f.check} at ({', '.join(f.witness)})")
    return PreconditionError("coboundary escaped the cocycle space")


def cohomology_dims(obj, cx: str, degree: int) -> tuple:
    """(dim Z, dim B, dim H) on the even-parity cochains, in a degree whose
    coboundary is an entry of _BUILDERS (so is the one below it, every
    complex's degrees running from 1), counted by ranks, each block's once
    per output it serves; no Subspace is built.  Per (q, w) block A, with
    L the rows the coboundary below builds at A's column keys:
    - b = dim B = rank(L), exact (linalg.rank);
    - d^2 = 0, so rank(A) <= cols - b, has one of two sources.  When
      _proved(obj) holds, the identity and multiplicativity verdicts on
      record prove it, and no row is tested.  Otherwise it is an int test
      on every row of A: its packed product with L's columns
      (linalg.orthogonal_test) is 0; a row that fails it is a
      PreconditionError naming the identity obj breaks (_escaped);
    - Z = cols - rank(A): linalg.certified_rank on a _dense block, rank
      on the others, each reading A's rows as they are built.  On a
      proved algebra both stop at the row that brings the rank to cols -
      b; otherwise rank stops only at full column rank, where b must be
      0, and the d^2 test reads the rows past certified_rank's stop.
    Each degree's keys are grouped once, each operator is walked once,
    bar the second walk of a dense block whose rank mod p needs its
    kernel lifted, and no row of A is kept.  Both operators are walked on
    the algebra _adapted(obj, cx, degree) returns, which checks the
    operator on obj first: the copy in an adapted basis above degree 1,
    when it grades more finely, or obj itself; the dims are the same on
    either, and the verdicts are read on obj."""
    used = _adapted(obj, cx, degree)[0]
    proved = _proved(obj)
    _, groups, upper = _blocks(used, cx, degree)
    if degree > 1:
        lower = _walk(used, cx, degree - 1)[1]
        below = _weight_groups(cx, degree - 1, used.space,
                               _grading(used)[1])
    served = _served(cx, obj.space, 0)
    zdim = bdim = 0
    for label in _block_labels(groups):
        if label[0] not in served:
            continue
        count, _, col_keys, rows = upper(label)
        cols = len(col_keys)
        low = array("q", _block(below, label)[1]()) if degree > 1 else ()
        lows = Matrix(cols, len(low),
                      tuple(lower(col_keys, low)) if low else ((),) * cols)
        b = rank(lows)
        tested = b and not proved
        if tested:
            rows = _squared_zero(obj, rows, orthogonal_test(lows.entries))
        a = Matrix(count, cols, rows)
        if _dense(used, cols):
            r = certified_rank(a, lows.transpose().entries, b,
                               lambda: upper(label)[3])
        else:
            r = rank(a, cols - b if proved else cols)
        if r == cols and b:
            raise _escaped(obj)
        if tested:
            for _ in rows:  # the rows past the rank, for the d^2 test
                pass
        zdim += len(served[label[0]]) * (cols - r)
        bdim += len(served[label[0]]) * b
    return (zdim, bdim, zdim - bdim)


def bracket_cochain(g: HomLieSuper) -> Cochain:
    """The bracket packaged as an even g-valued 2-cochain."""
    sb2 = skew_basis(2, g.space)
    values = {t: g.bracket.value(t[0], t[1]) for t in sb2.tuples}
    return make_cochain("binary-adjoint", 2, g.space, values, parity=0)


def is_binary_cocycle(g: HomLieSuper, phi: Cochain) -> bool:
    if phi.degree != 2:
        raise InputError("cocycle test expects degree 2")
    if not phi.complex.startswith("binary"):
        raise InputError("cocycle test expects a binary cochain")
    return _first_nonzero(g, [phi]) == 1


def induce_cocycle(g: HomLieSuper, tau: TraceFunctional, phis,
                   t: TernaryHomLieSuper) -> list:
    """Transfer binary 2-cocycles to t, the algebra induced from (g, tau):
    one induced cochain per cochain of phis, in order.

    phi_rho(X, z) is reps.TraceFunctional.induce of phi on the (pair,
    element) keys, read off an ordered view of phi: its values cleared of
    denominators (D) once, as integer rows on the canonical pairs, and
    mapped (linalg.map_terms) through e_a ^ e_b for every ordered pair
    (a, b); the result is divided by D_tau D.  Each check runs once on
    the whole batch, in order, and the first that fails raises: shapes
    and algebra, before any coboundary is walked; the binary cocycle
    test, in one walk; then, when phis is not empty, tau o alpha = tau, t
    on g's space (an InputError, as _applied raises it), _adapted's
    checks of the ternary delta2, and the delta2 zero test of the induced
    cochains, in one walk.  The cochains returned are in the document
    basis.  When _adapted returns a copy and s, the zero test, which no
    even change of basis alters, runs on the copy: each phi is induced
    once more, its rows mapped through s e_a ^ s e_b (s's integer
    columns, D_s s) and read with tau o s, which gives D_s^2 psi(s., s.,
    s.) of the returned psi.  An adjoint delta2 reads each output apart,
    so its values stay in the document basis.
    """
    if any(phi.degree != 2 or not phi.complex.startswith("binary")
           for phi in phis):
        raise PreconditionError("induce_cocycle expects a binary 2-cochain")
    if any(phi.space != g.space for phi in phis):
        raise PreconditionError("cochain of another algebra")
    if _first_nonzero(g, phis) < len(phis):
        raise PreconditionError("induce_cocycle expects a 2-cocycle")
    if not phis:
        return []
    if trace_mismatches(tau, g.alpha):
        raise PreconditionError("trace functional is not twist invariant")
    if t.space != g.space:
        raise InputError("cochain of another algebra")
    used, s = _adapted(t, phis[0].complex.replace("binary", "ternary"), 2)
    keys = {(x1, x2, k): i for i, ((x1, x2), k)
            in enumerate(cochain_keys("ternary-scalar", 2, g.space))}
    table = wedge_table(2, g.space, skew_basis(2, g.space).index)

    def induce(cols, tau):
        """The induced cochain of each phi at the basis of the integer
        columns cols, tau the functional at that basis."""
        pairs = {(a, b): tuple(wedge_expand([x, y], table).items())
                 for (a, x), (b, y) in product(enumerate(cols), repeat=2)}
        out = []
        for phi in phis:
            width = _width(phi.complex, g.space)
            d, rows = integer_terms(enumerate(phi.coords[i:i + width])
                                    for i in range(0, len(phi.coords), width))
            view = map_terms(pairs, rows)  # (a, b) -> D phi(col a, col b)
            dt, rho = tau.induce(lambda a, b: view.get((a, b), ()), keys)
            coords = [ZERO] * (len(keys) * width)
            for key, terms in rho.items():
                for m, x in terms:
                    coords[keys[key] * width + m] = Fraction(x, dt * d)
            out.append(Cochain(phi.complex.replace("binary", "ternary"), 2,
                               phi.parity, g.space, tuple(coords)))
        return out

    induced = induce([((i, 1),) for i in range(g.dim)], tau)
    tested = induced if s is None else induce(
        integer_terms(s.transpose().entries)[1],
        TraceFunctional(g, s.transpose().apply(tau.values)))
    if _first_nonzero(used, tested) < len(tested):
        raise PreconditionError("induced cochain is not a ternary cocycle")
    return induced


def verify_1cocycle_transfer(g: HomLieSuper, tau: TraceFunctional,
                             t: TernaryHomLieSuper) -> Report:
    """Scalar 1-cocycles of g annihilate the induced triple brackets: each
    cocycle w, cleared of denominators (D), summed in ints against the
    stored entries of t's integer view at every canonical triple, and a
    nonzero sum divided by D_t D into the residual it reports."""
    rep = Report("verify_1cocycle_transfer")
    ker = kernel(coboundary_matrix(g, "binary-scalar", 1))
    dt, view = t.bracket.integer
    triples = skew_basis(3, g.space).tuples
    rep.metrics["cocycle_space_dim"] = ker.dim
    for w in ker.vectors():
        d, (terms,) = integer_terms([enumerate(w)])
        w = dict(terms)
        for key in triples:
            val = sum(w.get(m, 0) * x for m, x in view.get(key, ()))
            if val:
                rep.fail("induced-1cocycle",
                         witness=tuple(g.space.names[i] for i in key),
                         residual=(fmt_scalar(Fraction(val, dt * d)),))
    rep.metrics["triples_checked"] = len(triples) * ker.dim
    return rep


def _mismatches(name: str, check: str, space: GradedSpace, lhs: dict,
                rhs: dict, **metrics) -> Report:
    """A Report name with these metrics and one failure per coordinate
    where the ternary-scalar 2-cochain maps lhs and rhs differ, in order,
    witnessed by its key's three basis names."""
    rep = Report(name)
    keys = cochain_keys("ternary-scalar", 2, space)
    for i in sorted(lhs.keys() | rhs.keys()):
        (pair, k), a, b = keys[i], lhs.get(i, ZERO), rhs.get(i, ZERO)
        if a != b:
            rep.fail(check, witness=tuple(space.names[m] for m in (*pair, k)),
                     residual=(fmt_scalar(a - b),))
    rep.metrics.update(metrics)
    return rep


def verify_cochain_transfer(g: HomLieSuper, tau: TraceFunctional, omegas,
                            pairs, t: TernaryHomLieSuper) -> tuple:
    """(lemma reports, class reports) on t, the algebra induced from (g,
    tau), one Report per cochain of omegas and one per (phi1, phi2) of
    pairs.  The lemma: delta_rho^1(omega) = (d_s^1 omega)_rho,
    coordinatewise.  The class transfer: cohomologous binary scalar
    2-cocycles induce cohomologous cochains, via the same connecting
    1-cochain.  Each stage runs once over both batches, in order, and the
    first check that fails raises: shapes and algebra, before any
    coboundary is walked; one induce_cocycle of every d_s^1 omega and
    every phi; one solve for the connecting cochain per pair; then one
    ternary delta1 of the omegas and the connecting cochains."""
    phis = [phi for pair in pairs for phi in pair]
    if any((om.complex, om.degree) != ("binary-scalar", 1) for om in omegas):
        raise PreconditionError("lemma identity expects a scalar 1-cochain")
    if any((phi.complex, phi.degree) != ("binary-scalar", 2) for phi in phis):
        raise PreconditionError("class transfer expects binary scalar "
                                "2-cochains")
    if any(c.space != g.space for c in chain(omegas, phis)):
        raise PreconditionError("cochain of another algebra")
    psis = induce_cocycle(g, tau, apply_coboundaries(g, omegas) + phis, t)
    d1 = coboundary_matrix(g, "binary-scalar", 1) if phis else None
    connecting = [solve(d1, vec_add(b.coords, vec_scale(-1, a.coords)))
                  for a, b in zip(phis[::2], phis[1::2])]
    if None in connecting:
        raise PreconditionError("cocycles are not cohomologous")
    n = len(omegas)
    lhs = _apply(t, "ternary-scalar", 1,
                 [om.coords for om in omegas] + connecting)
    lemma = [_mismatches("verify_lemma_identity", "lemma-identity", g.space,
                         left, dict(enumerate(psi.coords)),
                         coordinates=len(psi.coords))
             for left, psi in zip(lhs[:n], psis[:n])]
    classes = [_mismatches("verify_class_transfer", "class-transfer",
                           g.space, dict(enumerate(vec_add(
                               b.coords, vec_scale(-1, a.coords)))), right,
                           connecting_cochain=[fmt_scalar(c) for c in omega])
               for a, b, right, omega in zip(psis[n::2], psis[n + 1::2],
                                             lhs[n:], connecting)]
    return lemma, classes
