"""Exact linear algebra over the rationals.

Everything runs on fractions.Fraction: no floats, no tolerances, no
normalization surprises.  Two immutable matrix types share one surface
(rows, cols, entries, apply, mul, is_zero, select, transpose): Matrix
holds dense row-major tuples, for structure maps and other small
matrices; SparseMatrix holds only the nonzero (column, value) pairs of
each row, for the coboundary matrices, which are almost all zeros.

All elimination runs through rref, a sparse pivot-table Gauss-Jordan that
never visits a zero entry; rank, kernel, image, solve, invert and
Subspace read its result.  Subspaces are stored as reduced row echelon
bases with zero rows dropped, so structural equality is canonical
equality.
"""

from dataclasses import dataclass
from fractions import Fraction


class InputError(ValueError):
    """Malformed input data (schemas, non-canonical keys, parity violations)."""


class PreconditionError(ValueError):
    """An operation's documented precondition failed; carries a witness."""


Vec = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


def vec(items) -> Vec:
    return tuple(frac(x) for x in items)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def integer_terms(vectors):
    """(D, terms): D the least positive integer with D * x integral for
    every entry x of every vector, and per vector the (index, D * x) pairs
    of its nonzero entries, as Python ints."""
    vectors = list(vectors)
    d = 1
    for v in vectors:
        for x in v:
            q = x.denominator
            if d % q:
                d *= Fraction(d, q).denominator
    return d, [tuple((m, x.numerator * (d // x.denominator))
                     for m, x in enumerate(v) if x) for v in vectors]


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @staticmethod
    def build(rows_iterable) -> "Matrix":
        rows = tuple(vec(r) for r in rows_iterable)
        if not rows:
            return Matrix(0, 0, ())
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise InputError("ragged matrix rows")
        return Matrix(len(rows), ncols, rows)

    @staticmethod
    def zero(r: int, c: int) -> "Matrix":
        return Matrix(r, c, tuple(zero_vec(c) for _ in range(r)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vec(n, i) for i in range(n)))

    @staticmethod
    def from_columns(cols, nrows: int) -> "Matrix":
        cols = [vec(c) for c in cols]
        return Matrix.build([[c[i] for c in cols] for i in range(nrows)])

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            acc = out[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = other.entries[k]
                for j, b in enumerate(orow):
                    if b != 0:
                        acc[j] += a * b
        return Matrix(self.rows, other.cols, tuple(tuple(r) for r in out))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise InputError("vector length mismatch in apply")
        out = [ZERO] * self.rows
        for j, x in enumerate(v):
            if x == 0:
                continue
            for i in range(self.rows):
                e = self.entries[i][j]
                if e != 0:
                    out[i] += e * x
        return tuple(out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch in sum")
        return Matrix(self.rows, self.cols,
                      tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols,
                      tuple(vec_scale(c, r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def select(self, row_idx, col_idx) -> "Matrix":
        rows = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return Matrix(len(row_idx), len(col_idx), rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))


@dataclass(frozen=True)
class SparseMatrix:
    """Exact matrix held as rows of (column, value) pairs, columns
    increasing and values nonzero, so equal matrices compare equal."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of (column, value) pairs

    @staticmethod
    def build(row_dicts, ncols: int) -> "SparseMatrix":
        """From one dict of column -> value per row; zero values drop out."""
        entries = tuple(tuple(sorted((c, x) for c, x in r.items() if x))
                        for r in row_dicts)
        return SparseMatrix(len(entries), ncols, entries)

    @staticmethod
    def from_dense(m: Matrix) -> "SparseMatrix":
        return SparseMatrix(m.rows, m.cols,
                            tuple(tuple((j, x) for j, x in enumerate(r) if x)
                                  for r in m.entries))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise InputError("vector length mismatch in apply")
        return tuple(sum((x * v[c] for c, x in row), ZERO)
                     for row in self.entries)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        out = []
        for row in self.entries:
            acc = {}
            for k, a in row:
                for j, b in other.entries[k]:
                    acc[j] = acc.get(j, ZERO) + a * b
            out.append(acc)
        return SparseMatrix.build(out, other.cols)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def select(self, row_idx, col_idx) -> "SparseMatrix":
        """Rows row_idx and distinct columns col_idx, in the given orders,
        by renumbering the stored columns; no zero is materialised."""
        pos = {j: n for n, j in enumerate(col_idx)}
        rows = tuple(tuple(sorted((pos[c], x) for c, x in self.entries[i]
                                  if c in pos)) for i in row_idx)
        return SparseMatrix(len(row_idx), len(col_idx), rows)

    def transpose(self) -> "SparseMatrix":
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for c, x in row:
                cols[c].append((i, x))
        return SparseMatrix(self.cols, self.rows, tuple(map(tuple, cols)))


def _pairs(m) -> tuple:
    """m's rows as (column, value) pairs with the zeros left out."""
    return m.entries if isinstance(m, SparseMatrix) else \
        SparseMatrix.from_dense(m).entries


def _add_multiple(row: dict, f, other: dict) -> None:
    """row += f * other on sparse rows, dropping entries that cancel."""
    for c, x in other.items():
        y = row.get(c)
        if y is None:
            row[c] = f * x
        else:
            y += f * x
            if y:
                row[c] = y
            else:
                del row[c]


def rref(m) -> Matrix:
    """Reduced row echelon form of a dense or sparse m, as a dense Matrix of
    m's shape: unique, zero rows pushed to the bottom.

    The one elimination routine.  Pivot rows are dicts of column ->
    Fraction, keyed by their lead column.  Each row of m is reduced by the
    pivot rows so far; a nonzero remainder is scaled to lead 1 at its first
    column and subtracted from every earlier pivot row that has an entry
    there.  So every pivot row starts at its own column and vanishes on
    every other pivot column, which makes the table the RREF whatever the
    row order, and no zero entry is ever visited.
    """
    table = {}
    for pairs in _pairs(m):
        if len(table) == m.cols:
            break  # full column rank: every further row reduces to zero
        row = dict(pairs)
        for c in [c for c in row if c in table]:
            # pivot rows vanish on each other's columns, so row[c] is
            # untouched by the earlier subtractions
            _add_multiple(row, -row[c], table[c])
        if not row:
            continue
        lead = min(row)
        inv = row[lead]
        if inv != 1:
            row = {c: x / inv for c, x in row.items()}
        for prow in table.values():
            f = prow.get(lead)
            if f is not None:
                _add_multiple(prow, -f, row)
        table[lead] = row
    nc = m.cols
    dense = [tuple(table[p].get(j, ZERO) for j in range(nc))
             for p in sorted(table)]
    dense += [zero_vec(nc)] * (m.rows - len(table))
    return Matrix(m.rows, nc, tuple(dense))


def _pivots(r: Matrix) -> list:
    """(lead column, row) of every nonzero row of the dense RREF r."""
    out, lead = [], 0
    for row in r.entries:
        while lead < r.cols and row[lead] == 0:
            lead += 1
        if lead == r.cols:
            break  # the zero rows
        out.append((lead, row))
        lead += 1
    return out


def rank(m) -> int:
    return len(_pivots(rref(m)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as an RREF basis; equality is set equality."""

    ambient_dim: int
    basis: Matrix  # RREF with no zero rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = tuple(vec(v) for v in vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        return Subspace.spanned_by_rows(Matrix(len(vectors), ambient_dim, vectors))

    @staticmethod
    def spanned_by_rows(m) -> "Subspace":
        """The row space of a dense or sparse m."""
        keep = tuple(row for _, row in _pivots(rref(m)))
        return Subspace(m.cols, Matrix(len(keep), m.cols, keep))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self):
        return list(self.basis.entries)

    def contains(self, v: Vec) -> bool:
        """In an RREF basis the only candidate combination for v takes
        v's entry at each lead column as that row's coefficient."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        w = [ZERO] * self.ambient_dim
        for lead, row in _pivots(self.basis):
            c = v[lead]
            if c:
                for j, x in enumerate(row):
                    if x:
                        w[j] += c * x
        return tuple(w) == v

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)


def image(m) -> Subspace:
    """Column space of m, presented as vectors in K^rows."""
    return Subspace.spanned_by_rows(m.transpose())


def kernel(m) -> Subspace:
    """Right null space of m."""
    pivots = _pivots(rref(m))
    leads = {p for p, _ in pivots}
    basis = []
    for f in range(m.cols):
        if f in leads:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for p, row in pivots:
            v[p] = -row[f]
        basis.append(tuple(v))
    return Subspace.from_vectors(m.cols, basis)


def solve(m, b: Vec):
    """One exact solution of m x = b, or None.

    Free coordinates are pinned to zero, which makes the answer deterministic.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise InputError("right-hand side length mismatch")
    n = m.cols
    aug = SparseMatrix(m.rows, n + 1, tuple(
        row + ((n, bi),) if bi else row for row, bi in zip(_pairs(m), b)))
    x = [ZERO] * n
    for lead, row in _pivots(rref(aug)):
        if lead == n:
            return None  # inconsistent: pivot in the augmented column
        x[lead] = row[n]
    return tuple(x)


def invert(m):
    """Exact inverse, or None when m is singular."""
    if m.rows != m.cols:
        return None
    n = m.rows
    aug = SparseMatrix(n, 2 * n, tuple(
        row + ((n + i, ONE),) for i, row in enumerate(_pairs(m))))
    r = rref(aug)
    for i in range(n):
        if r.entries[i][i] != 1:
            return None
    return Matrix(n, n, tuple(r.entries[i][n:] for i in range(n)))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of [A^T | -B^T]."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch in intersection")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    rows = []
    for i in range(n):
        rows.append([a.basis.entries[r][i] for r in range(a.dim)]
                    + [-b.basis.entries[r][i] for r in range(b.dim)])
    ker = kernel(Matrix.build(rows))
    vecs = []
    for w in ker.basis.entries:
        x = [ZERO] * n
        for r in range(a.dim):
            if w[r] != 0:
                x = [xi + w[r] * ai for xi, ai in zip(x, a.basis.entries[r])]
        vecs.append(tuple(x))
    return Subspace.from_vectors(n, vecs)

