"""Exact dense linear algebra over the rationals.

Everything runs on fractions.Fraction: no floats, no tolerances, no
normalization surprises.  Matrices are immutable row-major tuples.
Subspaces are stored as reduced row echelon bases with zero rows dropped,
so structural equality is canonical equality.
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


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; unique, zero rows pushed to the bottom."""
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    piv = 0
    for col in range(nc):
        if piv == nr:
            break
        pivot = next((r for r in range(piv, nr) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[piv], rows[pivot] = rows[pivot], rows[piv]
        inv = rows[piv][col]
        if inv != 1:
            rows[piv] = [x / inv for x in rows[piv]]
        for r in range(nr):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
        piv += 1
    return Matrix(nr, nc, tuple(tuple(r) for r in rows))


def rank(m: Matrix) -> int:
    r = rref(m)
    return sum(1 for row in r.entries if not is_zero_vec(row))


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as an RREF basis; equality is set equality."""

    ambient_dim: int
    basis: Matrix  # RREF with no zero rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        if not vectors:
            return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))
        red = rref(Matrix.build(vectors))
        keep = [r for r in red.entries if not is_zero_vec(r)]
        return Subspace(ambient_dim, Matrix(len(keep), ambient_dim, tuple(keep)))

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
        v = list(vec(v))
        for row in self.basis.entries:
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is not None and v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return all(a == 0 for a in v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)


def image(m: Matrix) -> Subspace:
    """Column space of m, presented as vectors in K^rows."""
    return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])


def kernel(m: Matrix) -> Subspace:
    """Right null space of m."""
    r = rref(m)
    pivots = {}
    for i, row in enumerate(r.entries):
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None:
            pivots[lead] = i
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for p, i in pivots.items():
            v[p] = -r.entries[i][f]
        basis.append(tuple(v))
    return Subspace.from_vectors(m.cols, basis)


def solve(m: Matrix, b: Vec):
    """One exact solution of m x = b, or None.

    Free coordinates are pinned to zero, which makes the answer deterministic.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise InputError("right-hand side length mismatch")
    aug = Matrix.build([list(row) + [bi] for row, bi in zip(m.entries, b)]) \
        if m.rows else Matrix(0, m.cols + 1, ())
    r = rref(aug)
    x = [ZERO] * m.cols
    for row in r.entries:
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        if lead == m.cols:
            return None  # inconsistent: pivot in the augmented column
        x[lead] = row[m.cols]
    return tuple(x)


def invert(m: Matrix):
    """Exact inverse, or None when m is singular."""
    if m.rows != m.cols:
        return None
    n = m.rows
    aug = Matrix.build([list(m.entries[i]) + list(unit_vec(n, i)) for i in range(n)])
    r = rref(aug)
    for i in range(n):
        if r.entries[i][i] != 1:
            return None
    return Matrix.build([r.entries[i][n:] for i in range(n)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch in subspace sum")
    return Subspace.from_vectors(a.ambient_dim,
                                 list(a.basis.entries) + list(b.basis.entries))


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


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    return a == b


def submatrix(m: Matrix, row_idx, col_idx) -> Matrix:
    """Select rows and columns by index lists, preserving order."""
    rows = tuple(tuple(m.entries[i][j] for j in col_idx) for i in row_idx)
    return Matrix(len(row_idx), len(col_idx), rows)
