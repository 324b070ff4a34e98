"""Small dense exact linear algebra: one Gauss-Jordan kernel for every ring.

Matrices are lists of rows.  The kernel is generic over the element ring
(``Fraction``, the rational functions ``hecke.RatFunc``, the truncated
``TimesSeries``); an element must support ``+``, ``-`` (binary and unary)
and ``*``, and its truth value must be False exactly for zero.  The caller
passes ``inverse`` (default ``1 / x``, for ``Fraction``).  ``rref``, ``det``
and ``echelon`` are views of that kernel; ``echelon`` gives the reduced
basis of the span of sparse vectors {key: entry}, which is how window
frames, flag members and the q-wedge quotient are stored, and
``remainder`` reduces a sparse vector against it.  ``nullspace`` works over
Q only, and so does ``relations``, which lays sparse vectors out as the
columns of a matrix and takes its nullspace: no caller needs a kernel over
another ring (the q-wedge spans its kernels as images, see ``hecke``).

Over a field any nonzero entry is a pivot.  ``det`` also takes ``unit``,
which says which entries may be pivots in a ring, and sets the columns
without one aside; the block they leave, on the rows without a pivot, is
expanded along its first column (Laplace), each minor through the kernel.
A column zero on all of those rows makes the determinant 0 at once, which
over a field is the whole fallback; over truncated series the block holds
non-units (a tau outside the big cell), and the expansion stays exact.

All arithmetic is exact, so no pivot-growth heuristics are needed; the row
update skips zero entries of the pivot row, which keeps sparse frames and
mostly-zero ``RatFunc`` matrices cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

Matrix = list[list]
_ZERO, _ONE = Fraction(0), Fraction(1)


def _reciprocal(x):
    return Fraction(1) / x


def _eliminate(m: list[list], inverse, unit, jordan: bool = True, stop: bool = False):
    """Row-reduce ``m`` in place and return (pivot columns, pivot entries, row swaps).

    Each pivot row is scaled to 1 at its pivot and the pivot column is
    cleared below it (and above it when ``jordan``).  A column without a
    ``unit`` entry in the rows not yet used as pivots is skipped; with
    ``stop`` a column that is zero in all of those rows ends the reduction
    and the result is None (a square ``m`` is then singular).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    entries: list = []
    swaps = 0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = next((i for i in range(r, rows) if unit(m[i][c])), None)
        if p is None:
            if stop and not any(m[i][c] for i in range(r, rows)):
                return None
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            swaps += 1
        piv = m[r][c]
        inv = inverse(piv)
        row = m[r] = [x * inv if x else x for x in m[r]]
        for i in range(0 if jordan else r + 1, rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [a - f * b if b else a for a, b in zip(m[i], row)]
        pivots.append(c)
        entries.append(piv)
    return pivots, entries, swaps


def rref(m: Matrix, inverse=_reciprocal) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form over a field; returns (matrix, pivot column indices)."""
    m = [row[:] for row in m]
    pivots, _, _ = _eliminate(m, inverse, bool)
    return m, pivots


def echelon(vectors: list[dict], keys, inverse=_reciprocal) -> tuple[list[dict], list]:
    """Sparse vectors {key: entry} laid out as rows over ``keys`` (in order,
    holding every key used): the nonzero rows of their ``rref``, sparse, and
    each row's pivot key.  It depends only on the span of the vectors."""
    x = next((x for v in vectors for x in v.values()), None)
    if x is None:
        return [], []
    keys, zero = list(keys), x - x
    red, pivots = rref([[v.get(k, zero) for k in keys] for v in vectors], inverse)
    rows = [{k: x for k, x in zip(keys, row) if x} for row in red[:len(pivots)]]
    return rows, [keys[p] for p in pivots]


def nullspace(m: Matrix, ncols: int | None = None) -> list[list]:
    """Basis of the right kernel over Q, echelonized: free variables 1, else 0.
    ``ncols`` gives the width of a matrix without rows."""
    cols = len(m[0]) if m else ncols or 0
    red, pivots = rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def det(m: Matrix, inverse=_reciprocal, unit=bool):
    """Determinant: eliminate on the unit pivots, then expand what is left."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in m]
    out = _eliminate(m, inverse, unit, jordan=False, stop=True)
    if out is None:
        return m[0][0] - m[0][0]
    pivots, factors, swaps = out
    r = len(pivots)
    if r < n:
        # move the columns without a pivot behind the others: the matrix is
        # then block triangular, and the block left over is theirs
        rest = [c for c in range(n) if c not in pivots]
        swaps += sum(p > c for p in pivots for c in rest)
        factors.append(_laplace([[row[c] for c in rest] for row in m[r:]], inverse, unit))
    d = reduce(mul, factors)
    return -d if swaps % 2 else d


def _laplace(sub: Matrix, inverse, unit):
    """det(sub) expanded along its first column, each minor through ``det``."""
    total = None
    for i, row in enumerate(sub):
        if row[0]:
            t = row[0] * det([s[1:] for s in sub[:i] + sub[i + 1:]], inverse, unit)
            t = -t if i % 2 else t
            total = t if total is None else total + t
    return sub[0][0] if total is None else total  # the column is zero


def relations(vectors: list[dict]) -> list[list]:
    """Basis of the linear relations sum_j c_j v_j = 0 over Q among sparse
    vectors {index: entry}: the nullspace of the matrix whose columns they are.

    The rows are the indices in order of first appearance.  The reduced
    echelon form depends only on the row space, so that order changes the
    work, never the basis.
    """
    rows = {k: None for v in vectors for k in v}
    return nullspace([[v.get(k, _ZERO) for v in vectors] for k in rows], len(vectors))


def remainder(v: dict, rows: list[dict], pivots: list[int]) -> dict:
    """v minus, for each row in turn, v's entry at the row's pivot times the
    row, all given sparse as {index: entry} with the rows 1 at their pivots.
    Against a reduced echelon form this is the canonical representative of v
    modulo the span of the rows.  Zero entries are dropped."""
    v = dict(v)
    for row, p in zip(rows, pivots):
        f = v.get(p)
        if f:
            for k, b in row.items():
                v[k] = v[k] - f * b if k in v else -(f * b)
    return {k: x for k, x in v.items() if x}
