"""Local GL_n opers: scalar operators, matrix connections, the Miura transform.

The scalar presentation is the monic operator

    L = d^n - q_1 d^(n-1) - ... - q_n,

the sign convention used everywhere in this package.  A Miura datum is the
ordered factorization (d - chi_1)(d - chi_2)...(d - chi_n); its transform
is the unique companion-form connection in the upper-triangular unipotent
gauge orbit of the bidiagonal connection, which ``gauge_reduce`` returns as
its scalar operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadMiuraInput, NotOperForm
from .psido import PsiDO, compose
from .series import TruncSeries


@dataclass(frozen=True)
class ScalarOper:
    """Monic order-n operator stored by its coefficients q_1..q_n."""

    n: int
    q: tuple[TruncSeries, ...]

    def __post_init__(self):
        if len(self.q) != self.n or self.n < 1:
            raise ValueError("need exactly n coefficients q_1..q_n")
        if any(s.pole < 0 for s in self.q):
            raise ValueError("oper coefficients must be pole-free power series")

    def to_psido(self) -> PsiDO:
        order = min(s.order for s in self.q)
        terms: dict[int, TruncSeries] = {self.n: TruncSeries.one(order)}
        for i, qi in enumerate(self.q, start=1):
            if not qi.is_zero:
                terms[self.n - i] = -qi
        return PsiDO(terms)

    @classmethod
    def from_psido(cls, A: PsiDO, n: int | None = None) -> "ScalarOper":
        if A.top is None:
            raise ValueError("zero operator is not an oper")
        n = A.top if n is None else n
        if not A.terms[n].is_one:
            raise ValueError("operator must be monic")
        order = min(s.order for s in A.terms.values())
        q = []
        for i in range(1, n + 1):
            c = A.terms.get(n - i)
            q.append(-c if c is not None else TruncSeries.zero(order))
        return cls(n, tuple(q))

    def agrees(self, other: "ScalarOper") -> bool:
        return self.n == other.n and all(
            a.agrees(b) for a, b in zip(self.q, other.q)
        )


@dataclass(frozen=True)
class MiuraOper:
    """Bidiagonal connection data chi_1..chi_n (pole-free)."""

    n: int
    chi: tuple[TruncSeries, ...]

    def __post_init__(self):
        if len(self.chi) != self.n or self.n < 1:
            raise ValueError("need exactly n diagonal entries")


@dataclass(frozen=True)
class MatrixConnection:
    """First-order system d/dt - A on rank-n columns."""

    n: int
    A: tuple[tuple[TruncSeries, ...], ...]

    def __post_init__(self):
        if len(self.A) != self.n or any(len(r) != self.n for r in self.A):
            raise ValueError("matrix must be n x n")


def miura_transform(M: MiuraOper) -> ScalarOper:
    """ScalarOper of the product (d - chi_1)(d - chi_2)...(d - chi_n)."""
    if any(c.pole < 0 for c in M.chi):
        raise BadMiuraInput("Miura entries must be pole-free")
    order = min(c.order for c in M.chi)
    acc: PsiDO | None = None
    for c in M.chi:
        factor = PsiDO.d(1, order) - PsiDO.from_series(c)
        acc = factor if acc is None else compose(acc, factor)
    return ScalarOper.from_psido(acc, M.n)


def bidiagonal_matrix(M: MiuraOper) -> MatrixConnection:
    """chi_i on the diagonal, unit subdiagonal, zeros elsewhere."""
    order = min(c.order for c in M.chi)
    zero = TruncSeries.zero(order)
    one = TruncSeries.one(order)
    rows = []
    for i in range(M.n):
        row = [zero] * M.n
        row[i] = M.chi[i]
        if i > 0:
            row[i - 1] = one
        rows.append(tuple(row))
    return MatrixConnection(M.n, tuple(rows))


def _oper_form_strict(C: MatrixConnection) -> None:
    """Require subdiagonal entries to be exactly 1 and zeros below."""
    for i in range(C.n):
        for j in range(C.n):
            if i == j + 1 and not C.A[i][j].is_one:
                raise NotOperForm("subdiagonal entries must be exactly 1")
            if i > j + 1 and not C.A[i][j].is_zero:
                raise NotOperForm("entries below the subdiagonal must vanish")


def gauge_reduce(C: MatrixConnection) -> ScalarOper:
    """Unique companion form in the unipotent gauge orbit of C."""
    return gauge_reduce_with_matrix(C)[0]


def gauge_reduce_with_matrix(
    C: MatrixConnection,
) -> tuple[ScalarOper, tuple[tuple[TruncSeries, ...], ...]]:
    """Companion reduction plus the unipotent matrix G with s = G c.

    Writing horizontal sections s' = A s and eliminating from the bottom row
    upward expresses each component as s_i = D_i f for a monic differential
    operator D_i of order n - i in f = s_n.  The matrix G[i][k] = coefficient
    of d^(n-k) in D_i maps companion coordinates c_k = f^(n-k) to s; it is
    upper-triangular unipotent.  The scalar operator is the row-1 relation.
    """
    _oper_form_strict(C)
    n = C.n
    order = min(e.order for row in C.A for e in row)
    one = TruncSeries.one(order)
    D: list[PsiDO | None] = [None] * (n + 1)
    D[n] = PsiDO({0: one})
    for i in range(n, 1, -1):
        acc = compose(PsiDO.d(1, order), D[i])
        for j in range(i, n + 1):
            e = C.A[i - 1][j - 1]
            if not e.is_zero:
                acc = acc - compose(PsiDO.from_series(e), D[j])
        D[i - 1] = acc
    L = compose(PsiDO.d(1, order), D[1])
    for j in range(1, n + 1):
        e = C.A[0][j - 1]
        if not e.is_zero:
            L = L - compose(PsiDO.from_series(e), D[j])
    zero = TruncSeries.zero(order)
    G = tuple(
        tuple(
            (D[i].terms.get(n - k, zero) if D[i] is not None else zero)
            for k in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return ScalarOper.from_psido(L, n), G
