"""Microdifferential operators: the ring Q[[t]]((d^-1)) with tracked tails.

A :class:`PsiDO` stores finitely many coefficients a_i of sum a_i(t) d^i
(coefficients on the left of powers of d).  ``depth=None`` means the
operator is exact: absent orders are exact zeros.  ``depth=d`` means orders
below d were discarded; every operation records the worst depth actually
trusted in its result so comparisons never overreach the computed window.

Each coefficient of a product is a sum of binomial products C(i,k) a b^(k),
accumulated in integers by ``series._dot``, which reads the integer rows
the series store.  The derivatives b^(k) are chains of ``.derivative()``
calls; this module builds and keeps no rows of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import BadArgument, NotMonic, TailOverflow
from .series import DEFAULT_ORDER, DualSeries, TruncSeries, _dot

# deepest d-order kept where an expansion does not terminate, unless the
# caller passes another
DEFAULT_TAIL_DEPTH = -8


@lru_cache(maxsize=None)
def _binom(i: int, k: int) -> int:
    """Generalized binomial C(i, k) for any integer i, k >= 0 (integer)."""
    return comb(i, k) if i >= 0 else (-1) ** k * comb(k - i - 1, k)


def _depth_max(a: int | None, b: int | None) -> int | None:
    """Shallower (less informative) of two trust depths; None = exact."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


class PsiDO:
    """Finite window of a microdifferential operator."""

    __slots__ = ("terms", "depth")

    def __init__(self, terms: dict[int, TruncSeries | DualSeries], depth: int | None = None):
        cleaned = {}
        for i, c in terms.items():
            if c.is_zero:
                continue
            if depth is not None and i < depth:
                continue
            cleaned[i] = c
        self.terms = cleaned
        self.depth = depth

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "PsiDO":
        return cls({})

    @classmethod
    def d(cls, k: int = 1, order: int | None = None) -> "PsiDO":
        return cls({k: TruncSeries.one(order or DEFAULT_ORDER)})

    @classmethod
    def from_series(cls, s: TruncSeries | DualSeries) -> "PsiDO":
        """Multiplication operator by the function s."""
        return cls({0: s})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def top(self) -> int | None:
        return max(self.terms) if self.terms else None

    def is_differential(self) -> bool:
        return all(i >= 0 for i in self.terms)

    def agrees(self, other: "PsiDO") -> bool:
        """Coefficientwise agreement on the shared trusted window.

        A stored coefficient is never zero, so an order at or above the
        shared depth that only one side holds is a disagreement.
        """
        d = _depth_max(self.depth, other.depth)
        for i in set(self.terms) | set(other.terms):
            if d is not None and i < d:
                continue
            a = self.terms.get(i)
            b = other.terms.get(i)
            if a is None or b is None or not a.agrees(b):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PsiDO):
            return NotImplemented
        return self.depth == other.depth and self.terms == other.terms

    def __hash__(self):
        return hash((self.depth, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------------

    def __neg__(self):
        return PsiDO({i: -c for i, c in self.terms.items()}, self.depth)

    def _plus(self, other, sign: int):
        """self + sign·other, coefficient by coefficient."""
        if not isinstance(other, PsiDO):
            return NotImplemented
        out = dict(self.terms)
        for i, c in other.terms.items():
            if i not in out:
                out[i] = c if sign > 0 else -c
            else:
                out[i] = out[i] + c if sign > 0 else out[i] - c
        return PsiDO(out, _depth_max(self.depth, other.depth))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PsiDO({i: c * other for i, c in self.terms.items()}, self.depth)
        if isinstance(other, PsiDO):
            return compose(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PsiDO":
        return power(self, e)

    def __repr__(self):
        if not self.terms:
            return "PsiDO<0>"
        bits = [f"[{c!r}] d^{i}" for i, c in sorted(self.terms.items(), reverse=True)]
        tail = "" if self.depth is None else f" (depth {self.depth})"
        return "PsiDO<" + " + ".join(bits) + ">" + tail


def compose(A: PsiDO, B: PsiDO, depth: int = DEFAULT_TAIL_DEPTH) -> PsiDO:
    """Operator product via d^i a = sum_k C(i,k) a^(k) d^(i-k).

    With A differential the sum is finite and is taken in full.  When A has a
    negative order it does not terminate, and orders below ``depth`` are cut;
    the result's depth records the cut only if a nonzero term was dropped.
    """
    if A.is_zero or B.is_zero:
        if (A.is_zero and A.depth is None) or (B.is_zero and B.depth is None):
            return PsiDO({}, _depth_max(A.depth, B.depth))  # exactly zero
        # an empty operand's unknown tail still reaches its partner's top
        if A.is_zero and B.is_zero:
            return PsiDO({}, A.depth + B.depth - 1)
        if B.is_zero:
            return PsiDO({}, B.depth + A.top)
        return PsiDO({}, A.depth + B.top)
    trusted = None  # orders below this are unknown whatever is computed
    if A.depth is not None:
        trusted = A.depth + max(B.terms)
    if B.depth is not None:
        trusted = _depth_max(trusted, B.depth + max(A.terms))
    derivs: dict[int, list] = {}
    if min(A.terms) >= 0:
        lowest = min(B.terms)  # each d^i b_j^(k) d^(j-k) has k <= i
    else:
        lowest = depth
        # the cut counts only if a nonzero term falls below the floor; k is
        # the first term of d^i b_j below it
        if (trusted is None or trusted < depth) and any(
            (i < 0 or k <= i) and _derivative(B.terms, j, k, derivs) is not None
            for j in B.terms for i in A.terms for k in [max(0, i + j - depth + 1)]
        ):
            trusted = depth
    if trusted is not None and A.top + B.top < trusted:
        raise TailOverflow("no trusted orders remain in the composition")
    out: dict[int, TruncSeries | DualSeries] = {}
    for o in range(A.top + B.top, _depth_max(lowest, trusted) - 1, -1):
        c = _compose_coeff(A.terms, B.terms, o, derivs)
        if c is not None:
            out[o] = c
    return PsiDO(out, trusted)


def _derivative(B: dict, j: int, k: int, derivs: dict[int, list]):
    """k-th derivative of the coefficient B[j], or None once the chain dies.

    ``derivs`` memoizes the chain of each B[j], which ends in None once a
    derivative is zero; reuse it only while those coefficients stay fixed.
    """
    chain = derivs.get(j)
    if chain is None:
        chain = derivs[j] = [None if B[j].is_zero else B[j]]
    while len(chain) <= k and chain[-1] is not None:
        d = chain[-1].derivative()
        chain.append(None if d.is_zero else d)
    return chain[k] if k < len(chain) else None  # None: exact termination


def _compose_coeff(A: dict, B: dict, o: int, derivs: dict[int, list]):
    """Coefficient of d^o in A∘B for coefficient dicts A and B; None if zero.

    ``compose``, ``nth_root`` and ``dressing`` sum the binomial rule here, one
    order per call, as one ``series._dot`` of the products
    C(i, k) a_i b_j^(k): dead derivatives are skipped and a zero sum is absent.
    ``derivs`` memoizes derivative chains as in ``_derivative``.
    """
    triples = []
    for j in B:
        for i, a in A.items():
            k = i + j - o
            if k < 0 or (i >= 0 and k > i):
                continue
            bk = _derivative(B, j, k, derivs)
            if bk is not None:
                triples.append((_binom(i, k), a, bk))
    if not triples:
        return None
    total = _dot(triples)
    return None if total.is_zero else total


def power(A: PsiDO, e: int, lo: int = DEFAULT_TAIL_DEPTH) -> PsiDO:
    """A^e for e >= 1 as the product ((A A) A)..., on the orders >= lo.

    The k-th partial product reaches orders >= lo of A^e only through its
    own orders >= lo - (e-k) top(A), so it is composed at that depth.  Orders
    >= lo of the result equal those of the full power; its depth records the
    floor.
    """
    if e < 0:
        raise BadArgument("negative operator powers are not defined here")
    if e == 0:
        raise BadArgument("use an explicit identity for power 0")
    acc = A
    for k in range(2, e + 1):
        acc = compose(acc, A, lo - (e - k) * (A.top or 0))
    return acc


def commutator(A: PsiDO, B: PsiDO) -> PsiDO:
    return compose(A, B) - compose(B, A)


def split(A: PsiDO) -> tuple[PsiDO, PsiDO]:
    """(A_plus, A_minus): orders >= 0 and orders < 0; parts re-add to A."""
    if A.depth is not None and A.depth > 0:
        raise TailOverflow("differential part is not fully trusted")
    plus = PsiDO({i: c for i, c in A.terms.items() if i >= 0}, None)
    minus = PsiDO({i: c for i, c in A.terms.items() if i < 0}, A.depth)
    return plus, minus


def residue(A: PsiDO):
    """Coefficient of d^-1."""
    if A.depth is not None and A.depth > -1:
        raise TailOverflow("d^-1 coefficient is below the trusted depth")
    c = A.terms.get(-1)
    if c is not None:
        return c
    # exact zero; give it the trusted t-window of the operator's coefficients
    orders = [s.order for s in _real_series(A)]
    zero = TruncSeries.zero(min(orders) if orders else DEFAULT_ORDER)
    if any(isinstance(v, DualSeries) for v in A.terms.values()):
        return DualSeries(zero, zero)
    return zero


def _real_series(A: PsiDO):
    for c in A.terms.values():
        if isinstance(c, DualSeries):
            yield c.re
        else:
            yield c


def nth_root(L: PsiDO, n: int, depth: int = DEFAULT_TAIL_DEPTH) -> PsiDO:
    """The monic n-th root R = d + r_0 + r_-1 d^-1 + ... of a monic order-n L.

    Matching the coefficient of d^(n-1+m) in R^n = L determines r_m one order
    at a time, from m = 0 down to the depth; no integration constants arise.
    Besides the term n r_m, that coefficient involves only r_(m+1), r_(m+2),
    ..., so the root is computed as a relaxed (online) recursion.  Step m
    computes, for each power R^k = R^(k-1) R with k = 2..n, only its
    coefficient at d^(m+k-1): first a provisional value without r_m, whose
    k = n instance gives n r_m = [L]_(n-1+m) - [R^n]_(n-1+m); then, once r_m
    is known, the final value that step m-1 builds on.  Each coefficient comes
    from the one-order kernel that ``compose`` itself sums with, so R has the
    Fractions and t-windows of a root read off L - R^n in full at every step.

    R is trusted down to ``depth``, or down to L.depth - n + 1 when L itself
    is known less deeply.
    """
    if n <= 0:
        raise BadArgument("root index must be a positive integer")
    if L.is_zero or L.top is None:
        raise NotMonic("zero operator has no monic root")
    if L.top != n:
        raise NotMonic(f"operator order {L.top} != root index {n}")
    top = L.terms[n]
    if not top.is_one:
        raise NotMonic("top coefficient must be exactly 1")
    if n == 1:
        return L
    target = depth if L.depth is None else max(depth, L.depth - n + 1)
    R = {1: top}  # reuse the (possibly dual) exact-1 coefficient
    derivs: dict[int, list] = {}  # derivative chains of the r_j, by j
    # powers[k]: the coefficients of R^k computed so far (powers[1] is R)
    powers = [None, R] + [{} for _ in range(2, n)]

    def fill(m: int) -> None:
        """The d^(m+k-1) coefficient of R^k, k = 2..n-1, from R as it stands."""
        for k in range(2, n):
            c = _compose_coeff(powers[k - 1], R, m + k - 1, derivs)
            if c is None:
                powers[k].pop(m + k - 1, None)
            else:
                powers[k][m + k - 1] = c

    fill(1)
    for m in range(0, target - 1, -1):
        fill(m)  # provisional: r_m is not in R yet
        want = n - 1 + m
        got = _compose_coeff(powers[n - 1], R, want, derivs)
        have = L.terms.get(want)
        if got is not None:
            have = -got if have is None else have - got
        if have is None or have.is_zero:
            continue  # r_m = 0, so the provisional coefficients are final
        R[m] = have * Fraction(1, n)
        fill(m)
    return PsiDO(R, target)
