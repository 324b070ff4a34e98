"""Exact truncated Laurent series in one variable t.

A :class:`TruncSeries` represents an element of Q((t)) known exactly on the
exponent window ``[pole, order)``: coefficients below ``pole`` are exact
zeros, coefficients at and above ``order`` are unknown.  Every operation
computes the window actually supported by its inputs instead of silently
widening it; mixing two windows yields the intersection of knowledge.

All scalars are :class:`fractions.Fraction`.  There is no floating point
anywhere in this package.  Sums of products accumulate integers internally:
each factor becomes an integer row, its numerators over the lcm of its
denominators (the common-denominator layout of FLINT's ``fmpq_poly``).
``_dot`` adds every product c·a·b of a sum into one integer list over one
common denominator and makes each output coefficient once, as one canonical
``Fraction``; a single product ``a * b`` is the one-term sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Collection, Iterable, Sequence, Union

from .errors import NotIntegrable, NotInvertible

Scalar = Union[int, Fraction]

DEFAULT_ORDER = 12


def rat(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _integer_row(coeffs: Collection[Fraction]) -> tuple[list[int], int]:
    """``(nums, den)``: the i-th coefficient is ``Fraction(nums[i], den)``,
    and ``den`` is the lcm of the denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _rstrip(cs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """``cs`` through its last nonzero entry (``cs[0]`` is nonzero), like the
    length of an ``fmpq_poly``: trailing zeros add nothing to a product."""
    end = len(cs)
    while not cs[end - 1]:
        end -= 1
    return cs[:end]


def _row(s: "TruncSeries", width: int | None = None) -> tuple[int, int, list[int], int]:
    """Canonical integer row ``(pole, order, nums, den)`` of ``s``.

    ``nums`` runs from t^pole (nonzero) through the last nonzero coefficient
    among the first ``width`` (all by default), over the lcm ``den`` of their
    denominators; a zero series has no ``nums`` and its pole at its order.
    """
    cs = s.coeffs[:width]
    if not cs:
        return s.pole, s.order, [], 1
    nums, den = _integer_row(_rstrip(cs))
    return s.pole, s.order, nums, den


def _factor(x: "TruncSeries | DualSeries") -> tuple:
    """``x`` as ``_dot`` reads it: ``(row,)`` or, for a DualSeries, ``(re, du)``."""
    if isinstance(x, DualSeries):
        return _row(x.re), _row(x.du)
    return (_row(x),)


def _factor_derivative(f: tuple) -> tuple | None:
    """d/dt of a factor, row by row, or None when every row of it is zero.

    c t^e becomes e c t^(e-1) over the same den.  Only t^0 dies, so new zeros
    sit at the ends of a row only.
    """
    out = []
    for pole, order, nums, den in f:
        nums = [e * c for e, c in enumerate(nums, pole)]
        lo, hi = 0, len(nums)
        while lo < hi and not nums[lo]:
            lo += 1
        while hi > lo and not nums[hi - 1]:
            hi -= 1
        if lo == hi:
            out.append((order - 1, order - 1, [], 1))  # zero: pole at the order
        else:
            out.append((pole + lo - 1, order - 1, nums[lo:hi], den))
    return tuple(out) if any(row[2] for row in out) else None


def _du(f: tuple) -> tuple[int, int, list[int], int]:
    """The eps part of a factor; a TruncSeries x counts as x + (0 + O(t^x.order)) eps."""
    if len(f) == 2:
        return f[1]
    order = f[0][1]
    return order, order, [], 1


def _dot(triples: list) -> "TruncSeries | DualSeries":
    """Σ c·a·b over ``(c, a, b)``: ``int`` c, factors ``a``, ``b`` from ``_factor``.

    The sum is a DualSeries when any factor is one: re·re, and re·du + du·re,
    are each one ``_sum_rows`` call.  Every window is the one the products and
    sums of the series would give one at a time.
    """
    re = _sum_rows([(c, a[0], b[0]) for c, a, b in triples])
    if all(len(a) == len(b) == 1 for _, a, b in triples):
        return re
    du = _sum_rows([(c, a[0], _du(b)) for c, a, b in triples]
                   + [(c, _du(a), b[0]) for c, a, b in triples])
    return DualSeries(re, du)


def _sum_rows(triples: list) -> "TruncSeries":
    """Σ c·a·b over ``(c, a, b)`` with ``int`` c and integer rows a, b.

    The window is min(a.order + b.pole, b.order + a.pole) over all triples,
    zero factors included.  Every product goes into one ``int`` list scaled
    by D / (d_a·d_b), D the lcm of those denominators, and each exponent
    becomes one ``Fraction``.
    """
    order = min([min(pa + ob, oa + pb) for _, (pa, oa, _, _), (pb, ob, _, _) in triples])
    live = [t for t in triples if t[1][2] and t[2][2]]
    pole = min([a[0] + b[0] for _, a, b in live], default=order)
    if pole >= order:
        return TruncSeries._make(order, [], order)
    den = lcm(*[a[3] * b[3] for _, a, b in live])
    acc = [0] * (order - pole)
    for c, (pa, _, a, da), (pb, _, b, db) in live:
        n = order - pa - pb  # exponents of this product inside the window
        if n <= 0:
            continue
        a = a[:n]
        b = b[:n][::-1]
        last = len(b) - 1
        end = min(n, len(a) + last)  # t^(pa + pb + k) is 0 from k = end on
        scale = den // (da * db) * c
        off = pa + pb - pole
        # t^(pa + pb + k) collects a_i b_(k - i) as one integer sum over the
        # reversed b; map stops at the end of the shorter slice
        for k in range(min(last, end)):
            acc[off + k] += scale * sum(map(mul, a, b[last - k:]))
        for k in range(last, end):
            acc[off + k] += scale * sum(map(mul, a[k - last:], b))
    zero = Fraction(0)
    return TruncSeries._make(pole, [Fraction(x, den) if x else zero for x in acc], order)


class TruncSeries:
    """Laurent series with exact coefficients on the window [pole, order)."""

    __slots__ = ("pole", "order", "coeffs")

    def __init__(self, pole: int, coeffs: Iterable[Scalar], order: int):
        cs = [rat(c) for c in coeffs]
        if order - pole != len(cs):
            raise ValueError("coefficient count must equal order - pole")
        self._assign(pole, cs, order)

    def _assign(self, pole: int, cs: Sequence[Fraction], order: int) -> None:
        # canonical form: exact leading zeros are absorbed into the pole
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        self.pole = pole + lead
        self.coeffs = tuple(cs[lead:])
        self.order = order

    @classmethod
    def _make(cls, pole: int, cs: Sequence[Fraction], order: int) -> "TruncSeries":
        """Trusted constructor: ``cs`` holds one ``Fraction`` per exponent of
        [pole, order); only the exact leading zeros are stripped here."""
        s = object.__new__(cls)
        s._assign(pole, cs, order)
        return s

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls.monomial(0, 1, order)

    @classmethod
    def monomial(cls, k: int, coef: Scalar = 1, order: int = DEFAULT_ORDER) -> "TruncSeries":
        if k >= order:
            return cls.zero(order)
        return cls(k, [coef] + [0] * (order - k - 1), order)

    @classmethod
    def from_dict(cls, d: dict[int, Scalar], order: int = DEFAULT_ORDER) -> "TruncSeries":
        if not d:
            return cls.zero(order)
        p = min(d)
        return cls(p, [d.get(k, 0) for k in range(p, order)], order)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.order >= 1 and self.pole == 0 and all(
            c == (1 if k == 0 else 0) for k, c in enumerate(self.coeffs)
        )

    def known(self, k: int) -> bool:
        return k < self.order

    def coeff(self, k: int) -> Fraction:
        """Coefficient of t^k; raises if k is beyond the trusted window."""
        if k >= self.order:
            raise KeyError(f"coefficient t^{k} lies beyond the trusted order {self.order}")
        if k < self.pole:
            return Fraction(0)
        return self.coeffs[k - self.pole]

    def items(self):
        for k, c in enumerate(self.coeffs):
            if c:
                yield self.pole + k, c

    def agrees(self, other: "TruncSeries") -> bool:
        """Equality of all coefficients on the shared trusted window."""
        hi = min(self.order, other.order)
        lo = min(self.pole, other.pole)
        return all(
            (self.coeffs[k - self.pole] if k >= self.pole else Fraction(0))
            == (other.coeffs[k - other.pole] if k >= other.pole else Fraction(0))
            for k in range(lo, hi)
        )

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.pole, self.order, self.coeffs) == (other.pole, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.pole, self.order, self.coeffs))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._make(self.pole, [-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.monomial(0, other, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self.order, other.order)
        if self.is_zero:
            return other.truncate(order)
        if other.is_zero:
            return self.truncate(order)
        pole = min(self.pole, other.pole)
        cs = [Fraction(0)] * (order - pole)
        for src in (self, other):
            for k, c in src.items():
                if k < order:
                    cs[k - pole] += c
        return TruncSeries._make(pole, cs, order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.monomial(0, other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return TruncSeries.zero(self.order)
            return TruncSeries._make(self.pole, [c * a for a in self.coeffs], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # the window is as wide as the narrower factor: no coefficient past it
        # reaches the product
        n = min(self.order - self.pole, other.order - other.pole)
        return _sum_rows([(1, _row(self, n), _row(other, n))])

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        n = max(0, order - self.pole)
        return TruncSeries._make(min(self.pole, order), self.coeffs[:n], order)

    def derivative(self) -> "TruncSeries":
        cs = [(self.pole + k) * c for k, c in enumerate(self.coeffs)]
        return TruncSeries._make(self.pole - 1, cs, self.order - 1)

    def antiderivative(self) -> "TruncSeries":
        """Termwise antiderivative with constant 0; fails on a t^-1 term."""
        cs = []
        for k, c in enumerate(self.coeffs):
            e = self.pole + k
            if e == -1:
                if c != 0:
                    raise NotIntegrable("nonzero t^-1 coefficient")
                cs.append(Fraction(0))
            else:
                cs.append(c / (e + 1))
        return TruncSeries(self.pole + 1, cs, self.order + 1)

    def invert(self) -> "TruncSeries":
        if self.is_zero:
            raise NotInvertible("zero series (within its window) has no inverse")
        p = self.pole
        n = self.order - p  # window width is preserved by inversion
        a = self.coeffs
        inv0 = Fraction(1) / a[0]
        out = [inv0] + [Fraction(0)] * (n - 1)
        for k in range(1, n):
            s = sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
            out[k] = -inv0 * s
        return TruncSeries(-p, out, -p + n)

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return f"<0 + O(t^{self.order})>"
        bits = []
        for k, c in self.items():
            if k == 0:
                bits.append(f"{c}")
            elif k == 1:
                bits.append(f"{c}*t")
            else:
                bits.append(f"{c}*t^{k}")
        return f"<{' + '.join(bits)} + O(t^{self.order})>"


def tpoly(d: dict[int, Scalar], order: int = DEFAULT_ORDER) -> TruncSeries:
    """Shorthand for a Laurent polynomial given as {exponent: coefficient}."""
    return TruncSeries.from_dict(d, order)


class DualSeries:
    """First-order jet a + b*eps with eps^2 = 0 and TruncSeries components.

    Implements the same arithmetic surface as TruncSeries, so operator
    algorithms can be re-run verbatim to obtain directional derivatives.
    """

    __slots__ = ("re", "du")

    def __init__(self, re: TruncSeries, du: TruncSeries | None = None):
        self.re = re
        self.du = du if du is not None else TruncSeries.zero(re.order)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.du.is_zero

    @property
    def is_one(self) -> bool:
        return self.re.is_one and self.du.is_zero

    def agrees(self, other: "DualSeries") -> bool:
        return self.re.agrees(other.re) and self.du.agrees(other.du)

    def __eq__(self, other):
        if not isinstance(other, DualSeries):
            return NotImplemented
        return self.re == other.re and self.du == other.du

    def __hash__(self):
        return hash((self.re, self.du))

    def __neg__(self):
        return DualSeries(-self.re, -self.du)

    def _coerce(self, other):
        if isinstance(other, DualSeries):
            return other
        if isinstance(other, TruncSeries):
            return DualSeries(other)
        if isinstance(other, (int, Fraction)):
            return None  # scalars handled inline
        raise TypeError(f"cannot combine DualSeries with {type(other).__name__}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualSeries(self.re + other, self.du)
        o = self._coerce(other)
        return DualSeries(self.re + o.re, self.du + o.du)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if not isinstance(other, (int, Fraction)) else -rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualSeries(self.re * other, self.du * other)
        return _dot([(1, _factor(self), _factor(self._coerce(other)))])

    __rmul__ = __mul__

    def derivative(self):
        return DualSeries(self.re.derivative(), self.du.derivative())

    def invert(self):
        r = self.re.invert()
        return DualSeries(r, -(r * self.du * r))

    def truncate(self, order: int):
        return DualSeries(self.re.truncate(order), self.du.truncate(order))

    def __repr__(self):
        return f"Dual({self.re!r}, eps={self.du!r})"
