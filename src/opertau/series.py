"""Exact truncated Laurent series in one variable t.

A :class:`TruncSeries` represents an element of Q((t)) known exactly on the
exponent window ``[pole, order)``: coefficients below ``pole`` are exact
zeros, coefficients at and above ``order`` are unknown.  Every operation
computes the window actually supported by its inputs instead of silently
widening it; mixing two windows yields the intersection of knowledge.

All scalars are :class:`fractions.Fraction`.  There is no floating point
anywhere in this package.  A series is stored as its canonical integer row
``(pole, order, nums, den)``: the numerators over one common denominator,
the layout of FLINT's ``fmpq_poly``.  Sums, negation, scalar products,
derivatives and truncation are integer passes over the row; ``_dot`` adds
every product c·a·b of a sum into one integer list over one common
denominator and divides out one gcd at the end, and a single product
``a * b`` is the one-term sum.  A ``Fraction`` is made only where a caller
reads one (``coeffs``, ``coeff``, ``items``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Collection, Iterable, Sequence, Union

from .errors import NotInvertible

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


def _canonical(pole: int, order: int, nums, den: int) -> tuple[int, int, tuple[int, ...], int]:
    """The canonical row of ``nums`` over ``den > 0`` on exponents from t^pole:
    zero ends stripped (a leading zero moves the pole up) and one gcd divided
    out; zero is ``(order, order, (), 1)``."""
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        return order, order, (), 1
    while not nums[hi - 1]:
        hi -= 1
    nums = nums[lo:hi]
    g = gcd(den, *nums)
    if g > 1:
        return pole + lo, order, tuple([x // g for x in nums]), den // g
    return pole + lo, order, tuple(nums), den


def _parts(x: "TruncSeries | DualSeries") -> tuple["TruncSeries", "TruncSeries"]:
    """``(re, du)``; a TruncSeries x counts as x + (0 + O(t^x.order)) eps."""
    if isinstance(x, DualSeries):
        return x.re, x.du
    return x, TruncSeries.zero(x.order)


def _dot(triples: list) -> "TruncSeries | DualSeries":
    """Σ c·a·b over ``(c, a, b)``: ``int`` c, TruncSeries or DualSeries a, b.

    The sum is a DualSeries when any factor is one: re·re, and re·du + du·re,
    are each one ``_sum_rows`` call.  Every window is the one the products and
    sums of the series would give one at a time.
    """
    if not any(isinstance(a, DualSeries) or isinstance(b, DualSeries) for _, a, b in triples):
        return _sum_rows(triples)
    parts = [(c, _parts(a), _parts(b)) for c, a, b in triples]
    re = _sum_rows([(c, a[0], b[0]) for c, a, b in parts])
    du = _sum_rows([(c, a[0], b[1]) for c, a, b in parts]
                   + [(c, a[1], b[0]) for c, a, b in parts])
    return DualSeries(re, du)


def _sum_rows(triples: list) -> "TruncSeries":
    """Σ c·a·b over ``(c, a, b)`` with ``int`` c and TruncSeries a, b.

    The window is min(a.order + b.pole, b.order + a.pole) over all triples,
    zero factors included.  Every product goes into one ``int`` list scaled
    by D / (d_a·d_b), D the lcm of those denominators, and the sum's row
    divides out one gcd at the end.
    """
    order = min([min(a.pole + b.order, a.order + b.pole) for _, a, b in triples])
    live = [t for t in triples if t[1].nums and t[2].nums]
    pole = min([a.pole + b.pole for _, a, b in live], default=order)
    if pole >= order:
        return TruncSeries.zero(order)
    den = lcm(*[a.den * b.den for _, a, b in live])
    acc = [0] * (order - pole)
    for c, x, y in live:
        pa, pb = x.pole, y.pole
        n = order - pa - pb  # exponents of this product inside the window
        if n <= 0:
            continue
        a = x.nums[:n]
        b = y.nums[:n][::-1]
        last = len(b) - 1
        end = min(n, len(a) + last)  # t^(pa + pb + k) is 0 from k = end on
        scale = den // (x.den * y.den) * c
        off = pa + pb - pole
        # t^(pa + pb + k) collects a_i b_(k - i) as one integer sum over the
        # reversed b; map stops at the end of the shorter slice
        for k in range(min(last, end)):
            acc[off + k] += scale * sum(map(mul, a, b[last - k:]))
        for k in range(last, end):
            acc[off + k] += scale * sum(map(mul, a[k - last:], b))
    return TruncSeries._make(pole, order, acc, den)


class TruncSeries:
    """Laurent series with exact coefficients on the window [pole, order).

    The coefficient of t^(pole + i) is ``nums[i] / den``, and t^k is zero for
    pole + len(nums) <= k < order.  The row is canonical: ``nums`` starts and
    ends nonzero, ``den > 0`` and gcd(den, *nums) = 1; zero has no ``nums``,
    ``den`` 1 and its pole at its order.  So equal series have equal rows.
    """

    __slots__ = ("pole", "order", "nums", "den")

    def __init__(self, pole: int, coeffs: Iterable[Scalar], order: int):
        cs = [rat(c) for c in coeffs]
        if order - pole != len(cs):
            raise ValueError("coefficient count must equal order - pole")
        self.pole, self.order, self.nums, self.den = _canonical(pole, order, *_integer_row(cs))

    @classmethod
    def _make(cls, pole: int, order: int, nums: Sequence[int], den: int) -> "TruncSeries":
        """Trusted constructor: ``nums`` over ``den > 0`` on the exponents from
        t^pole, all below ``order``; ``_canonical`` puts it in canonical form."""
        s = object.__new__(cls)
        s.pole, s.order, s.nums, s.den = _canonical(pole, order, nums, den)
        return s

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls._make(order, order, (), 1)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls.monomial(0, 1, order)

    @classmethod
    def monomial(cls, k: int, coef: Scalar = 1, order: int = DEFAULT_ORDER) -> "TruncSeries":
        if k >= order:
            return cls.zero(order)
        c = rat(coef)
        return cls._make(k, order, (c.numerator,), c.denominator)

    @classmethod
    def from_dict(cls, d: dict[int, Scalar], order: int = DEFAULT_ORDER) -> "TruncSeries":
        if not d:
            return cls.zero(order)
        p = min(d)
        return cls(p, [d.get(k, 0) for k in range(p, order)], order)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """One ``Fraction`` per exponent of [pole, order), zeros included."""
        zero = Fraction(0)
        tail = (zero,) * (self.order - self.pole - len(self.nums))
        return tuple([Fraction(x, self.den) if x else zero for x in self.nums]) + tail

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_one(self) -> bool:
        return self.order >= 1 and self.pole == 0 and self.nums == (1,) and self.den == 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of t^k; raises if k is beyond the trusted window."""
        if k >= self.order:
            raise KeyError(f"coefficient t^{k} lies beyond the trusted order {self.order}")
        i = k - self.pole
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def items(self):
        for k, x in enumerate(self.nums, self.pole):
            if x:
                yield k, Fraction(x, self.den)

    def agrees(self, other: "TruncSeries") -> bool:
        """Equality of all coefficients on the shared trusted window."""
        order = min(self.order, other.order)
        return self.truncate(order) == other.truncate(order)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.pole, self.order, self.nums, self.den) == (
            other.pole, other.order, other.nums, other.den)

    def __hash__(self):
        return hash((self.pole, self.order, self.nums, self.den))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._make(self.pole, self.order, [-x for x in self.nums], self.den)

    def _plus(self, other, sign: int) -> "TruncSeries":
        """self + sign·other on the shared window, as one integer row."""
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.monomial(0, other, self.order)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self.order, other.order)
        pole = min(self.pole, other.pole, order)
        den = lcm(self.den, other.den)
        acc = [0] * (order - pole)
        for scale, x in ((den // self.den, self), (sign * den // other.den, other)):
            off = x.pole - pole
            for i, v in enumerate(x.nums[:max(0, order - x.pole)], off):
                acc[i] += scale * v
        return TruncSeries._make(pole, order, acc, den)

    def __add__(self, other) -> "TruncSeries":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncSeries":
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            nums = [x * c.numerator for x in self.nums]
            return TruncSeries._make(self.pole, self.order, nums, self.den * c.denominator)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return _sum_rows([(1, self, other)])

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        nums = self.nums[:max(0, order - self.pole)]
        return TruncSeries._make(min(self.pole, order), order, nums, self.den)

    def derivative(self) -> "TruncSeries":
        nums = [e * x for e, x in enumerate(self.nums, self.pole)]
        return TruncSeries._make(self.pole - 1, self.order - 1, nums, self.den)

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
        if isinstance(other, (int, Fraction)):
            return DualSeries(self.re - other, self.du)
        o = self._coerce(other)
        return DualSeries(self.re - o.re, self.du - o.du)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualSeries(self.re * other, self.du * other)
        return _dot([(1, self, self._coerce(other))])

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
