"""Weighted-degree-truncated series in the times t = (t_1, t_2, ...).

Monomials carry two exponent groups: the times t_k and an optional second
family t'_k (used by two-sided Toda correlators).  Both groups are graded
by weight(t_k) = weight(t'_k) = k, and a series with bound D stores no
monomial of weighted degree above D.  ``bound=None`` marks an exact
polynomial (no truncation happened on any code path that produced it).

Invariant of every stored series: each key is a pair of nonnegative
exponent tuples without trailing zeros, no key weighs more than the bound,
and no coefficient is zero.  The public constructor establishes it from
arbitrary input; the arithmetic keeps it by construction (the sum of two
trimmed nonnegative tuples is trimmed) and builds its results with the
trusted ``_make``, which only drops zero coefficients.  A product term
weighs the sum of its factors' weights, so ``*`` sorts the right factor by
weight once and stops each row at the bound.

Every coefficient in and out is a :class:`fractions.Fraction`.  ``*``
accumulates integers internally: each factor becomes integer numerators over
the lcm of its denominators (``series._integer_row``), and each output
coefficient is made once from its integer sum over the product of the two
denominators.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import count, islice, repeat
from math import factorial
from operator import add, itemgetter, mul
from typing import Iterable

from .series import Scalar, _integer_row, rat

# exponent key: (t-exponents, t'-exponents), trailing zeros trimmed
Expo = tuple[int, ...]
Key = tuple[Expo, Expo]

ZERO_KEY: Key = ((), ())


def _trim(e: Iterable[int]) -> Expo:
    e = list(e)
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def weight(key: Key) -> int:
    e, ep = key
    return sum(map(mul, e, count(1))) + sum(map(mul, ep, count(1)))


def _add_expo(a: Expo, b: Expo) -> Expo:
    """Sum of two trimmed exponent tuples (trimmed again, see module doc)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(map(add, a, b)) + a[len(b):]


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _cut(terms: dict[Key, Fraction], bound: int) -> dict[Key, Fraction]:
    return {k: c for k, c in terms.items() if weight(k) <= bound}


class TimesSeries:
    """Exact series in the times, truncated at a weighted degree bound."""

    __slots__ = ("bound", "terms")

    def __init__(self, terms: dict[Key, Scalar], bound: int | None):
        out: dict[Key, Fraction] = {}
        for key, c in terms.items():
            c = rat(c)
            if c == 0:
                continue
            key = (_trim(key[0]), _trim(key[1]))
            if any(v < 0 for v in key[0] + key[1]):
                raise ValueError("negative exponent")
            if bound is not None and weight(key) > bound:
                raise ValueError("term above the weighted bound")
            out[key] = out.get(key, Fraction(0)) + c
        self.terms = {k: v for k, v in out.items() if v != 0}
        self.bound = bound

    @classmethod
    def _make(cls, terms: dict[Key, Fraction], bound: int | None) -> "TimesSeries":
        """Trusted constructor: ``terms`` already satisfies the module
        invariant except that zero coefficients are dropped here."""
        s = object.__new__(cls)
        s.terms = {k: c for k, c in terms.items() if c}
        s.bound = bound
        return s

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, bound: int | None = None) -> "TimesSeries":
        return cls({}, bound)

    @classmethod
    def const(cls, c: Scalar, bound: int | None = None) -> "TimesSeries":
        return cls({ZERO_KEY: c}, bound)

    @classmethod
    def one(cls, bound: int | None = None) -> "TimesSeries":
        return cls.const(1, bound)

    @classmethod
    def var(cls, k: int, prime: bool = False, bound: int | None = None) -> "TimesSeries":
        """The single time t_k (or t'_k), k >= 1."""
        e = (0,) * (k - 1) + (1,)
        key = ((), e) if prime else (e, ())
        return cls({key: 1}, bound)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, key: Key) -> Fraction:
        key = (_trim(key[0]), _trim(key[1]))
        return self.terms.get(key, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get(ZERO_KEY, Fraction(0))

    def min_weight(self) -> int | None:
        """Smallest weighted degree with a nonzero term, None if zero."""
        if not self.terms:
            return None
        return min(weight(k) for k in self.terms)

    def agrees(self, other: "TimesSeries") -> bool:
        """Coefficients coincide through the shared weighted bound."""
        b = _min_bound(self.bound, other.bound)
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            if b is not None and weight(k) > b:
                continue
            if self.terms.get(k, 0) != other.terms.get(k, 0):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TimesSeries):
            return NotImplemented
        return self.bound == other.bound and self.terms == other.terms

    def __hash__(self):
        return hash((self.bound, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return TimesSeries._make({k: -c for k, c in self.terms.items()}, self.bound)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TimesSeries._make({ZERO_KEY: rat(other)}, None)
        elif not isinstance(other, TimesSeries):
            return NotImplemented
        bound = _min_bound(self.bound, other.bound)
        a, b = self.terms, other.terms
        if self.bound != bound:
            a = _cut(a, bound)
        if other.bound != bound:
            b = _cut(b, bound)
        out = dict(a)
        for k, c in b.items():
            out[k] = out[k] + c if k in out else c
        return TimesSeries._make(out, bound)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-rat(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return TimesSeries._make({k: c * v for k, v in self.terms.items()}, self.bound)
        if not isinstance(other, TimesSeries):
            return NotImplemented
        bound = _min_bound(self.bound, other.bound)
        nums, d1 = _integer_row(self.terms.values())
        onums, d2 = _integer_row(other.terms.values())
        graded = sorted(
            ((weight(k), k[0], k[1], n) for k, n in zip(other.terms, onums)),
            key=itemgetter(0),
        )
        weights = [g[0] for g in graded]
        out: dict[Key, int] = {}
        for (e1, p1), n1 in zip(self.terms, nums):
            row = graded
            if bound is not None:
                row = graded[: bisect_right(weights, bound - weight((e1, p1)))]
            for _, e2, p2, n2 in row:
                key = (_add_expo(e1, e2), _add_expo(p1, p2))
                out[key] = out.get(key, 0) + n1 * n2
        den = d1 * d2
        return TimesSeries._make({k: Fraction(n, den) for k, n in out.items()}, bound)

    __rmul__ = __mul__

    def truncate(self, bound: int | None) -> "TimesSeries":
        b = _min_bound(self.bound, bound)
        if b == self.bound:
            return self
        return TimesSeries._make(_cut(self.terms, b), b)

    def derivative(self, k: int, prime: bool = False) -> "TimesSeries":
        """d/dt_k (or d/dt'_k); the weighted bound drops by k."""
        i = k - 1
        out: dict[Key, Fraction] = {}
        for (e, p), c in self.terms.items():
            src = p if prime else e
            if len(src) <= i or src[i] == 0:
                continue
            n = src[i]
            new = src[:i] + (n - 1,) + src[i + 1:]
            if n == 1 and i == len(src) - 1:
                new = _trim(new)
            out[(e, new) if prime else (new, p)] = n * c
        bound = None if self.bound is None else self.bound - k
        return TimesSeries._make(out, bound)

    def mul_var(self, k: int, prime: bool = False) -> "TimesSeries":
        """Multiply by t_k (or t'_k); knowledge shifts up by weight k."""
        unit = (0,) * (k - 1) + (1,)
        out: dict[Key, Fraction] = {}
        for (e, p), c in self.terms.items():
            key = (e, _add_expo(p, unit)) if prime else (_add_expo(e, unit), p)
            out[key] = c
        bound = None if self.bound is None else self.bound + k
        return TimesSeries._make(out, bound)

    def exp(self) -> "TimesSeries":
        """exp of a series with no constant term; needs a finite bound."""
        if self.bound is None:
            raise ValueError("exp needs a finite weighted bound")
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        return _power_sum(self, (Fraction(1, factorial(j)) for j in count(1)))

    def invert(self) -> "TimesSeries":
        """Inverse of a series with nonzero constant term (finite bound)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("invert requires a nonzero constant term")
        if self.bound is None:
            raise ValueError("invert needs a finite weighted bound")
        c = 1 / c0
        return _power_sum(1 - self * c, repeat(1)) * c

    def restrict_primary(self) -> "TimesSeries":
        """Set every t'_k = 0."""
        return TimesSeries._make(
            {k: c for k, c in self.terms.items() if not k[1]}, self.bound
        )

    def __repr__(self):
        if not self.terms:
            return f"<0 (bound {self.bound})>"
        bits = []
        for key in sorted(self.terms, key=lambda k: (weight(k), k)):
            e, p = key
            mon = []
            for i, v in enumerate(e):
                if v:
                    mon.append(f"t{i+1}" + (f"^{v}" if v > 1 else ""))
            for i, v in enumerate(p):
                if v:
                    mon.append(f"t'{i+1}" + (f"^{v}" if v > 1 else ""))
            c = self.terms[key]
            bits.append(f"{c}*" + "*".join(mon) if mon else f"{c}")
        return f"<{' + '.join(bits)} (bound {self.bound})>"


def _power_sum(g: TimesSeries, coeffs: Iterable[Fraction]) -> TimesSeries:
    """1 + sum_(j >= 1) c_j g^j through g's bound, for g with no constant term.

    ``coeffs`` yields c_1, c_2, ...; a c_j of 1 adds g^j unscaled.  g^j weighs
    at least j min_weight(g), so the sum stops at j = bound // min_weight(g),
    or earlier at the first zero power.
    """
    result = power = TimesSeries.one(g.bound)
    v = g.min_weight()
    if v is None:
        return result
    for c in islice(coeffs, g.bound // v):
        power = power * g
        if power.is_zero:
            break
        result = result + (power if c == 1 else power * c)
    return result
