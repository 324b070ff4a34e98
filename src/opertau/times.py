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
trusted ``_make``, which only drops zero coefficients.

Every coefficient in and out is a :class:`fractions.Fraction`, but products
sum integers: ``_graded`` splits a series into homogeneous parts over d, the
lcm of its denominators, and ``_dot`` sums c·a·b part by part (skipping pairs
of parts that weigh more than the bound), one ``Fraction`` per output term;
``*`` is one triple, ``grass.hirota_residual`` seven.  ``exp`` and ``invert``
are one graded pass each (Brent and Kung 1978), from m·E_m = Σ_j j·g_j·E_(m−j)
for E = exp(g) and g_0·E_m = −Σ_(j≥1) g_j·E_(m−j) for E = 1/g, with N_0 = 1:

    exp:     N_m = Σ_j j·G_j·d^(j−1)·(m−1)!/(m−j)!·N_(m−j),  E_m = N_m / (m!·d^m)
    invert:  N_m = −Σ_j G_j·G_0^(j−1)·N_(m−j),             E_m = d·N_m / G_0^(m+1)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial, lcm
from operator import add, mul
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
            a, b = rat(other).as_integer_ratio()
            terms = {k: Fraction(a * v.numerator, b * v.denominator) for k, v in self.terms.items()}
            return TimesSeries._make(terms, self.bound)
        if not isinstance(other, TimesSeries):
            return NotImplemented
        return _dot([(1, self, other)], _min_bound(self.bound, other.bound))

    __rmul__ = __mul__

    def truncate(self, bound: int | None) -> "TimesSeries":
        b = _min_bound(self.bound, bound)
        if b == self.bound:
            return self
        return TimesSeries._make(_cut(self.terms, b), b)

    def derivative(self, k: int) -> "TimesSeries":
        """d/dt_k; the weighted bound drops by k."""
        i = k - 1
        out: dict[Key, Fraction] = {}
        for (e, p), c in self.terms.items():
            if len(e) <= i or e[i] == 0:
                continue
            n = e[i]
            new = e[:i] + (n - 1,) + e[i + 1:]
            if n == 1 and i == len(e) - 1:
                new = _trim(new)
            out[(new, p)] = n * c
        bound = None if self.bound is None else self.bound - k
        return TimesSeries._make(out, bound)

    def mul_var(self, k: int) -> "TimesSeries":
        """Multiply by t_k; knowledge shifts up by weight k."""
        unit = (0,) * (k - 1) + (1,)
        out: dict[Key, Fraction] = {}
        for (e, p), c in self.terms.items():
            out[(_add_expo(e, unit), p)] = c
        bound = None if self.bound is None else self.bound + k
        return TimesSeries._make(out, bound)

    def exp(self) -> "TimesSeries":
        """exp of a series with no constant term; needs a finite bound."""
        if self.bound is None:
            raise ValueError("exp needs a finite weighted bound")
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        G, d = _graded(self)
        return _graded_pass(G, self.bound, 1, lambda m: factorial(m) * d**m,
                            lambda m, j: j * d ** (j - 1) * (factorial(m - 1) // factorial(m - j)))

    def invert(self) -> "TimesSeries":
        """Inverse of a series with nonzero constant term (finite bound)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("invert requires a nonzero constant term")
        if self.bound is None:
            raise ValueError("invert needs a finite weighted bound")
        G, d = _graded(self)
        g0 = G[0][0][1]
        return _graded_pass(G, self.bound, d, lambda m: g0 ** (m + 1), lambda m, j: -g0 ** (j - 1))

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


def _graded(s: TimesSeries) -> tuple[dict[int, list], int]:
    """``(parts, d)``: the terms of ``s`` as ``(key, n)`` pairs, the integer
    n over d the lcm of the denominators, grouped by weight."""
    nums, d = _integer_row(s.terms.values())
    parts: dict[int, list] = {}
    for k, n in zip(s.terms, nums):
        parts.setdefault(weight(k), []).append((k, n))
    return parts, d


def _addmul(out: dict[Key, int], c: int, a: Iterable, b: list) -> None:
    """out += c·a·b for rows a, b of ``(key, int)`` pairs."""
    for (e1, p1), n1 in a:
        n1 *= c
        for (e2, p2), n2 in b:
            key = (_add_expo(e1, e2), _add_expo(p1, p2))
            out[key] = out.get(key, 0) + n1 * n2


def _dot(triples: list, bound: int | None) -> TimesSeries:
    """Σ c·a·b over ``(c, a, b)``, ``int`` c, cut at ``bound`` (None: no cut),
    as one ``int`` per key over D, the lcm of the d_a·d_b."""
    rows = [(c, _graded(a), _graded(b)) for c, a, b in triples]
    den = lcm(*[da * db for _, (_, da), (_, db) in rows])
    out: dict[Key, int] = {}
    for c, (A, da), (B, db) in rows:
        scale = den // (da * db) * c
        for wa, ra in A.items():
            for wb, rb in B.items():
                if bound is None or wa + wb <= bound:
                    _addmul(out, scale, ra, rb)
    return TimesSeries._make({k: Fraction(n, den) for k, n in out.items() if n}, bound)


def _graded_pass(G: dict[int, list], bound: int, num: int, den, scale) -> TimesSeries:
    """Σ_m num·N_m / den(m) through ``bound``, with N_0 = 1 and
    N_m = Σ_(j=1..m) scale(m, j)·G_j·N_(m−j): ``exp`` and ``invert``."""
    N = [[(ZERO_KEY, 1)]]
    out = {ZERO_KEY: Fraction(num, den(0))}
    for m in range(1, bound + 1):
        acc: dict[Key, int] = {}
        for j in range(1, m + 1):
            if j in G and N[m - j]:
                _addmul(acc, scale(m, j), G[j], N[m - j])
        N.append([(k, n) for k, n in acc.items() if n])
        q = den(m)
        out.update((k, Fraction(num * n, q)) for k, n in N[m])
    return TimesSeries._make(out, bound)
