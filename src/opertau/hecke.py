"""Affine Hecke algebra action on truncated tensor powers of V(z).

Scalars are Laurent polynomials in a formal q (never specialized except by
the explicit q -> 1 evaluation).  Every coefficient of T_i, X_i and their
products lies in Z[q, q^-1] and is stored as an ``int``; a ``Fraction``
appears only after a division (``divmod_shifted``, the gcd and the
canonical form of ``RatFunc``).  Basis labels are pairs (color, z-degree).

The generator T_i acts on adjacent slots.  On pure colors it is the
standard R-matrix rule

    e_k (x) e_k -> q e_k (x) e_k,
    e_k (x) e_l -> e_l (x) e_k             (k < l),
    e_l (x) e_k -> q e_k (x) e_l + (q-1) e_l (x) e_k,

and it extends to arbitrary z-degrees through the exact commutation rules

    T z_1 = z_2 T - (q-1) z_2,      T z_2 = z_1 T + (q-1) z_2,

which are forced by T X_1 T = q X_2 once X_i is multiplication by z on
slot i.  With that extension every defining relation holds as an exact
matrix identity on any z-window (the strings produced by T stay between
the two degrees involved), and the Bernstein recursion
X_{i+1} = q^{-1} T_i X_i T_i reproduces the slot shifts on the nose.

Each relation acts as the identity on the slots it does not name, so
``verify_relations`` checks it on a window made of only those slots.

The q-wedge quotient divides by sum_i Ker(T_i - q) = sum_i Im(T_i + 1)
(the quadratic relation, q generic), so it solves no nullspace over Q(q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from . import linalg
from .errors import BadArgument, WindowOverflow
from .series import Scalar, rat


def _div(c, d):
    """Exact c / d, as an int when it is one and as a Fraction otherwise."""
    if type(c) is int and type(d) is int and c % d == 0:
        return c // d
    f = Fraction(c) / d
    return f.numerator if f.denominator == 1 else f


def _addmul(out: dict, a: dict, b: dict) -> None:
    """out += a * b on {exponent: coefficient} dicts."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2


class QPoly:
    """Laurent polynomial in q over the rationals.

    Integer coefficients are stored as ``int``, the others as ``Fraction``;
    no coefficient is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Scalar] | None = None):
        out = {}
        for e, c in (terms or {}).items():
            c = rat(c)
            if c != 0:
                out[int(e)] = c.numerator if c.denominator == 1 else c
        self.terms = out

    @classmethod
    def _make(cls, terms: dict) -> "QPoly":
        """Trusted constructor for internal results: int exponents and int
        or Fraction coefficients; only drops the zero ones."""
        p = object.__new__(cls)
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def const(cls, c: Scalar) -> "QPoly":
        return cls({0: c})

    @classmethod
    def q(cls, e: int = 1) -> "QPoly":
        return cls({e: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return QPoly._make({e: -c for e, c in self.terms.items()})

    def _coerce(self, other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        raise TypeError(f"cannot combine QPoly with {type(other).__name__}")

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly._make(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out: dict = {}
        _addmul(out, self.terms, self._coerce(other).terms)
        return QPoly._make(out)

    __rmul__ = __mul__

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact division; raises if the remainder is nonzero."""
        q, r = self.divmod_shifted(other)
        if not r.is_zero:
            raise ArithmeticError("inexact QPoly division")
        return q

    def divmod_shifted(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Division with remainder after clearing Laurent shifts."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero QPoly")
        if self.is_zero:
            return ZERO, ZERO
        lo_s, lo_o = min(self.terms), min(other.terms)
        den = {e - lo_o: c for e, c in other.terms.items()}
        dd = max(den)
        lead = den[dd]
        quot: dict = {}
        work = {e - lo_s: c for e, c in self.terms.items()}
        for e in range(max(work) - dd, -1, -1):
            c = work.get(e + dd, 0)
            if c == 0:
                continue
            f = quot[e] = _div(c, lead)
            for eo, co in den.items():
                k = e + eo
                work[k] = work.get(k, 0) - f * co
                if work[k] == 0:
                    del work[k]
        return _shift_div(quot, lo_s - lo_o, 1), _shift_div(work, lo_s, 1)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*q")
            else:
                bits.append(f"{c}*q^{e}")
        return " + ".join(bits)


Q = QPoly.q()
ONE = QPoly.const(1)
ZERO = QPoly()
QINV = QPoly.q(-1)


def _shift_div(terms: dict, shift: int, d) -> QPoly:
    """q^shift (sum of c q^e over terms) / d."""
    return QPoly._make({e + shift: _div(c, d) for e, c in terms.items()})


def _poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    while not b.is_zero:
        _, r = a.divmod_shifted(b)
        a, b = b, r
    if a.is_zero:
        return a
    # normalize: min exponent 0, leading coefficient 1
    return _shift_div(a.terms, -min(a.terms), a.terms[max(a.terms)])


class RatFunc:
    """Rational function in q, gcd-reduced; the field for elimination."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly = ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = _poly_gcd(num, den)
        if not g.is_zero and g != ONE:
            num = num.divexact(g)
            den = den.divexact(g)
        # canonical: denominator has min exponent 0 and leading coeff 1
        lo, lead = min(den.terms), den.terms[max(den.terms)]
        self.num = _shift_div(num.terms, -lo, lead)
        self.den = _shift_div(den.terms, -lo, lead)

    @classmethod
    def from_scalar(cls, c) -> "RatFunc":
        if isinstance(c, RatFunc):
            return c
        if isinstance(c, QPoly):
            return cls(c)
        return cls(QPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other):
        other = RatFunc.from_scalar(other)
        return (self.num * other.den) == (other.num * self.den)

    def __neg__(self):
        # -num / den is still gcd-reduced with the same canonical denominator
        r = object.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __add__(self, other):
        other = RatFunc.from_scalar(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = RatFunc.from_scalar(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = RatFunc.from_scalar(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def invert(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverting zero rational function")
        return RatFunc(self.den, self.num)

    def __repr__(self):
        return f"({self.num})/({self.den})" if self.den != ONE else repr(self.num)


# -- the T action on one adjacent pair -----------------------------------------

PairKey = tuple[int, int, int, int]  # (zexp1, zexp2, color1, color2)


@lru_cache(maxsize=None)
def _t_pair(a: int, b: int, k: int, l: int) -> tuple[tuple[PairKey, QPoly], ...]:
    out: dict[PairKey, QPoly] = {}

    def acc(key, c):
        out[key] = out.get(key, ZERO) + c

    if a == 0 and b == 0:
        if k == l:
            return (((0, 0, k, l), Q),)
        if k < l:
            return (((0, 0, l, k), ONE),)
        return (((0, 0, l, k), Q), ((0, 0, k, l), Q - ONE))
    if a > 0:
        for (x, y, c, d), co in _t_pair(a - 1, b, k, l):
            acc((x, y + 1, c, d), co)
        acc((a - 1, b + 1, k, l), ONE - Q)
    elif b > 0:
        for (x, y, c, d), co in _t_pair(a, b - 1, k, l):
            acc((x + 1, y, c, d), co)
        acc((a, b, k, l), Q - ONE)
    elif a < 0:
        for (x, y, c, d), co in _t_pair(a + 1, b, k, l):
            acc((x, y - 1, c, d), co)
        acc((a, b, k, l), Q - ONE)
    else:
        for (x, y, c, d), co in _t_pair(a, b + 1, k, l):
            acc((x - 1, y, c, d), co)
        acc((a - 1, b + 1, k, l), ONE - Q)
    return tuple((key, c) for key, c in out.items() if not c.is_zero)


# vectors on the tensor window: {tuple of (color, zexp) slots: QPoly}
Slot = tuple[int, int]
QVector = dict[tuple[Slot, ...], QPoly]


def _vector(acc: dict) -> QVector:
    """{key: term dict} accumulated by _addmul, as a vector without zeros."""
    return {key: c for key, terms in acc.items() if (c := QPoly._make(terms)).terms}


def _combine(*parts: tuple[QVector, QPoly]) -> QVector:
    """The sum of c v over the (v, c) parts."""
    acc: dict = {}
    for v, c in parts:
        for key, a in v.items():
            _addmul(acc.setdefault(key, {}), a.terms, c.terms)
    return _vector(acc)


def basis_vector(key) -> QVector:
    return {tuple(key): ONE}


class TensorWindow:
    """Truncated V(z)^{tensor N} with slots holding (color, z-degree)."""

    def __init__(self, n: int, N: int, zrange: tuple[int, int]):
        if n < 1 or N < 1 or zrange[0] > zrange[1]:
            raise BadArgument("bad tensor window parameters")
        self.n = n
        self.N = N
        self.zrange = zrange

    @property
    def dim(self) -> int:
        return self.n * (self.zrange[1] - self.zrange[0] + 1)

    def slots(self, restrict: tuple[int, int] | None = None) -> list[Slot]:
        lo, hi = restrict if restrict is not None else self.zrange
        return [
            (i, j) for j in range(lo, hi + 1) for i in range(1, self.n + 1)
        ]

    def basis(self, restrict: tuple[int, int] | None = None):
        return [tuple(key) for key in iproduct(self.slots(restrict), repeat=self.N)]

    def _check_zexp(self, j: int):
        if not self.zrange[0] <= j <= self.zrange[1]:
            raise WindowOverflow(f"z-degree {j} left the window {self.zrange}")

    # -- operators ------------------------------------------------------------

    def hecke_T(self, i: int):
        """T_i on adjacent slots (i, i+1), 1-based."""
        if not 1 <= i <= self.N - 1:
            raise BadArgument("T index out of range")

        def op(v: QVector) -> QVector:
            acc: dict = {}
            for key, c in v.items():
                (k, a), (l, b) = key[i - 1], key[i]
                for (x, y, c1, c2), co in _t_pair(a, b, k, l):
                    self._check_zexp(x)
                    self._check_zexp(y)
                    nk = key[: i - 1] + ((c1, x), (c2, y)) + key[i + 1:]
                    _addmul(acc.setdefault(nk, {}), c.terms, co.terms)
            return _vector(acc)

        return op

    def hecke_T_inv(self, i: int):
        """T_i^{-1} = q^{-1} T_i + (q^{-1} - 1)."""
        T = self.hecke_T(i)
        return lambda v: _combine((T(v), QINV), (v, QINV - ONE))

    def hecke_X(self, i: int, by: int = 1):
        """X_i^{by}: multiplication by z^{by} on slot i."""
        if not 1 <= i <= self.N:
            raise BadArgument("X index out of range")

        def op(v: QVector) -> QVector:
            out: QVector = {}
            for key, c in v.items():
                color, zexp = key[i - 1]
                self._check_zexp(zexp + by)
                if c.terms:
                    out[key[: i - 1] + ((color, zexp + by),) + key[i:]] = c
            return out

        return op

    def hecke_X_bernstein(self, i: int):
        """X_i by the recursion X_{i+1} = q^{-1} T_i X_i T_i from X_1."""
        if i == 1:
            return self.hecke_X(1)
        prev = self.hecke_X_bernstein(i - 1)
        T = self.hecke_T(i - 1)
        return lambda v: _combine((T(prev(T(v))), QINV))


# -- relation verification -------------------------------------------------------

# A relation is a sum of (coefficient, word); a word is a tuple of operator
# tokens applied right to left: ("T", i), ("T^-1", i), ("X", i, by) or
# ("B", i), the Bernstein X_i built from X_1 and T_1 .. T_{i-1}.
_MAKE = {"T": "hecke_T", "T^-1": "hecke_T_inv", "X": "hecke_X", "B": "hecke_X_bernstein"}


def _named_slots(kind: str, i: int) -> range:
    if kind == "B":
        return range(1, i + 1)
    return range(i, i + 2 if kind.startswith("T") else i + 1)


def _relations(N: int):
    """(name, lhs - rhs, raised) for every defining relation; the words
    raise a z-degree by at most `raised`, so the check stops that far
    below the top of the window."""
    def w(*tokens):
        return ONE, tokens

    for i in range(1, N):
        T = ("T", i)
        yield f"T_{i} T_{i}^-1 = 1", (w(("T^-1", i), T), (-ONE, ())), 0
        yield f"(T_{i}+1)(T_{i}-q) = 0", (w(T, T), (ONE - Q, (T,)), (-Q, ())), 0
    for i in range(1, N + 1):
        yield f"X_{i} X_{i}^-1 = 1", (w(("X", i, -1), ("X", i, 1)), (-ONE, ())), 1
    for i in range(1, N - 1):
        a, b = ("T", i), ("T", i + 1)
        yield f"T_{i} T_{i+1} T_{i} = T_{i+1} T_{i} T_{i+1}", (w(a, b, a), (-ONE, (b, a, b))), 0
    for i in range(1, N):
        for j in range(1, N):
            if abs(i - j) > 1:
                a, b = ("T", i), ("T", j)
                yield f"T_{i} T_{j} = T_{j} T_{i}", (w(a, b), (-ONE, (b, a))), 0
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            a, b = ("X", i, 1), ("X", j, 1)
            yield f"X_{i} X_{j} = X_{j} X_{i}", (w(a, b), (-ONE, (b, a))), 2
    for i in range(1, N):
        for j in range(1, N + 1):
            if j not in (i, i + 1):
                a, b = ("X", j, 1), ("T", i)
                yield f"X_{j} T_{i} = T_{i} X_{j}", (w(a, b), (-ONE, (b, a))), 1
    for i in range(1, N):
        T = ("T", i)
        yield f"T_{i} X_{i} T_{i} = q X_{i+1}", (w(T, ("X", i, 1), T), (-Q, (("X", i + 1, 1),))), 1
    for i in range(2, N + 1):
        yield f"Bernstein X_{i} = z on slot {i}", (w(("B", i)), (-ONE, (("X", i, 1),))), 1


def _apply(ops: dict, word: tuple, v: QVector) -> QVector:
    for t in reversed(word):
        v = ops[t](v)
    return v


def verify_relations(win: TensorWindow) -> list[tuple[str, bool]]:
    """Check every defining relation as an exact identity on the window.

    A relation acts as the identity on the slots it does not name, so it
    holds on the window exactly when lhs - rhs vanishes on the window of
    its named slots alone, renumbered from 1 (same n and zrange); a
    relation whose renumbered form repeats is checked once.  Relations
    involving X are tested on the sub-window that keeps all intermediate
    z-degrees inside the configured zrange.
    """
    lo, hi = win.zrange
    verdicts: dict = {}
    results: list[tuple[str, bool]] = []
    for name, rel, raised in _relations(win.N):
        named = sorted({s for _, word in rel for t in word for s in _named_slots(*t[:2])})
        local = {s: p for p, s in enumerate(named, 1)}
        rel = tuple((c, tuple((t[0], local[t[1]], *t[2:]) for t in word)) for c, word in rel)
        shape = (len(named), rel, raised)
        if shape not in verdicts:
            sub = TensorWindow(win.n, len(named), win.zrange)
            ops = {t: getattr(sub, _MAKE[t[0]])(*t[1:]) for _, word in rel for t in word}
            verdicts[shape] = all(
                not _combine(*((_apply(ops, word, v), c) for c, word in rel))
                for v in map(basis_vector, sub.basis((lo, hi - raised)))
            )
        results.append((name, verdicts[shape]))
    return results


# -- q-wedge quotient ----------------------------------------------------------


def _image_gens(win: TensorWindow, i: int) -> list[QVector]:
    """(T_i + 1)e for each basis vector e of the window."""
    T = win.hecke_T(i)
    return [_combine((T(e), ONE), (e, ONE)) for e in map(basis_vector, win.basis())]


class WedgeReducer:
    """Reduction modulo sum_i Ker(T_i - q) on a window.

    On the window (T_i + 1)(T_i - q) = 0, and for q generic the roots -1
    and q differ, so Ker(T_i - q) = Im(T_i + 1): the images (T_i + 1)e of
    the basis vectors span it.  They are echelonized together over Q(q);
    reduction against the echelon gives the canonical representative.
    """

    def __init__(self, win: TensorWindow):
        self.window = win
        gens = [{k: RatFunc(c) for k, c in g.items()} for i in range(1, win.N)
                for g in _image_gens(win, i)]
        self.rows, self.pivots = linalg.echelon(gens, win.basis(), RatFunc.invert)
        self.quotient_dim = win.dim ** win.N - len(self.pivots)

    def reduce(self, v: QVector) -> dict:
        """Canonical representative as {key: RatFunc}."""
        slots, N = set(self.window.slots()), self.window.N
        if any(len(k) != N or not slots.issuperset(k) for k in v):
            raise WindowOverflow("vector leaves the reducer's window")
        work = {k: RatFunc.from_scalar(c) for k, c in v.items()}
        return linalg.remainder(work, self.rows, self.pivots)

