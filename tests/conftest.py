import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from opertau import linalg
from opertau.errors import NotMonic
from opertau.fock import partitions
from opertau.grass import GrassPoint
from opertau.hecke import QPoly, RatFunc
from opertau.krichever import _monomial
from opertau.psido import DEFAULT_TAIL_DEPTH, PsiDO, _depth_max, compose
from opertau.series import TruncSeries
from opertau.times import TimesSeries, _trim, weight


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_poly(rng, deg: int, order: int = 12, lo: int = -9, hi: int = 9,
                laurent_from: int = 0) -> TruncSeries:
    """Random polynomial (or Laurent polynomial) series with small integers."""
    d = {}
    for k in range(laurent_from, deg + 1):
        c = rng.randint(lo, hi)
        if c:
            d[k] = Fraction(c)
    if not d:
        d[deg] = Fraction(1)
    return TruncSeries.from_dict(d, order)


def rank(m, inverse=linalg._reciprocal) -> int:
    """The number of pivots of the kernel's forward elimination (no back
    substitution), an oracle for the pivots of ``rref`` and ``echelon``."""
    return len(linalg._eliminate([row[:] for row in m], inverse, bool, jordan=False)[0])


def shapovalov(mod, u, w):
    """<u v, w v> in a vacuum module, via the transpose antiautomorphism
    e_m -> f_{-m}."""
    flip = {"e": "f", "f": "e", "h": "h"}
    elem = {w: Fraction(1)}
    for m, x in u:  # sigma(u) reverses u, so its last letter acts first
        elem = mod.act((-m, flip[x]), elem)
    return elem.get((), Fraction(0))


def gram_matrix(mod, depth, weight):
    """The slice basis of a vacuum module and its Shapovalov Gram matrix."""
    basis = mod.slice_basis(depth, weight)
    return basis, [[shapovalov(mod, u, w) for w in basis] for u in basis]


# -- references for the tests: constructions no program path needs --------------


def classical_antisymmetrize(v):
    """q = 1 oracle: sign-sorted normal form by flattened slot order."""
    out: dict = {}
    for key, c in v.items():
        if len(set(key)) != len(key):
            continue
        inv = sum(
            1
            for a in range(len(key))
            for b in range(a + 1, len(key))
            if key[a] > key[b]
        )
        skey = tuple(sorted(key))
        cur = out.get(skey, Fraction(0))
        out[skey] = cur + (at_one(c) if isinstance(c, QPoly) else Fraction(c)) * (
            (-1) ** inv
        )
    return {k: c for k, c in out.items() if c != 0}


def at_one(c):
    """The value at q = 1 of a QPoly or a RatFunc."""
    if isinstance(c, RatFunc):
        d = at_one(c.den)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at q = 1")
        return at_one(c.num) / d
    return sum(c.terms.values(), Fraction(0))


def antiderivative(s):
    """Termwise antiderivative of a TruncSeries with constant 0; a nonzero
    t^-1 coefficient has none (ValueError)."""
    coeffs = dict(s.items())
    if coeffs.get(-1):
        raise ValueError("nonzero t^-1 coefficient")
    return TruncSeries.from_dict({e + 1: c / (e + 1) for e, c in coeffs.items()}, s.order + 1)


def window_basis(charge, window):
    """All Maya diagrams of the given charge with energy <= window."""
    return [(charge, lam) for e in range(window + 1) for lam in partitions(e)]


def standard_point(window):
    """H_+ = span{z^k : k >= 0} in the given window."""
    return GrassPoint(window, [{k: 1} for k in range(0, window[1])])


def evaluate_relation(rel, P, Q):
    """F(P, Q) for a spectral relation F of ``bc_relation``."""
    acc = PsiDO.zero()
    memo: dict = {}
    for (a, b), c in rel.coeffs:
        acc = acc + _monomial(P, Q, a, b, memo) * c
    return acc


def invert_monic0(A):
    """Inverse of A = a_0 + (orders <= -1) with a_0 an invertible function,
    down to DEFAULT_TAIL_DEPTH, by the geometric series in A/a_0 - 1."""
    if A.is_zero or A.top != 0:
        raise NotMonic("inverse implemented for top order 0 only")
    a0inv = PsiDO({0: A.terms[0].invert()})
    C = compose(a0inv, A)  # 1 + strictly negative orders
    one = PsiDO({0: C.terms[0]})  # the exact 1 coefficient, window-tracked
    N = C - one
    acc = one
    term = one
    while not (term.is_zero or N.is_zero):
        if term.top + N.top < DEFAULT_TAIL_DEPTH:
            break
        term = compose(term, -N)
        term = PsiDO({i: c for i, c in term.terms.items() if i >= DEFAULT_TAIL_DEPTH},
                     _depth_max(term.depth, DEFAULT_TAIL_DEPTH))
        if term.is_zero:
            break
        acc = acc + term
    return compose(acc, a0inv)


# -- completion oracle: a truncated result may claim only coefficients that
# every completion of its inputs agrees on -------------------------------------

ORACLE_TOP = 7


def _monomials(top):
    """Monomials in t1, t2, t3, t'1 of weight <= top."""
    out = []
    for a in range(top + 1):
        for b in range(top // 2 + 1):
            for c in range(top // 3 + 1):
                for d in range(top + 1):
                    key = (_trim((a, b, c)), _trim((d,)))
                    if weight(key) <= top:
                        out.append(key)
    return out


MONOMIALS = _monomials(ORACLE_TOP)


def complete(s, rng):
    """The TimesSeries ``s`` with random coefficients on unknown monomials up
    to ORACLE_TOP; an exact ``s`` (bound None) is its own completion."""
    if s.bound is None:
        return s
    terms = dict(s.terms)
    for key in MONOMIALS:
        if weight(key) > s.bound and rng.random() < 0.5:
            terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return TimesSeries(terms, ORACLE_TOP)


def claims_hold(claimed, full):
    assert full.bound is None or (claimed.bound is not None and claimed.bound <= full.bound)
    for key in set(claimed.terms) | set(full.terms):
        if claimed.bound is None or weight(key) <= claimed.bound:
            assert claimed.coeff(key) == full.coeff(key), key


# a TruncSeries completion knows this many more exponents than the series
SERIES_EXTRA = 6


def complete_series(s, rng):
    """The TruncSeries ``s`` with random coefficients on the exponents
    [order, order + SERIES_EXTRA), which ``s`` does not know."""
    tail = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(SERIES_EXTRA)]
    return TruncSeries(s.pole, list(s.coeffs) + tail, s.order + SERIES_EXTRA)


def series_claims_hold(claimed, full):
    assert claimed.order <= full.order
    for k in range(min(claimed.pole, full.pole), claimed.order):
        assert claimed.coeff(k) == full.coeff(k), k
