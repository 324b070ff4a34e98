import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from opertau import linalg
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


def gram_matrix(mod, depth, weight):
    """The slice basis of a vacuum module and its Shapovalov Gram matrix."""
    basis = mod.slice_basis(depth, weight)
    return basis, [[mod.shapovalov(u, w) for w in basis] for u in basis]


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
