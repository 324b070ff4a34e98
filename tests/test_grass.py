from collections import Counter
from fractions import Fraction
from math import factorial, prod

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau import grass, linalg
from opertau.errors import BadArgument, ChargeMismatch, DegenerateFrame
from opertau.fock import partitions
from opertau.grass import (
    GrassPoint,
    hirota_residual,
    plucker,
    random_perturbed_frame,
    tau_determinant,
    tau_schur,
)
from opertau.krichever import krichever_point
from opertau.oper import MiuraOper, miura_transform
from opertau.schur import h_complete, mn_character, schur_polynomial
from opertau.series import TruncSeries
from opertau.times import TimesSeries, weight

from .conftest import standard_point


def jacobi_trudi(lam, degree=None):
    """Small Jacobi-Trudi determinant oracle (explicit 1x1/2x2/3x3)."""
    ell = len(lam)
    h = lambda r: h_complete(r) if r >= 0 else TimesSeries.zero(None)
    m = [[h(lam[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    if ell == 1:
        return m[0][0]
    if ell == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if ell == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise NotImplementedError


class TestSchurPolynomials:
    def test_h_basics(self):
        t1 = TimesSeries.var(1)
        t2 = TimesSeries.var(2)
        assert h_complete(1) == t1
        assert h_complete(2) == t2 + t1 * t1 * Fraction(1, 2)

    def test_schur_equals_h_for_rows(self):
        for r in range(1, 7):
            assert schur_polynomial((r,)) == h_complete(r)

    def test_schur_against_jacobi_trudi(self):
        for lam in [(1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1)]:
            assert schur_polynomial(lam) == jacobi_trudi(lam), lam

    def test_character_values(self):
        assert mn_character((1, 1), (2,)) == -1
        assert mn_character((2,), (2,)) == 1
        assert mn_character((2, 1), (1, 1, 1)) == 2


def cycle_class_size(mu):
    """z_mu = prod k^{m_k} m_k!, straight from the multiplicities."""
    return prod(k**m * factorial(m) for k, m in Counter(mu).items())


class TestCharacterTable:
    @pytest.mark.parametrize("n", range(9))
    def test_orthogonality(self, n):
        parts = list(partitions(n))
        table = {(lam, mu): mn_character(lam, mu) for lam in parts for mu in parts}
        assert all(type(chi) is int for chi in table.values())
        for mu in parts:
            for nu in parts:
                col = sum(table[lam, mu] * table[lam, nu] for lam in parts)
                assert col == (cycle_class_size(mu) if mu == nu else 0), (mu, nu)
        for lam in parts:
            norm = sum(Fraction(table[lam, mu] ** 2, cycle_class_size(mu)) for mu in parts)
            assert norm == 1, lam


class TestWindowPoints:
    def test_standard_virtdim(self):
        W = standard_point((-4, 4))
        assert W.virtdim == 0

    def test_shifted_virtdims(self):
        lo, hi = -4, 4
        zplus = GrassPoint((lo, hi), [{k: 1} for k in range(1, hi)])
        assert zplus.virtdim == -1
        zminus = GrassPoint((lo, hi), [{k: 1} for k in range(-1, hi)])
        assert zminus.virtdim == 1

    def test_degenerate(self):
        with pytest.raises(DegenerateFrame):
            GrassPoint((-2, 2), [{0: 1}, {0: 2}])

    def test_echelon_idempotent(self, rng):
        W = random_perturbed_frame(rng, (-6, 6))
        W2 = GrassPoint(W.window, W.columns)
        assert W == W2

    def test_containment(self):
        W = standard_point((-4, 4))
        assert W.contains({2: Fraction(1)})
        assert not W.contains({-1: Fraction(1)})


class TestTau:
    def test_vacuum_tau(self):
        W = standard_point((-4, 4))
        assert tau_schur(W, 6) == TimesSeries.one(6)

    def test_single_perturbation(self):
        # W = span{z^0 + a z^-1, z, z^2, ...} gives tau = 1 + a t1
        a = Fraction(3, 7)
        lo, hi = -4, 4
        cols = [{0: 1, -1: a}] + [{k: 1} for k in range(1, hi)]
        W = GrassPoint((lo, hi), cols)
        tau = tau_schur(W, 5)
        expect = (TimesSeries.one(None) + TimesSeries.var(1) * a).truncate(5)
        assert tau == expect

    def test_charge_mismatch(self):
        W = GrassPoint((-4, 4), [{k: 1} for k in range(1, 4)])
        with pytest.raises(ChargeMismatch):
            tau_schur(W, 4)

    def test_determinant_oracle(self, rng):
        for _ in range(6):
            W = random_perturbed_frame(rng, (-6, 6))
            ts = tau_schur(W, 6)
            td = tau_determinant(W, 6)
            assert ts == td

    def test_plucker_top(self, rng):
        W = random_perturbed_frame(rng, (-5, 5))
        assert plucker(W, ()) == 1

    @pytest.mark.parametrize("negative", [1, 2])
    def test_determinant_oracle_outside_the_big_cell(self, rng, negative):
        # pivots -1, ..., -negative replace 0, ..., negative - 1: every
        # correlator entry of those columns has zero constant term, so the
        # determinant has columns without a unit pivot
        lo, hi = -8, 8
        pivots = list(range(-negative, 0)) + list(range(negative, hi))
        cols = [
            {p: Fraction(1), **{k: Fraction(rng.randint(-2, 2)) for k in range(lo, p)}}
            for p in pivots
        ]
        W = GrassPoint((lo, hi), cols)
        assert W.virtdim == 0 and plucker(W, ()) == 0
        td = tau_determinant(W, 8)
        assert td == tau_schur(W, 8)
        assert min(map(weight, td.terms)) == negative * negative  # lowest pi_lambda: square lambda


def expanded_tau_schur(W, degree):
    """The Pluecker-Schur tau summed over expanded s_lambda, as an oracle
    for the character sum of ``tau_schur``."""
    acc = TimesSeries.zero(degree)
    for n in range(degree + 1):
        for lam in partitions(n):
            c = grass.plucker(W, lam)
            if c != 0:
                acc = acc + schur_polynomial(lam).truncate(degree) * c
    top = grass.plucker(W, ())
    return acc * (1 / top) if top != 0 else acc


class TestCharacterSum:
    def assert_matches_expansion(self, W, degree):
        tau = tau_schur(W, degree)
        assert tau.bound == degree
        assert all(type(c) is Fraction for c in tau.terms.values())
        assert tau == expanded_tau_schur(W, degree)
        return tau

    @pytest.mark.parametrize("degree", [0, 6, 12])
    def test_random_frames(self, degree):
        for seed in range(3):
            W = random_perturbed_frame(random.Random(seed), (-8, 8), 3)
            self.assert_matches_expansion(W, degree)

    def test_outside_the_big_cell(self, rng):
        lo, hi = -6, 6
        pivots = [-1] + list(range(1, hi))
        cols = [
            {p: Fraction(1), **{k: Fraction(rng.randint(-2, 2), 3) for k in range(lo, p)}}
            for p in pivots
        ]
        W = GrassPoint((lo, hi), cols)
        assert plucker(W, ()) == 0
        tau = self.assert_matches_expansion(W, 8)
        assert tau.constant_term() == 0 and not tau.is_zero

    def test_negative_and_fractional_coordinates(self, monkeypatch):
        # on a reduced frame pi_empty is 0 or 1; rescaling each coordinate
        # by its own fraction (-2/3 for the empty partition) reaches the
        # normalization by a negative pi_empty and a nontrivial common
        # denominator in every weight
        W = random_perturbed_frame(random.Random(5), (-6, 6), 3)
        exact = grass.plucker

        def scaled(W, lam):
            return exact(W, lam) * Fraction(-(sum(lam) + 2), 2 * len(lam) + 3)

        monkeypatch.setattr(grass, "plucker", scaled)
        assert scaled(W, ()) == Fraction(-2, 3)
        tau = self.assert_matches_expansion(W, 8)
        assert tau.constant_term() == 1


class TestHirota:
    def test_tau_one(self):
        assert hirota_residual(TimesSeries.one(12), 6).is_zero

    def test_affine_tau(self):
        tau = TimesSeries.one(None) + TimesSeries.var(1) * Fraction(2, 3)
        assert hirota_residual(tau, 6).is_zero

    def test_random_frames(self, rng):
        for _ in range(4):
            W = random_perturbed_frame(rng, (-8, 8))
            tau = tau_schur(W, 12)
            assert hirota_residual(tau, 8).is_zero

    def test_negative_control(self):
        bad = TimesSeries.one(None) + TimesSeries.var(1) * TimesSeries.var(1)
        assert not hirota_residual(bad, 4).is_zero


def _hirota_monomial(f, g, powers):
    """Hirota monomial prod D_k^{a_k} applied to f.g, expanded term by term."""
    terms = [(f, g, Fraction(1))]
    for k, a in powers.items():
        for _ in range(a):
            new = []
            for (u, v, c) in terms:
                new.append((u.derivative(k), v, c))
                new.append((u, v.derivative(k), -c))
            terms = new
    acc = None
    for (u, v, c) in terms:
        t = u * v * c
        acc = t if acc is None else acc + t
    return acc


def reference_hirota(tau, degree):
    """The KP residual from the unfolded Hirota monomials (28 products)."""
    t = tau if tau.bound is not None else tau.truncate(degree + 4)
    r = (
        _hirota_monomial(t, t, {1: 4})
        + _hirota_monomial(t, t, {2: 2}) * 3
        + _hirota_monomial(t, t, {1: 1, 3: 1}) * (-4)
    )
    return r.truncate(degree)


def random_times(rng, top, bound, nterms=20):
    """Random series in t1..t4 and t'1 of weight <= top (not a KP tau)."""
    terms = {((), ()): Fraction(1)}
    while len(terms) < nterms:
        e = tuple(rng.randint(0, 2) for _ in range(4))
        p = (rng.randint(0, 1),)
        if weight((e, p)) <= top:
            terms[(e, p)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TimesSeries(terms, bound)


class TestLeibnizHirota:
    @pytest.mark.parametrize("degree, extra", [(3, 0), (4, 0), (4, 2), (5, 1), (8, 0)])
    def test_equals_reference_on_non_kp_taus(self, degree, extra):
        rng = random.Random(7 * degree + extra)
        for _ in range(3):
            bound = degree + 4 + extra
            tau = random_times(rng, bound, bound)
            got = hirota_residual(tau, degree)
            assert not got.is_zero
            assert got == reference_hirota(tau, degree)
            assert got.bound == degree

    def test_equals_reference_on_exact_input(self):
        rng = random.Random(11)
        for degree in (2, 4):
            tau = random_times(rng, degree + 6, None)
            got = hirota_residual(tau, degree)
            assert not got.is_zero
            assert got == reference_hirota(tau, degree)
            assert got.bound == degree

    def test_equals_reference_on_kp_tau(self, rng):
        W = random_perturbed_frame(rng, (-6, 6))
        tau = tau_schur(W, 9)
        got = hirota_residual(tau, 5)
        assert got == reference_hirota(tau, 5) == TimesSeries.zero(5)

    def test_short_bound_rejected(self):
        with pytest.raises(BadArgument):
            hirota_residual(TimesSeries.one(7), 4)

    def test_negative_degree_rejected(self):
        # an exact tau passes the bound check, so only the degree can refuse
        with pytest.raises(BadArgument, match="degree >= 0"):
            hirota_residual(TimesSeries.one(None), -2)


# -- Pluecker coordinates: pivot-complement minor against the full determinant


def reference_plucker(W, lam):
    """The full hi x hi determinant of the frame on the rows k - 1 - lambda_k,
    k = 1..hi (the definition that ``plucker`` reduces to one minor)."""
    lo, hi = W.window
    if W.virtdim != 0:
        raise ChargeMismatch("Pluecker coordinates need a charge-0 point")
    if lam and (len(lam) > hi or lam[0] > -lo):
        return Fraction(0)
    rows = [k - 1 - (lam[k - 1] if k <= len(lam) else 0) for k in range(1, hi + 1)]
    return linalg.det([[col.get(r, Fraction(0)) for col in W.columns] for r in rows])


@st.composite
def charge_zero_points(draw):
    """Charge-0 frames with any pivot set: the big cell, pivots below 0 and
    gaps above 0, each column random below its pivot."""
    lo = draw(st.integers(min_value=-6, max_value=0))
    hi = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        pivots = list(range(hi))
    else:
        pivots = sorted(draw(st.permutations(range(lo, hi)))[:hi])
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    cols = [
        {p: Fraction(1), **{k: draw(entries) for k in range(lo, p) if draw(st.booleans())}}
        for p in pivots
    ]
    return GrassPoint((lo, hi), cols)


def roundtrip_point(seed, index, n, window=(-10, 12)):
    """Krichever point of the Miura datum of the benchmark's roundtrip round:
    n degree-2 chi_i at order 20 with nonzero coefficients in [-9, 9] and
    distinct constant terms, drawn from Random(f"roundtrip/{seed}/{index}")."""
    rng = random.Random(f"roundtrip/{seed}/{index}")
    nonzero = [c for c in range(-9, 10) if c]
    while True:
        chi = tuple(
            TruncSeries.from_dict({k: Fraction(rng.choice(nonzero)) for k in range(3)}, 20)
            for _ in range(n)
        )
        if len({c.coeff(0) for c in chi}) == n:
            return krichever_point(miura_transform(MiuraOper(n, chi)), window)


class TestPluckerMinor:
    @settings(max_examples=60, deadline=None)
    @given(charge_zero_points())
    def test_equals_full_determinant(self, W):
        for n in range(9):
            for lam in partitions(n):
                assert plucker(W, lam) == reference_plucker(W, lam), lam

    def test_tau_schur_on_roundtrip_points(self, monkeypatch):
        points = [roundtrip_point(0, i, n) for i, n in enumerate([2, 2, 2, 3])]
        taus = [tau_schur(W, 12) for W in points]
        monkeypatch.setattr(grass, "plucker", reference_plucker)
        assert taus == [tau_schur(W, 12) for W in points]
        assert all(len(t.terms) > 1 for t in taus)
