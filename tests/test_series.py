import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau.errors import NotIntegrable, NotInvertible
from opertau.series import DualSeries, TruncSeries, tpoly

from .conftest import random_poly


def series_strategy(order=10):
    return st.builds(
        lambda pole, coeffs: TruncSeries(pole, coeffs, pole + len(coeffs)),
        st.integers(min_value=-4, max_value=3),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=9),
    )


def brute_convolution(a: TruncSeries, b: TruncSeries) -> dict:
    """Independent convolution oracle over the exactly-known window."""
    order = min(a.order + b.pole, b.order + a.pole)
    out = {}
    for i in range(a.pole, a.order):
        for j in range(b.pole, b.order):
            if i + j < order:
                out[i + j] = out.get(i + j, Fraction(0)) + a.coeff(i) * b.coeff(j)
    return {k: v for k, v in out.items() if v != 0}, order


class TestMul:
    def test_difference_of_squares(self):
        one_plus = tpoly({0: 1, 1: 1})
        one_minus = tpoly({0: 1, 1: -1})
        assert (one_plus * one_minus) == tpoly({0: 1, 2: -1}, order=13).truncate(12)

    def test_identity(self, rng):
        for _ in range(10):
            a = random_poly(rng, 6, laurent_from=-3)
            assert (TruncSeries.one(12) * a).agrees(a)

    def test_geometric_inverse_by_convolution_oracle(self):
        geo = TruncSeries(0, [1] * 12, 12)  # sum t^k
        prod = geo * tpoly({0: 1, 1: -1})
        expect, order = brute_convolution(geo, tpoly({0: 1, 1: -1}))
        assert dict(prod.items()) == expect
        assert prod.order == order
        assert prod.is_one

    def test_random_against_oracle(self, rng):
        for _ in range(25):
            a = random_poly(rng, 5, laurent_from=rng.randint(-3, 0))
            b = random_poly(rng, 4, laurent_from=rng.randint(-2, 0))
            expect, order = brute_convolution(a, b)
            got = a * b
            assert dict(got.items()) == expect
            assert got.order == order

    def test_zero_times_zero_claims_sum_of_orders(self):
        # O(t^-3) * O(t^-4): the unknown tails meet no earlier than t^-7
        prod = TruncSeries.zero(-3) * TruncSeries.zero(-4)
        assert prod.order == -7 and prod.is_zero
        # completions t^-3 and t^-4 multiply to t^-7, which a claim of
        # O(t^-4) would have declared zero
        completed = TruncSeries.monomial(-3, 1, 0) * TruncSeries.monomial(-4, 1, 0)
        assert completed.coeff(-7) == 1

    def test_deep_pole_product(self):
        # (t^-9 + 2 t^-8)^2 = t^-18 + 4 t^-17 + 4 t^-16, exact through t^2
        a = tpoly({-9: 1, -8: 2})
        prod = a * a
        assert prod == TruncSeries(-18, [1, 4, 4] + [0] * 18, 3)
        assert (dict(prod.items()), prod.order) == brute_convolution(a, a)


class TestDerivative:
    def test_monomials(self):
        assert tpoly({2: 1}).derivative() == tpoly({1: 2}, order=11)
        assert tpoly({-2: 1}).derivative() == tpoly({-3: -2}, order=11)

    def test_product_rule(self, rng):
        for _ in range(15):
            a = random_poly(rng, 4, laurent_from=-2)
            b = random_poly(rng, 4, laurent_from=-1)
            lhs = (a * b).derivative()
            rhs = a.derivative() * b + a * b.derivative()
            assert lhs.agrees(rhs)


class TestInvert:
    def test_geometric(self):
        inv = tpoly({0: 1, 1: -1}).invert()
        assert dict(inv.items()) == {k: Fraction(1) for k in range(12)}

    def test_shifted_unit(self):
        a = tpoly({1: 1, 2: 1})  # t(1+t)
        inv = a.invert()
        assert (a * inv).is_one
        assert inv.pole == -1

    def test_zero_raises(self):
        with pytest.raises(NotInvertible):
            TruncSeries.zero().invert()

    def test_hundred_random_units(self, rng):
        for _ in range(100):
            a = random_poly(rng, 5, laurent_from=rng.randint(-2, 0))
            prod = a * a.invert()
            assert prod.is_one

    def test_deep_pole_inverse(self):
        # 1 / (t^17 (1 + t)) = t^-17 (1 - t + t^2 - ...), width 7 kept
        a = tpoly({17: 1, 18: 1}, order=24)
        inv = a.invert()
        assert inv == TruncSeries(-17, [(-1) ** k for k in range(7)], -10)
        assert (a * inv).is_one


class TestAntiderivative:
    def test_roundtrip(self, rng):
        for _ in range(10):
            a = random_poly(rng, 5)
            assert a.antiderivative().derivative().agrees(a)

    def test_residue_obstruction(self):
        with pytest.raises(NotIntegrable):
            tpoly({-1: 3}).antiderivative()


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).agrees(a + (b + c))
    assert (a * (b + c)).agrees(a * b + a * c)
    assert ((a * b) * c).agrees(a * (b * c))
    assert (a * b).agrees(b * a)


class TestDual:
    def test_product_rule_for_eps(self, rng):
        for _ in range(10):
            a, b = random_poly(rng, 4), random_poly(rng, 3)
            c, d = random_poly(rng, 4), random_poly(rng, 3)
            x = DualSeries(a, b)
            y = DualSeries(c, d)
            p = x * y
            assert p.re.agrees(a * c)
            assert p.du.agrees(a * d + b * c)

    def test_eps_squared_vanishes(self, rng):
        b = random_poly(rng, 4)
        eps = DualSeries(TruncSeries.zero(12), b)
        sq = eps * eps
        assert sq.re.is_zero and sq.du.is_zero

    def test_invert(self, rng):
        a = tpoly({0: 1, 1: 2, 3: -1})
        b = random_poly(rng, 4)
        x = DualSeries(a, b)
        prod = x * x.invert()
        assert prod.re.is_one
        assert prod.du.is_zero


def test_json_shape_helpers_exist():
    # placeholder: JSON round trips are covered in test_jsonio
    s = tpoly({-1: Fraction(1, 2), 2: 3})
    assert s.coeff(-1) == Fraction(1, 2)
    assert s.coeff(-5) == 0
    with pytest.raises(KeyError):
        s.coeff(99)
