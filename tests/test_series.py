import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau.errors import NotInvertible
from opertau.series import DualSeries, TruncSeries, _dot, tpoly

from .conftest import antiderivative, complete_series, random_poly, series_claims_hold

F = Fraction


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


def reference_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The Fraction convolution loop that ``*`` replaced: one Fraction
    ``+=`` per term pair, rebuilt through the public constructor."""
    if a.is_zero or b.is_zero:
        return TruncSeries.zero(min(a.order + b.pole, b.order + a.pole))
    pole = a.pole + b.pole
    order = min(a.order + b.pole, b.order + a.pole)
    cs = [Fraction(0)] * (order - pole)
    for i, x in a.items():
        if i + b.pole >= order:
            break
        for j, y in b.items():
            k = i + j
            if k >= order:
                break
            cs[k - pole] += x * y
    return TruncSeries(pole, cs, order)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

KERNEL_CASES = {
    "negative poles": (tpoly({-3: F(1, 2), -1: 2, 2: F(-5, 7)}), tpoly({-2: 3, 0: F(1, 3)})),
    "unequal orders": (
        TruncSeries(-1, [F(2, 3), 0, 1, F(-1, 4), 5, F(1, 6)], 5),
        TruncSeries(0, [1, F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 7), F(1, 8), 9], 9),
    ),
    "zeros inside the window": (
        TruncSeries(0, [F(1, 3), 0, 0, F(2, 5), 0, 0, 0, F(-1, 2)], 8),
        TruncSeries(-2, [4, 0, F(-3, 7), 0, 0, 1, 0, 0, 0, 0], 8),
    ),
    "coefficients that cancel": (
        TruncSeries(0, [1] * 10, 10),  # 1 / (1 - t) through t^9
        tpoly({0: 1, 1: -1}, order=14),
    ),
    "many distinct denominators": (
        TruncSeries(-4, [F((-1) ** i * (i + 1), p) for i, p in enumerate(PRIMES)], 8),
        TruncSeries(1, [F(p, p * p + 1) for p in PRIMES[:9]], 10),
    ),
    "short polynomials in a wide window": (
        tpoly({0: F(1, 2), 2: 3}, order=16),
        tpoly({-1: F(-2, 3), 0: F(5, 4)}, order=16),
    ),
    "trailing zeros meet the window's end": (
        TruncSeries(0, [1, F(1, 2), 0, 0, F(1, 3), 0], 6),
        TruncSeries(0, [F(2, 5), 0, 0, F(-1, 7), 0, 0], 6),
    ),
    "zero factor": (TruncSeries.zero(5), tpoly({-2: F(1, 3), 0: 1})),
    "zero factor with a negative order": (tpoly({1: F(-2, 9)}, order=6), TruncSeries.zero(-3)),
    "deep pole times a short window": (
        TruncSeries(-9, [F(1, 2), F(-1, 3), F(1, 5)], -6),
        TruncSeries(-1, [F(k + 1, k + 2) for k in range(13)], 12),
    ),
}


class TestIntegerKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_equals_fraction_loop(self, case):
        a, b = KERNEL_CASES[case]
        for x, y in ((a, b), (b, a)):
            got, want = x * y, reference_mul(x, y)
            assert (got.pole, got.order, got.coeffs) == (want.pole, want.order, want.coeffs)
            assert all(type(c) is Fraction for c in got.coeffs)

    def test_cancelling_product_is_exactly_one(self):
        a, b = KERNEL_CASES["coefficients that cancel"]
        prod = a * b
        assert prod.is_one and prod.coeffs == (1,) + (0,) * 9

    def test_pole_sits_at_the_sum_of_poles(self):
        # a product of canonical factors has lowest coefficient a_0 b_0 != 0,
        # so the pole never moves up; the trusted constructor still strips
        for a, b in KERNEL_CASES.values():
            if not (a.is_zero or b.is_zero):
                assert (a * b).pole == a.pole + b.pole
        s = TruncSeries._make(-3, 1, [0, 0, 2, 0], 4)
        assert (s.pole, s.order, s.nums, s.den) == (-1, 1, (1,), 2)
        assert s.coeffs == (F(1, 2), F(0))

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_random_against_fraction_loop(self, a, b):
        got, want = a * b, reference_mul(a, b)
        assert (got.pole, got.order, got.coeffs) == (want.pole, want.order, want.coeffs)


# fractional coefficients with zeros, poles down to -6 and widths 0..8
fraction_series = st.builds(
    lambda pole, coeffs: TruncSeries(pole, coeffs, pole + len(coeffs)),
    st.integers(min_value=-6, max_value=3),
    st.lists(st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=7)),
             max_size=8),
)
seeds = st.integers(min_value=0, max_value=2**32)
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=5)


class TestCompletionOracle:
    """A result claims only coefficients that every completion of its inputs
    (random coefficients from each input's ``order`` on) agrees on."""

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, fraction_series, seeds)
    def test_mul(self, a, b, seed):
        rng = random.Random(seed)
        series_claims_hold(a * b, complete_series(a, rng) * complete_series(b, rng))

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, fraction_series, seeds)
    def test_add(self, a, b, seed):
        rng = random.Random(seed)
        series_claims_hold(a + b, complete_series(a, rng) + complete_series(b, rng))

    @settings(max_examples=60, deadline=None)
    @given(fraction_series.filter(lambda s: not s.is_zero), seeds)
    def test_invert(self, a, seed):
        series_claims_hold(a.invert(), complete_series(a, random.Random(seed)).invert())

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, fraction_series, seeds)
    def test_sub(self, a, b, seed):
        rng = random.Random(seed)
        series_claims_hold(a - b, complete_series(a, rng) - complete_series(b, rng))

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, seeds)
    def test_derivative(self, a, seed):
        series_claims_hold(a.derivative(), complete_series(a, random.Random(seed)).derivative())

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, scalars, seeds)
    def test_scalar_mul(self, a, c, seed):
        series_claims_hold(a * c, complete_series(a, random.Random(seed)) * c)

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, st.integers(min_value=-8, max_value=12), seeds)
    def test_truncate(self, a, cut, seed):
        series_claims_hold(a.truncate(cut), complete_series(a, random.Random(seed)))

    @settings(max_examples=60, deadline=None)
    @given(fraction_series, fraction_series, seeds)
    def test_agrees(self, a, b, seed):
        # agreement is a claim about the shared window only: it holds exactly
        # when the completions agree there, and a series agrees with its own
        rng = random.Random(seed)
        full_a, full_b = complete_series(a, rng), complete_series(b, rng)
        shared = range(min(a.pole, b.pole), min(a.order, b.order))
        assert a.agrees(b) == all(full_a.coeff(k) == full_b.coeff(k) for k in shared)
        assert a.agrees(full_a) and full_a.agrees(a)


def rebuilt(pole, values, order):
    """A series built through the public constructor, which runs rat() on
    every value and checks the width."""
    return TruncSeries(pole, values, order)


class TestTrustedConstructors:
    """``-``, scalar ``*``, ``derivative``, ``truncate`` and ``+`` build their
    results with ``_make``; they equal the public constructor's, Fractions
    and canonical windows included."""

    CASES = [
        TruncSeries(-2, [F(1, 2), 0, F(-3, 7), 2, 0], 3),
        TruncSeries(0, [5, 0, F(1, 3)], 3),  # its derivative drops t^0
        TruncSeries(-1, [F(2, 9), 0, 0, 0], 3),  # its t^-1 term cancels in x + (-x)
        TruncSeries.zero(4),
        tpoly({1: F(-4, 5), 3: 1}, order=7),
    ]

    @pytest.mark.parametrize("i", range(len(CASES)))
    def test_equal_to_public_constructor(self, i):
        x = self.CASES[i]
        cs, p, o = list(x.coeffs), x.pole, x.order
        got_want = [
            (-x, rebuilt(p, [-c for c in cs], o)),
            (x * 3, rebuilt(p, [3 * c for c in cs], o)),
            (x * F(-2, 3), rebuilt(p, [F(-2, 3) * c for c in cs], o)),
            (x.derivative(), rebuilt(p - 1, [(p + k) * c for k, c in enumerate(cs)], o - 1)),
            (x.truncate(o - 2), rebuilt(min(p, o - 2), cs[:max(0, o - 2 - p)], o - 2)),
            (x.truncate(p - 1), rebuilt(p - 1, [], p - 1)),
            (x + (-x), TruncSeries.zero(o)),
            (x + 2, rebuilt(min(p, 0), [(x.coeff(k) if k >= p else 0) + (k == 0) * 2
                                        for k in range(min(p, 0), o)], o)),
        ]
        for got, want in got_want:
            assert (got.pole, got.order, got.coeffs) == (want.pole, want.order, want.coeffs)
            assert all(type(c) is Fraction for c in got.coeffs)


def is_canonical(s: TruncSeries) -> bool:
    """The stored row is canonical: an int tuple with nonzero ends inside the
    window, den > 0 and gcd(den, *nums) = 1; zero is (order, order, (), 1)."""
    if type(s.nums) is not tuple or not all(type(x) is int for x in s.nums):
        return False
    if not s.nums:
        return (s.pole, s.den) == (s.order, 1)
    return (s.nums[0] != 0 and s.nums[-1] != 0 and s.den > 0
            and gcd(s.den, *s.nums) == 1 and s.pole + len(s.nums) <= s.order)


def fraction_row(pole, values, order):
    """(pole, order, coeffs) of Fraction ``values`` on [pole, order) with the
    exact leading zeros moved into the pole: what a series built from them
    reports."""
    values = [Fraction(v) for v in values]
    assert len(values) == order - pole
    lead = 0
    while lead < len(values) and not values[lead]:
        lead += 1
    return pole + lead, order, tuple(values[lead:])


def window(s):
    return s.pole, s.order, s.coeffs


def value(s, k):
    """The Fraction at t^k (k < s.order) read from ``coeffs``."""
    return s.coeffs[k - s.pole] if k >= s.pole else Fraction(0)


def reference_plus(a, b, sign):
    order = min(a.order, b.order)
    pole = min(a.pole, b.pole, order)
    return fraction_row(pole, [value(a, k) + sign * value(b, k) for k in range(pole, order)], order)


def reference_dot(triples):
    """Σ c·a·b by a Fraction loop over every pair of coefficients."""
    order = min(min(a.pole + b.order, a.order + b.pole) for _, a, b in triples)
    pole = min([a.pole + b.pole for _, a, b in triples] + [order])
    acc = [Fraction(0)] * (order - pole)
    for c, a, b in triples:
        for i, x in enumerate(a.coeffs, a.pole):
            for j, y in enumerate(b.coeffs, b.pole):
                if i + j < order:
                    acc[i + j - pole] += c * x * y
    return fraction_row(pole, acc, order)


def reference_invert(a):
    """The Fraction recursion for 1/a on a window of a's width."""
    p, cs = a.pole, a.coeffs
    out = [1 / cs[0]]
    for k in range(1, len(cs)):
        out.append(-out[0] * sum(cs[j] * out[k - j] for j in range(1, k + 1)))
    return fraction_row(-p, out, -p + len(cs))


class TestCanonicalRow:
    """Every operation stores a canonical row, and reports the (pole, order,
    coeffs) of a Fraction loop over its inputs' coefficients."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=-6, max_value=3),
           st.lists(st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4,
                                                        max_denominator=7)), max_size=8))
    def test_constructor(self, pole, values):
        s = TruncSeries(pole, values, pole + len(values))
        assert is_canonical(s)
        assert window(s) == fraction_row(pole, values, pole + len(values))

    @settings(max_examples=80, deadline=None)
    @given(fraction_series, fraction_series, scalars, st.integers(min_value=-8, max_value=12))
    def test_operations(self, a, b, c, cut):
        p, o, cs = window(a)
        cases = [
            (a + b, reference_plus(a, b, 1)),
            (a - b, reference_plus(a, b, -1)),
            (-a, fraction_row(p, [-x for x in cs], o)),
            (a * c, fraction_row(p, [c * x for x in cs], o)),
            (a * b, reference_dot([(1, a, b)])),
            (_dot([(3, a, b), (-2, b, b), (1, a, a)]), reference_dot([(3, a, b), (-2, b, b), (1, a, a)])),
            (a.derivative(), fraction_row(p - 1, [(p + k) * x for k, x in enumerate(cs)], o - 1)),
            (a.truncate(cut), window(a) if cut >= o else fraction_row(min(p, cut), cs[:max(0, cut - p)], cut)),
        ]
        if not a.is_zero:
            cases.append((a.invert(), reference_invert(a)))
        for got, want in cases:
            assert is_canonical(got)
            assert window(got) == want

    @settings(max_examples=40, deadline=None)
    @given(fraction_series, fraction_series, fraction_series, fraction_series, scalars)
    def test_dual_operations(self, a, b, c, d, k):
        x, y = DualSeries(a, b), DualSeries(c, d)
        cases = [
            (x + y, a + c, b + d),
            (x - y, a - c, b - d),
            (-x, -a, -b),
            (x * k, a * k, b * k),
            (x * y, a * c, a * d + b * c),
            # a TruncSeries c counts as c + (0 + O(t^c.order)) eps
            (_dot([(2, x, c), (-1, a, y)]), _dot([(2, a, c), (-1, a, c)]),
             _dot([(2, a, TruncSeries.zero(c.order)), (-1, a, d), (2, b, c),
                   (-1, TruncSeries.zero(a.order), c)])),
            (x.derivative(), a.derivative(), b.derivative()),
            (x.truncate(2), a.truncate(2), b.truncate(2)),
        ]
        if not a.is_zero:
            r = a.invert()
            cases.append((x.invert(), r, -(r * b * r)))
        for got, re, du in cases:
            assert is_canonical(got.re) and is_canonical(got.du)
            assert (got.re, got.du) == (re, du)

    @settings(max_examples=80, deadline=None)
    @given(fraction_series, fraction_series)
    def test_equality_is_equality_of_windows(self, a, b):
        order = min(a.order, b.order)
        rebuilt = TruncSeries(a.pole, a.coeffs, a.order)
        for x, y in ((a, b), ((a + b) - b, a.truncate(order)), (rebuilt, a), (a, a * 1)):
            assert (x == y) == (window(x) == window(y))
            if x == y:
                assert hash(x) == hash(y)
        assert (a + b) - b == a.truncate(order) and rebuilt == a


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
            assert antiderivative(a).derivative().agrees(a)

    def test_residue_obstruction(self):
        with pytest.raises(ValueError):
            antiderivative(tpoly({-1: 3}))


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
