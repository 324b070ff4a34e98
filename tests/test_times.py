import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau.times import ZERO_KEY, TimesSeries, _min_bound, _trim, weight
from opertau.toda import toda_tau, xi

from .conftest import claims_hold, complete

F = Fraction


def times_strategy(bound=6):
    key = st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(tuple),
        st.lists(st.integers(min_value=0, max_value=1), max_size=2).map(tuple),
    ).filter(lambda k: weight(k) <= bound)
    return st.dictionaries(key, st.integers(min_value=-4, max_value=4), max_size=5).map(
        lambda d: TimesSeries(d, bound)
    )


@settings(max_examples=40, deadline=None)
@given(times_strategy(), times_strategy(), times_strategy())
def test_ring_axioms_weighted(a, b, c):
    assert (a * (b + c)).agrees(a * b + a * c)
    assert ((a * b) * c).agrees(a * (b * c))
    assert (a * b).agrees(b * a)
    assert all(weight(k) <= 6 for k in (a * b).terms)


def t(k, prime=False, bound=None):
    return TimesSeries.var(k, prime=prime, bound=bound)


class TestWeightedBound:
    def test_no_term_above_bound_survives_multiplication(self):
        a = TimesSeries.one(5) + t(2, bound=5) + t(3, bound=5)
        b = TimesSeries.one(5) + t(3, bound=5) + t(4, bound=5)
        prod = a * b
        assert all(weight(k) <= 5 for k in prod.terms)
        # t3*t4 and t3*t3 are correctly absent, t2*t3 survives
        assert prod.coeff(((0, 1, 1), ())) == 1
        assert prod.coeff(((0, 0, 1, 1), ())) == 0

    def test_mixed_bounds_take_minimum(self):
        a = t(1, bound=9)
        b = t(1, bound=4)
        assert (a * b).bound == 4
        assert (a + b).bound == 4

    def test_primed_weights(self):
        x = t(2, prime=True, bound=6)
        assert weight(next(iter(x.terms))) == 2
        assert not (x * x * x).is_zero  # weight 6 sits exactly at the bound
        assert (x * x * x * x).is_zero  # weight 8 dies

    def test_constructor_rejects_overweight(self):
        with pytest.raises(ValueError):
            TimesSeries({((5,), ()): 1}, bound=4)


class TestCalculus:
    def test_derivative_drops_bound(self):
        x = t(3, bound=9) * t(3, bound=9)
        d = x.derivative(3)
        assert d.bound == 6
        assert d.coeff(((0, 0, 1), ())) == 2

    def test_mul_var_raises_bound(self):
        x = TimesSeries.one(4)
        assert x.mul_var(3).bound == 7

    def test_exp_log_structure(self):
        x = t(1, bound=6)
        e = x.exp()
        assert e.coeff(((3,), ())) == F(1, 6)
        assert e.constant_term() == 1

    def test_invert(self):
        f = TimesSeries.one(6) + t(1, bound=6) * 2
        prod = f * f.invert()
        assert prod == TimesSeries.one(6)

    def test_restrict_primary(self):
        x = TimesSeries.one(6) + t(1, bound=6) + t(2, prime=True, bound=6)
        r = x.restrict_primary()
        assert r.coeff(((1,), ())) == 1
        assert r.coeff(((), (0, 1))) == 0


# -- reference kernels: the plain pair loops, every result rebuilt through
# the validating public constructor ------------------------------------------


def _pad_add(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def reference_mul(a, b):
    bound = _min_bound(a.bound, b.bound)
    out = {}
    for (e1, p1), c1 in a.terms.items():
        w1 = weight((e1, p1))
        for (e2, p2), c2 in b.terms.items():
            if bound is not None and w1 + weight((e2, p2)) > bound:
                continue
            key = (_trim(_pad_add(e1, e2)), _trim(_pad_add(p1, p2)))
            out[key] = out.get(key, F(0)) + c1 * c2
    return TimesSeries(out, bound)


def reference_scale(a, c):
    return TimesSeries({k: c * v for k, v in a.terms.items()}, a.bound)


def reference_add(a, b):
    bound = _min_bound(a.bound, b.bound)
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out.get(k, F(0)) + c
    if bound is not None:
        out = {k: c for k, c in out.items() if weight(k) <= bound}
    return TimesSeries(out, bound)


def reference_truncate(a, bound):
    b = _min_bound(a.bound, bound)
    if b is None:
        return a
    return TimesSeries({k: c for k, c in a.terms.items() if weight(k) <= b}, b)


def reference_derivative(a, k):
    out = {}
    for (e, p), c in a.terms.items():
        if len(e) < k or e[k - 1] == 0:
            continue
        new = list(e)
        new[k - 1] -= 1
        key = (_trim(new), p)
        out[key] = out.get(key, F(0)) + e[k - 1] * c
    return TimesSeries(out, None if a.bound is None else a.bound - k)


def reference_mul_var(a, k):
    out = {}
    for (e, p), c in a.terms.items():
        src = list(e) + [0] * k
        src[k - 1] += 1
        out[(_trim(src), p)] = c
    return TimesSeries(out, None if a.bound is None else a.bound + k)


def min_weight(a):
    """Smallest weighted degree with a nonzero term, None if zero."""
    return min(map(weight, a.terms), default=None)


def reference_exp(a):
    result = TimesSeries.one(a.bound)
    v = min_weight(a)
    if v is None:
        return result
    power = TimesSeries.one(a.bound)
    fact = 1
    for j in range(1, a.bound // v + 1):
        power = reference_mul(power, a)
        fact *= j
        result = reference_add(result, reference_scale(power, F(1, fact)))
        if power.is_zero:
            break
    return result


def reference_invert(a):
    c0 = a.constant_term()
    g = reference_scale(reference_add(reference_scale(a, 1 / c0), TimesSeries.const(-1)), F(-1))
    result = TimesSeries.one(a.bound)
    power = TimesSeries.one(a.bound)
    v = min_weight(g)
    if v is not None:
        for _ in range(a.bound // v):
            power = reference_mul(power, g)
            if power.is_zero:
                break
            result = reference_add(result, power)
    return reference_scale(result, 1 / c0)


# keys in t1..t3 and t'1, t'2; untrimmed tuples exercise the constructor's trim
raw_keys = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(tuple),
)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@st.composite
def series(draw, bound=bounds, max_terms=8):
    b = draw(bound)
    terms = draw(st.dictionaries(raw_keys, coeffs, max_size=max_terms))
    cap = 7 if b is None else b
    return TimesSeries({k: c for k, c in terms.items() if weight(k) <= cap}, b)


@st.composite
def exp_input(draw):
    s = draw(series(bound=st.integers(min_value=0, max_value=6)))
    return TimesSeries({k: c for k, c in s.terms.items() if k != ZERO_KEY}, s.bound)


@st.composite
def invert_input(draw):
    s = draw(series(bound=st.integers(min_value=0, max_value=6)))
    c0 = draw(coeffs.filter(lambda c: c != 0))
    return TimesSeries({**s.terms, ZERO_KEY: c0}, s.bound)


class TestKernelEqualsReference:
    # ``==`` compares exactly the terms (keys and Fractions) and the bound
    @settings(max_examples=30, deadline=None)
    @given(series(), series(), st.integers(min_value=-2, max_value=2))
    def test_ring_operations(self, a, b, c):
        assert a * b == reference_mul(a, b)
        assert a + b == reference_add(a, b)
        assert a - b == reference_add(a, reference_scale(b, F(-1)))
        assert a * c == reference_scale(a, F(c))
        assert a + c == reference_add(a, TimesSeries.const(c))

    @settings(max_examples=30, deadline=None)
    @given(series(), st.integers(min_value=1, max_value=4), bounds)
    def test_calculus(self, a, k, cut):
        assert a.derivative(k) == reference_derivative(a, k)
        assert a.mul_var(k) == reference_mul_var(a, k)
        assert a.truncate(cut) == reference_truncate(a, cut)

    @settings(max_examples=15, deadline=None)
    @given(exp_input())
    def test_exp(self, a):
        assert a.exp() == reference_exp(a)

    @settings(max_examples=20, deadline=None)
    @given(invert_input())
    def test_invert(self, a):
        assert a.invert() == reference_invert(a)

    def test_public_constructor_still_validates(self):
        s = TimesSeries({((1, 0), (0,)): 2, ((1,), ()): F(1, 2), ((2,), ()): 3}, 2)
        assert s.terms == {((1,), ()): F(5, 2), ((2,), ()): F(3)}
        with pytest.raises(TypeError):
            TimesSeries({ZERO_KEY: 0.5}, 1)

    def test_constructor_rejects_negative_exponents(self):
        # the kernel adds trimmed exponent tuples without re-trimming, which
        # is only sound for nonnegative exponents
        with pytest.raises(ValueError):
            TimesSeries({((1, -1), ()): 1}, None)


# -- the integer product kernel against the Fraction pair loop ----------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _mixed(bound, keys):
    """A series on ``keys`` whose coefficients have many distinct denominators."""
    return TimesSeries(
        {k: F((-1) ** i * (i + 1), PRIMES[i % len(PRIMES)] ** (1 + i // len(PRIMES)))
         for i, k in enumerate(keys)},
        bound,
    )


T1, T2, T3, P1, P2 = ((1,), ()), ((0, 1), ()), ((0, 0, 1), ()), ((), (1,)), ((), (0, 1))
KERNEL_CASES = {
    "exact polynomials": (
        TimesSeries({ZERO_KEY: F(1, 2), T1: F(-2, 3), T2: 5}, None),
        TimesSeries({T1: F(3, 4), T3: F(1, 6)}, None),
    ),
    "finite bound cuts rows": (
        TimesSeries({ZERO_KEY: 1, T1: F(1, 3), T2: F(-1, 5), T3: F(2, 7)}, 4),
        TimesSeries({T1: F(1, 2), T2: F(3, 8), ((2,), ()): F(-1, 9)}, 3),
    ),
    "bound None meets a finite bound": (
        TimesSeries({T1: F(5, 2), T3: F(-1, 4)}, None),
        TimesSeries({ZERO_KEY: F(2, 3), T2: F(1, 10)}, 3),
    ),
    "primed keys": (
        TimesSeries({P1: F(1, 3), ((1,), (1,)): F(-2, 5), P2: 4}, 5),
        TimesSeries({ZERO_KEY: F(7, 2), P1: F(-1, 6), ((2,), (0, 1)): F(1, 4)}, 6),
    ),
    "cross terms cancel": (
        TimesSeries({T1: F(1, 2), T2: F(1, 3)}, None),
        TimesSeries({T1: F(1, 2), T2: F(-1, 3)}, None),
    ),
    "many distinct denominators": (
        _mixed(6, [ZERO_KEY, T1, T2, T3, P1, P2, ((2,), ()), ((1, 1), ()), ((1,), (1,)),
                   ((3,), ()), ((0, 2), ()), ((1, 0, 1), ())]),
        _mixed(None, [ZERO_KEY, P1, T2, ((1,), (1,)), ((0, 0, 2), ()), ((), (0, 0, 1))]),
    ),
    "zero factor": (TimesSeries.zero(4), TimesSeries({T1: F(1, 3)}, None)),
    "zero factor without bound": (TimesSeries({T2: F(-1, 7)}, 5), TimesSeries.zero(None)),
}


class TestIntegerKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_equals_fraction_pair_loop(self, case):
        a, b = KERNEL_CASES[case]
        for x, y in ((a, b), (b, a)):
            got, want = x * y, reference_mul(x, y)
            assert got.bound == want.bound
            assert got.terms == want.terms
            assert all(type(c) is Fraction for c in got.terms.values())

    def test_cancelled_cross_term_leaves_no_key(self):
        a, b = KERNEL_CASES["cross terms cancel"]
        assert (a * b).terms == {((2,), ()): F(1, 4), ((0, 2), ()): F(-1, 9)}


# -- the graded pass of exp and invert at the tau workload's sizes -------------


def toda_exponent(p, q, bound):
    """xi(t, p) - xi(t, q) + xi(t', 1/p) - xi(t', 1/q): one Toda pair's exponent."""
    return xi(p, bound) - xi(q, bound) + xi(1 / p, bound, prime=True) - xi(1 / q, bound, prime=True)


class TestGradedPass:
    @pytest.mark.parametrize("p, q", [(F(3), F(-1, 2)), (F(2, 5), F(-3))])
    def test_exp_identity_at_bound_12(self, p, q):
        g = toda_exponent(p, q, 12)
        assert any(k[1] for k in g.terms)  # primed times take part
        assert g.exp() * (-g).exp() == TimesSeries.one(12)

    @pytest.mark.parametrize("c0", [F(1), F(-5, 7)])
    def test_invert_identity_at_bound_12(self, c0):
        g = toda_exponent(F(3), F(-1, 2), 12)
        for h in (toda_tau([(F(2, 3), F(3), F(-1, 2))], 12), g + c0, g.exp() * c0):
            assert h * h.invert() == TimesSeries.one(12)

    def test_bound_zero(self):
        assert TimesSeries.zero(0).exp() == TimesSeries.one(0) == reference_exp(TimesSeries.zero(0))
        h = TimesSeries.const(F(-2, 3), 0)
        assert h.invert() == TimesSeries.const(F(-3, 2), 0) == reference_invert(h)

    def test_smallest_weight_above_the_bound(self):
        # t5 cut at bound 4 is zero; t3 + t'4 at bound 5 has no product term
        cut = (t(5, bound=8) * 3).truncate(4)
        assert cut.exp() == TimesSeries.one(4)
        assert (cut + F(-1, 2)).invert() == TimesSeries.const(-2, 4)
        g = t(3, bound=5) * F(1, 2) + t(4, prime=True, bound=5)
        assert g.exp() == g + 1 == reference_exp(g)
        assert (g + 2).invert() == reference_invert(g + 2)

    def test_denominators_that_differ_by_weight(self):
        # d = lcm(2, 9, 125, 7) scales the weights unevenly: d^m in exp
        g = TimesSeries({T1: F(1, 2), T2: F(-4, 9), P2: F(3, 125), T3: F(2, 7),
                         ((1,), (1,)): F(5, 3)}, 6)
        assert g.exp() == reference_exp(g)
        for c0 in (F(-3), F(7, 4), F(-2, 9)):
            assert (g + c0).invert() == reference_invert(g + c0)


# -- completion oracle (``complete`` and ``claims_hold`` live in conftest) ----

oracle_bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
seeds = st.integers(min_value=0, max_value=2**32)


class TestCompletionOracle:
    @settings(max_examples=20, deadline=None)
    @given(series(bound=oracle_bounds), series(bound=oracle_bounds), seeds)
    def test_mul(self, a, b, seed):
        rng = random.Random(seed)
        claims_hold(a * b, complete(a, rng) * complete(b, rng))

    @settings(max_examples=20, deadline=None)
    @given(series(bound=oracle_bounds), st.integers(min_value=1, max_value=3), seeds)
    def test_derivative(self, a, k, seed):
        claims_hold(a.derivative(k), complete(a, random.Random(seed)).derivative(k))

    @settings(max_examples=15, deadline=None)
    @given(exp_input().filter(lambda s: s.bound <= 4), seeds)
    def test_exp(self, a, seed):
        full = complete(a, random.Random(seed))
        full = TimesSeries({k: c for k, c in full.terms.items() if k != ZERO_KEY}, full.bound)
        claims_hold(a.exp(), full.exp())

    @settings(max_examples=10, deadline=None)
    @given(invert_input().filter(lambda s: s.bound <= 4), seeds)
    def test_invert(self, a, seed):
        full = complete(a, random.Random(seed))
        claims_hold(a.invert(), full.invert())
