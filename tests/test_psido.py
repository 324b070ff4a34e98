import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau import jsonio
from opertau import krichever as krichever_mod
from opertau import psido as psido_mod
from opertau.errors import NotMonic, TailOverflow
from opertau.kdv import conserved_density
from opertau.krichever import dressing
from opertau.oper import ScalarOper
from opertau.psido import (
    DEFAULT_TAIL_DEPTH,
    PsiDO,
    _binom,
    _compose_coeff,
    _derivative,
    commutator,
    compose,
    nth_root,
    power,
    residue,
    split,
)
from opertau.series import DualSeries, TruncSeries, tpoly

from .conftest import invert_monic0, random_poly
from .test_series import reference_mul


def D(k=1, order=12):
    return PsiDO.d(k, order)


def mul_op(series):
    return PsiDO.from_series(series)


def t_op(order=12):
    return mul_op(tpoly({1: 1}, order))


class TestCompose:
    def test_d_after_t_is_leibniz(self):
        got = compose(D(), t_op())
        # d t = t d + 1
        assert got.terms[1].agrees(tpoly({1: 1}, 11))
        assert got.terms[0].is_one

    def test_d_dinv_is_one(self):
        got = compose(D(), D(-1))
        assert set(got.terms) == {0}
        assert got.terms[0].is_one

    def test_dinv_t_by_left_composition(self):
        # oracle: left-compose with d and compare against t
        got = compose(D(-1), t_op())
        back = compose(D(), got)
        assert back.agrees(t_op())
        # explicit normal form t d^-1 - d^-2 on the trusted window
        assert got.terms[-1].agrees(tpoly({1: 1}, order=11))
        assert got.terms[-2].agrees(tpoly({0: -1}, order=10))

    def test_associativity_random(self, rng):
        ops = []
        for _ in range(6):
            ops.append(
                PsiDO(
                    {
                        rng.randint(-2, 2): random_poly(rng, 3),
                        rng.randint(-1, 1): random_poly(rng, 2),
                    }
                )
            )
        for i in range(0, 6, 3):
            A, B, C = ops[i], ops[i + 1], (ops[i + 2] if i + 2 < 6 else ops[0])
            assert compose(compose(A, B), C).agrees(compose(A, compose(B, C)))

    def test_depth_tracking(self):
        A = PsiDO({-1: TruncSeries.one(12)}, depth=-1)
        B = t_op()
        got = compose(A, B)
        # unknown tail of A (orders <= -2) times B (top 0) pollutes orders <= -2
        assert got.depth == -1
        assert set(got.terms) == {-1}

    def test_empty_operand_with_tail_reaches_partner_top(self):
        # the unknown d^-1 term of the empty right factor lands at d^1
        B = PsiDO({}, depth=0)
        assert compose(D(2), B).depth == 2
        assert compose(B, D(3)).depth == 3
        assert compose(PsiDO({}, depth=2), PsiDO({}, depth=3)).depth == 4

    def test_exact_zero_operand_keeps_depth(self):
        A = PsiDO({2: TruncSeries.one(12)}, depth=-4)
        assert compose(A, PsiDO.zero()).depth == -4
        assert compose(PsiDO.zero(), PsiDO({}, depth=0)).depth == 0

    def test_floor_depth_only_when_a_nonzero_term_is_dropped(self):
        # d^-1 t d^-2 = t d^-3 - d^-4: the d^-4 term falls below the floor
        got = compose(D(-1), PsiDO({-2: tpoly({1: 1})}), depth=-3)
        assert got.depth == -3
        assert set(got.terms) == {-3}
        # d^-1 1 d^-2 = d^-3 exactly: the derivative chain dies first
        assert compose(D(-1), PsiDO({-2: TruncSeries.one(12)}), depth=-3).depth is None

    def test_differential_factors_compose_exactly_at_any_depth(self):
        # the Miura factors d - chi_i terminate, so no depth cuts them
        path = Path(__file__).parent / "data" / "miura_n3.json"
        M = jsonio.miura_from_json(json.loads(path.read_text()))
        factors = [D(1, 20) - mul_op(c) for c in M.chi]
        products = []
        for depth in (3, -8):
            acc = factors[0]
            for f in factors[1:]:
                acc = compose(acc, f, depth)
            products.append(acc)
        shallow, deep = products
        assert shallow.depth is None and shallow == deep
        assert set(shallow.terms) == {0, 1, 2, 3}

    def test_tail_overflow(self):
        A = PsiDO({-6: TruncSeries.one(12)}, depth=-6)
        B = PsiDO({-6: tpoly({1: 1})}, depth=-6)
        with pytest.raises(TailOverflow):
            compose(A, B)


class TestAgrees:
    def test_an_order_on_one_side_only_disagrees(self):
        # a stored coefficient is never zero, so d^-1 t against nothing differs
        A = PsiDO({1: TruncSeries.one(12), -1: tpoly({1: 1})}, depth=-3)
        B = PsiDO({1: TruncSeries.one(12)}, depth=-3)
        assert not A.agrees(B) and not B.agrees(A)
        # also when the lone order sits exactly at the shared depth
        C = PsiDO({1: TruncSeries.one(12), -3: tpoly({0: 2})}, depth=-3)
        assert not C.agrees(B) and not B.agrees(C)

    def test_operators_differing_only_below_their_depth_agree(self):
        exact = PsiDO({1: TruncSeries.one(12), -5: tpoly({0: 7}), -4: tpoly({2: 1})})
        cut = PsiDO({1: TruncSeries.one(12), -4: tpoly({2: 1}, 9)}, depth=-4)
        assert exact.agrees(cut) and cut.agrees(exact)
        deeper = PsiDO({1: TruncSeries.one(12), -5: tpoly({1: -3}), -4: tpoly({2: 1})}, depth=-6)
        assert deeper.agrees(cut) and cut.agrees(deeper)
        assert not deeper.agrees(exact)


class TestSplit:
    def test_definition(self):
        u = random_poly_fixed()
        A = PsiDO({2: TruncSeries.one(12), 0: u, -1: u})
        plus, minus = split(A)
        assert set(plus.terms) == {2, 0}
        assert set(minus.terms) == {-1}
        assert (plus + minus).agrees(A)

    def test_purely_differential(self):
        A = PsiDO({3: TruncSeries.one(12), 1: tpoly({2: 1})})
        plus, minus = split(A)
        assert plus.agrees(A)
        assert minus.is_zero

    def test_random_readdition(self, rng):
        for _ in range(10):
            A = PsiDO({k: random_poly(rng, 3) for k in range(-4, 3)})
            plus, minus = split(A)
            assert (plus + minus).agrees(A)
            assert plus.is_differential()
            assert minus.top is None or minus.top <= -1


def random_poly_fixed():
    return tpoly({0: 1, 1: 2, 2: -1})


class TestResidue:
    def test_dinv(self):
        assert residue(D(-1)).is_one

    def test_differential_is_zero(self):
        L = PsiDO({2: TruncSeries.one(12), 0: tpoly({1: 1})})
        assert residue(L).is_zero

    def test_half_root_residue(self):
        u = tpoly({1: 1, 2: 3})
        L = PsiDO({2: TruncSeries.one(12), 0: u})
        R = nth_root(L, 2)
        assert residue(R).agrees(u * Fraction(1, 2))


class TestRoot:
    def test_pure_power(self):
        R = nth_root(PsiDO({2: TruncSeries.one(12)}), 2)
        assert R.terms[1].is_one
        assert all(k == 1 for k in R.terms)

    def test_schur_expansion(self):
        u = tpoly({1: 1, 3: -2})
        L = PsiDO({2: TruncSeries.one(12), 0: u})
        R = nth_root(L, 2)
        # leading corrections: d + u/2 d^-1 - u'/4 d^-2 + ...
        assert R.terms[-1].agrees(u * Fraction(1, 2))
        assert R.terms[-2].agrees(u.derivative() * Fraction(-1, 4))
        assert (R**2).agrees(L)

    def test_perfect_square(self):
        c = tpoly({0: 5})
        L = compose(D() + mul_op(c), D() + mul_op(c))
        R = nth_root(L, 2)
        assert R.agrees(D() + mul_op(c))

    def test_defining_contract_random(self, rng):
        for n in (2, 3):
            for _ in range(4):
                terms = {n: TruncSeries.one(14)}
                for i in range(n):
                    terms[i] = random_poly(rng, 4, order=14)
                L = PsiDO(terms)
                R = nth_root(L, n)
                assert (R**n).agrees(L)

    def test_depth_limited_by_input_depth(self):
        # r_m reads L down to d^(n-1+m): a completion of L below its depth
        # must not change any coefficient the root claims
        u = tpoly({1: 1})
        L = PsiDO({2: TruncSeries.one(12), 0: u, -3: TruncSeries.one(12)}, depth=-3)
        R = nth_root(L, 2, depth=-8)
        assert R.depth == -4
        completed = PsiDO({**L.terms, -4: tpoly({0: 5})})
        assert nth_root(completed, 2, depth=-8).agrees(R)

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            nth_root(PsiDO({2: tpoly({0: 2})}), 2)


class TestCommutator:
    def test_d_t(self):
        got = commutator(D(), t_op())
        assert set(got.terms) == {0}
        assert got.terms[0].is_one

    def test_self_commutator(self, rng):
        A = PsiDO({2: random_poly(rng, 3), -1: random_poly(rng, 2)})
        assert commutator(A, A).is_zero

    def test_d2_t2(self):
        t2 = mul_op(tpoly({2: 1}))
        got = commutator(D(2), t2)
        # expand both products: [d^2, t^2] = 4 t d + 2
        assert got.terms[1].agrees(tpoly({1: 4}, 10))
        assert got.terms[0].agrees(tpoly({0: 2}, 10))

    def test_order_drop(self, rng):
        for _ in range(8):
            A = PsiDO({2: random_poly(rng, 2), 0: random_poly(rng, 2)})
            B = PsiDO({1: random_poly(rng, 2), -1: random_poly(rng, 2)})
            C = commutator(A, B)
            if not C.is_zero:
                assert C.top <= A.top + B.top - 1


class TestInverse:
    def test_dressing_style_inverse(self, rng):
        K = PsiDO({0: TruncSeries.one(12), -1: random_poly(rng, 3),
                   -2: random_poly(rng, 2)})
        Ki = invert_monic0(K)
        assert compose(K, Ki).agrees(PsiDO({0: TruncSeries.one(12)}))

    def test_inverse_stops_at_the_tail_depth(self):
        # (1 + d^-1)^-1 = 1 - d^-1 + d^-2 - ... does not terminate
        K = PsiDO({0: TruncSeries.one(12), -1: tpoly({0: 1})})
        Ki = invert_monic0(K)
        assert min(Ki.terms) == Ki.depth == DEFAULT_TAIL_DEPTH


# -- the relaxed root against the full recomputation ---------------------------


def reference_root(L: PsiDO, n: int, depth: int) -> PsiDO:
    """Schur root read off L - R^n, recomputed in full at every step."""
    R = PsiDO({1: L.terms[n]})
    for m in range(0, depth - 1, -1):
        E = L - reference_power(R, n, depth)
        c = E.terms.get(n - 1 + m)
        if c is not None and not c.is_zero:
            R = R + PsiDO({m: c * Fraction(1, n)})
    return PsiDO(R.terms, depth)


def reference_power(R: PsiDO, e: int, depth: int) -> PsiDO:
    """((R R) R)... on every order down to ``depth``."""
    P = R
    for _ in range(e - 1):
        P = compose(P, R, depth)
    return P


def series_st(max_degree=3):
    """Small polynomial series with their own t-windows (some exactly zero)."""
    return st.builds(
        lambda cs, order: TruncSeries.from_dict(
            {k: c for k, c in enumerate(cs) if c}, order
        ),
        st.lists(st.integers(-4, 4), min_size=0, max_size=max_degree + 1),
        st.integers(4, 9),
    )


@st.composite
def monic_st(draw, dual: bool):
    n = draw(st.sampled_from([2, 3]))
    top = TruncSeries.one(draw(st.integers(6, 10)))
    # with L - d^n purely infinitesimal, eps^2 = 0 makes whole power
    # coefficients sum to zero from nonzero-windowed terms
    eps_only = dual and draw(st.booleans())
    terms = {n: DualSeries(top) if dual else top}
    for i in range(n):
        c = draw(series_st())
        if dual:
            re = TruncSeries.zero(c.order) if eps_only else c
            c = DualSeries(re, draw(series_st()))
        terms[i] = c
    return n, PsiDO(terms)


@settings(max_examples=40, deadline=None)
@given(monic_st(dual=False), st.integers(-8, -1))
def test_relaxed_root_equals_reference(case, depth):
    n, L = case
    # PsiDO equality compares depths, and per coefficient Fractions and windows
    got = nth_root(L, n, depth=depth)
    assert got == reference_root(L, n, depth)
    assert got.depth == depth


@settings(max_examples=30, deadline=None)
@given(monic_st(dual=True), st.integers(-5, -1))
def test_relaxed_root_equals_reference_dual(case, depth):
    n, L = case
    assert nth_root(L, n, depth=depth) == reference_root(L, n, depth)


def test_relaxed_root_zero_sums_read_as_absent():
    # eps^2 = 0 turns power coefficients of an infinitesimal L - d^3 into
    # zero sums of terms with short t-windows
    def eps(d, order):
        return DualSeries(TruncSeries.zero(order), tpoly(d, 7))

    L = PsiDO({3: DualSeries(TruncSeries.one(7)), 2: eps({0: -3, 1: 2}, 4),
               0: eps({1: -2}, 8)})
    assert nth_root(L, 3, depth=-5) == reference_root(L, 3, -5)


@settings(max_examples=25, deadline=None)
@given(monic_st(dual=False), st.integers(2, 5), st.integers(-3, 1))
def test_windowed_power_equals_full_power(case, e, lo):
    n, L = case
    R = nth_root(L, n, depth=-5)
    full = reference_power(R, e, -5)
    win = power(R, e, lo)
    assert {i: c for i, c in win.terms.items() if i >= lo} == {
        i: c for i, c in full.terms.items() if i >= lo
    }
    assert win.depth <= max(lo, full.depth)


def _kdv_zero_density(s):
    u = tpoly({0: 2, 1: -1, 2: 3}, 10)
    return ScalarOper(2, (TruncSeries.zero(10), -u)), s


def _bsq_zero_density():
    # L = d^3 - u d - u'/2: res L^(2/3) vanishes, and its t-window is that of
    # u', which is known one order less than u
    u = tpoly({0: 2, 1: -1, 2: 3}, 12)
    return ScalarOper(3, (TruncSeries.zero(12), -u, -u.derivative() * Fraction(1, 2))), 2


@pytest.mark.parametrize(
    "case", [_kdv_zero_density(2), _kdv_zero_density(4), _kdv_zero_density(6),
             _bsq_zero_density()],
    ids=["n2-s2", "n2-s4", "n2-s6", "n3-s2"],
)
def test_zero_density_keeps_window(case):
    # res R^s reads the root down to d^-s; the window of an exact zero comes
    # from the orders of the full power of that root
    S, s = case
    got = conserved_density(S, s)
    want = residue(reference_power(reference_root(S.to_psido(), S.n, -s), s, -s))
    assert got.is_zero
    assert got == want


# -- the integer sum-of-products kernel against the Fraction chain it replaced --


def reference_product(a, b):
    """One product as the series did it before the kernel: the Fraction
    convolution loop, and for a DualSeries re·re and re·du + du·re, with a
    TruncSeries x read as x + (0 + O(t^x.order)) eps."""
    if not (isinstance(a, DualSeries) or isinstance(b, DualSeries)):
        return reference_mul(a, b)
    a, b = (x if isinstance(x, DualSeries) else DualSeries(x) for x in (a, b))
    return DualSeries(reference_mul(a.re, b.re),
                      reference_mul(a.re, b.du) + reference_mul(a.du, b.re))


def reference_binom(i, k):
    """C(i, k) as the falling-factorial product over k!, for any integer i."""
    num = 1
    for j in range(k):
        num *= i - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    q, r = divmod(num, den)
    assert r == 0
    return q


def test_binom_equals_the_product_loop():
    for i in range(-40, 41):
        for k in range(41):
            assert _binom(i, k) == reference_binom(i, k), (i, k)
            assert type(_binom(i, k)) is int


def reference_compose_coeff(A, B, o, derivs=None):
    """The old chain: derivatives of Fraction series, ``(a * bk) *
    Fraction(coef)`` per term, summed by ``total + term``."""
    total = None
    for j in B:
        for i, a in A.items():
            k = i + j - o
            if k < 0 or (i >= 0 and k > i):
                continue
            bk = B[j]
            for _ in range(k):
                bk = bk.derivative()
            if bk.is_zero:
                continue  # derivative chain died
            term = reference_product(a, bk) * Fraction(_binom(i, k))
            total = term if total is None else total + term
    if total is None or total.is_zero:
        return None
    return total


def same(got, want) -> bool:
    """Equal pole, order and Fraction coefficients (both parts of a dual)."""
    if isinstance(want, DualSeries):
        return isinstance(got, DualSeries) and same(got.re, want.re) and same(got.du, want.du)
    return (type(got) is TruncSeries
            and (got.pole, got.order, got.coeffs) == (want.pole, want.order, want.coeffs)
            and all(type(c) is Fraction for c in got.coeffs))


def fseries(rng, pole, order, degree=None, dens=(1, 2, 3, 5, 7)):
    """Random Fraction series on [pole, order), dense or through t^(pole + degree)."""
    width = order - pole
    top = width if degree is None else min(width, degree + 1)
    cs = [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(top)]
    cs[0] = cs[0] or Fraction(1, 2)
    return TruncSeries(pole, cs + [0] * (width - top), order)


def random_operator(rng, orders, dual_share=0.0, pole_lo=-2):
    terms = {}
    for i in orders:
        pole = rng.randint(pole_lo, 1)
        s = fseries(rng, pole, pole + rng.randint(3, 9), rng.choice((0, 1, 2, 3, None)))
        if rng.random() < dual_share:
            s = DualSeries(s, fseries(rng, pole, pole + rng.randint(3, 9), rng.choice((0, 2, None))))
        terms[i] = s
    return terms


COEFF_CASES = {
    # B[0] = t^2 / 3: its third derivative is zero, so k = 3 terms drop out
    "derivative chain dies": (
        {3: tpoly({0: 1}), 1: tpoly({1: Fraction(1, 2)})}, {0: tpoly({2: Fraction(1, 3)})}, 0),
    # (2 + t^3)' = 3 t^2: the constant leaves a zero at the row's front
    "constant derivative leaves a leading zero": (
        {2: tpoly({0: Fraction(1, 5), 1: 1}, 9)}, {0: tpoly({0: 2, 3: 1}, 11), -1: tpoly({0: 3})}, 1),
    "mixed TruncSeries and DualSeries": (
        {1: DualSeries(tpoly({0: 1}, 9), tpoly({1: Fraction(-2, 3)}, 7)), 0: tpoly({0: 2, 2: 1}, 8)},
        {0: tpoly({1: Fraction(3, 4), 2: 1}, 10), -1: DualSeries(TruncSeries.zero(6), tpoly({0: 5}, 8))},
        0),
    "unequal orders and negative poles": (
        {1: tpoly({-2: Fraction(1, 3), 0: 2}, 4), -1: tpoly({-1: Fraction(-5, 2), 1: 1}, 9)},
        {0: tpoly({-3: Fraction(2, 7), -1: 1, 2: Fraction(1, 9)}, 6), -2: tpoly({1: 4}, 11)},
        -1),
    # 1·(-t) + t·1 and the dead derivative of the constant: the sum is zero
    "sum cancels to None": ({1: tpoly({0: 1}), 0: tpoly({1: 1})}, {0: tpoly({1: -1}), 1: tpoly({0: 1})}, 1),
    # the same with -t + t^3 / 2: only t^3 / 2 is left, so the pole moves up
    "low terms cancel": (
        {1: tpoly({0: 1}), 0: tpoly({1: 1})}, {0: tpoly({1: -1, 3: Fraction(1, 2)}), 1: tpoly({0: 1})}, 1),
}


class TestSumKernel:
    @pytest.mark.parametrize("case", sorted(COEFF_CASES))
    def test_compose_coeff_equals_fraction_chain(self, case):
        A, B, o = COEFF_CASES[case]
        got = _compose_coeff(A, B, o, {})
        want = reference_compose_coeff(A, B, o)
        assert (got is None) == (want is None)
        if want is not None:
            assert same(got, want)

    def test_case_shapes(self):
        A, B, o = COEFF_CASES["derivative chain dies"]
        assert _derivative(B, 0, 3, {}) is None and _derivative(B, 0, 2, {}) is not None
        A, B, o = COEFF_CASES["constant derivative leaves a leading zero"]
        assert _derivative(B, 0, 1, {}) == tpoly({2: 3}, 10)  # 3 t^2 + O(t^10)
        assert reference_compose_coeff(*COEFF_CASES["sum cancels to None"]) is None
        got = _compose_coeff(*COEFF_CASES["low terms cancel"], {})
        assert (got.pole, got.coeffs[0], got.order) == (3, Fraction(1, 2), 12)

    def test_compose_coeff_every_order_random(self, rng):
        for trial in range(40):
            A = random_operator(rng, rng.sample(range(-2, 4), 3), dual_share=0.3 * (trial % 2))
            B = random_operator(rng, rng.sample(range(-2, 3), 2), dual_share=0.3 * (trial % 3 == 0))
            derivs = {}
            for o in range(max(A) + max(B), min(A) + min(B) - 4, -1):
                got = _compose_coeff(A, B, o, derivs)
                want = reference_compose_coeff(A, B, o)
                assert (got is None) == (want is None)
                assert want is None or same(got, want)

    @pytest.fixture
    def reference_chain(self, monkeypatch):
        def use():
            monkeypatch.setattr(psido_mod, "_compose_coeff", reference_compose_coeff)
            monkeypatch.setattr(krichever_mod, "_compose_coeff", reference_compose_coeff)
        return use

    def test_compose_equals_fraction_chain(self, rng, reference_chain):
        pairs = []
        for trial in range(16):
            A = PsiDO(random_operator(rng, rng.sample(range(-1, 3), 2), dual_share=0.3 * (trial % 2)))
            B = PsiDO(random_operator(rng, rng.sample(range(-2, 3), 2), dual_share=0.3 * (trial % 3 == 0)))
            pairs.append((A, B))
        got = [compose(A, B, -4) for A, B in pairs]
        reference_chain()
        assert got == [compose(A, B, -4) for A, B in pairs]

    @pytest.mark.parametrize("dual", [False, True])
    def test_nth_root_equals_fraction_chain(self, rng, reference_chain, dual):
        ops = []
        for n in (2, 3, 2, 3):
            order = rng.randint(7, 10)
            top = TruncSeries.one(order)
            L = random_operator(rng, range(n), dual_share=0.5 * dual, pole_lo=0)
            L[n] = DualSeries(top) if dual else top
            ops.append((n, PsiDO(L)))
        got = [nth_root(L, n, depth=-5) for n, L in ops]
        reference_chain()
        assert got == [nth_root(L, n, depth=-5) for n, L in ops]

    def test_dressing_equals_fraction_chain(self, rng, reference_chain):
        ops = []
        for n in (2, 3):
            L = {i: fseries(rng, 0, 10, rng.choice((1, 2, None))) for i in range(n - 1)}
            L[n] = TruncSeries.one(10)
            ops.append(PsiDO(L))
        got = [dressing(L, -6) for L in ops]
        reference_chain()
        assert got == [dressing(L, -6) for L in ops]

    def test_dual_mul_equals_fraction_chain(self, rng):
        for _ in range(30):
            x = fseries(rng, rng.randint(-3, 1), rng.randint(2, 8))
            y = fseries(rng, rng.randint(-3, 1), rng.randint(2, 8), rng.choice((1, None)))
            z = fseries(rng, rng.randint(-3, 1), rng.randint(2, 8))
            zero = TruncSeries.zero(rng.randint(-1, 6))
            for a, b in ((DualSeries(x, y), DualSeries(z, x)), (DualSeries(x, y), z),
                         (z, DualSeries(x, y)), (DualSeries(zero, y), DualSeries(x, zero))):
                assert same(a * b, reference_product(a, b))
