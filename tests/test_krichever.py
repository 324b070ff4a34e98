import json
from fractions import Fraction
from pathlib import Path

import pytest

from opertau import jsonio, linalg
from opertau.errors import BadArgument, NotCommuting, WindowOverflow
from opertau.grass import GrassPoint, tau_schur
from opertau.krichever import (
    _solve_linear_ode,
    _symbol_columns,
    _wave_columns_cached,
    AffineFlagPoint,
    SpectralRelation,
    bc_relation,
    dressing,
    flag_to_grass,
    krichever_point,
    main_theorem_check,
    miura_to_flag,
    n_reduction_holds,
    wave_columns,
)
from opertau.oper import (MiuraOper, ScalarOper, bidiagonal_matrix, gauge_reduce_with_matrix,
                          miura_transform)
from opertau.psido import PsiDO, commutator, compose, nth_root
from opertau.series import TruncSeries, tpoly

from .conftest import evaluate_relation, invert_monic0, random_poly, standard_point

F = Fraction
DATA = Path(__file__).parent / "data"


def dressing_conjugate(K, n):
    """K d^n K^-1, for verifying the dressing contract."""
    order = min(c.order for c in K.terms.values())
    return compose(compose(K, PsiDO.d(n, order)), invert_monic0(K))


def oper(n, coeffs, order=20):
    qs = []
    for d in coeffs:
        qs.append(tpoly(d, order) if d else TruncSeries.zero(order))
    return ScalarOper(n, tuple(qs))


class TestDressing:
    def test_pure_power(self):
        K = dressing(oper(2, [None, None]))
        assert set(K.terms) == {0}
        assert K.terms[0].is_one

    def test_conjugation_contract(self):
        S = oper(2, [None, {1: -1}])  # L = d^2 + t
        K = dressing(S)
        got = dressing_conjugate(K, 2)
        assert got.agrees(S.to_psido())

    def test_conjugation_with_q1(self, rng):
        q1 = random_poly(rng, 3, order=20)
        q2 = random_poly(rng, 3, order=20)
        S = ScalarOper(2, (q1, q2))
        K = dressing(S)
        assert dressing_conjugate(K, 2).agrees(S.to_psido())

    def test_depth_limited_by_input_depth(self):
        # k_j reads r_i for i >= -j, and r_i is known only down to the
        # root's depth: a completion of L below its depth must agree
        one = TruncSeries.one(12)
        L = PsiDO({2: one, 0: tpoly({1: 1}), -3: one}, depth=-3)
        K = dressing(L, depth=-8)
        assert K.depth == -4
        completed = PsiDO({**L.terms, -4: tpoly({0: 5})})
        assert dressing(completed, depth=-8).agrees(K)

    def test_depth_rerun_agreement(self):
        S = oper(2, [None, {0: 1, 2: -3}])
        K6 = dressing(S, depth=-6)
        K8 = dressing(S, depth=-8)
        assert K6.agrees(K8)


def reference_dressing(L: PsiDO, n: int, depth: int) -> PsiDO:
    """Independent oracle: solve K d = R K for the Schur root R of L, one
    order at a time, recomposing (R - d - r_0) K_partial in full, down to
    ``depth``, for each."""
    R = nth_root(L, n, depth=depth)
    floor = depth if R.depth is None else max(depth, R.depth)
    order = L.terms[n].order
    r0 = R.terms.get(0)
    minus = PsiDO({i: c for i, c in R.terms.items() if i < 0}, R.depth)
    ks = {0: _solve_linear_ode(r0, None, order, head=1)}
    for j in range(1, -floor + 1):
        rhs = compose(minus, PsiDO({-m: c for m, c in ks.items()}), depth).terms.get(-j)
        if order - j < 2:
            floor = 1 - j
            break
        ks[j] = _solve_linear_ode(r0, rhs, order - j, head=0)
    return PsiDO({-j: c for j, c in ks.items()}, floor)


@pytest.mark.parametrize("n", [2, 3])
def test_one_coefficient_dressing_equals_reference(rng, n):
    S = ScalarOper(n, tuple(random_poly(rng, 2, order=10) for _ in range(n)))
    for depth in (-5, -9):
        assert dressing(S, depth=depth) == reference_dressing(S.to_psido(), n, depth)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dressing_equals_reference_with_negative_orders(rng, n):
    # d^-1 and d^-2 terms exercise the generalized binomials C(m, s), m < 0
    for L_depth in (None, -3):
        terms = {n: TruncSeries.one(12)}
        for m in range(n - 1, -3, -1):
            terms[m] = random_poly(rng, 2, order=12)
        L = PsiDO(terms, L_depth)
        for depth in (-5, -10):
            assert dressing(L, depth=depth) == reference_dressing(L, n, depth)


def test_dressing_depth_stops_where_the_series_run_out():
    # w_p is known below t^(order - p), so at order 4 w_3 is known only at
    # t^0, where it is 0 by normalization, and K claims no d^-3 term
    S = oper(2, [{0: 1}, {1: 2}], order=4)
    K = dressing(S, depth=-8)
    assert K.depth == -2
    assert dressing(oper(2, [{0: 1}, {1: 2}], order=12), depth=-8).agrees(K)


def test_dressing_stops_where_the_subprincipal_coefficient_runs_out():
    # k' + r0 k = 0 reads r0 up to t^m for the t^(m+1) coefficient of k
    one = TruncSeries.one(12)
    L = PsiDO({2: one, 1: tpoly({1: 2}, 4)})
    assert dressing(L, depth=-2).terms[0].order == 5


def line_log_derivative(tau, degree: int) -> TruncSeries:
    """(d/dt_1 log tau)(t_1 = -x, t_2 = t_3 = ... = 0) as a series in x."""
    c = [F(0)] * (degree + 1)
    for (e, ep), v in tau.terms.items():
        k = e[0] if e else 0
        if not ep and len(e) <= 1 and k <= degree:
            c[k] = v
    f = TruncSeries(0, [v * (-1) ** k for k, v in enumerate(c[:degree])], degree)
    df = TruncSeries(0, [(k + 1) * c[k + 1] * (-1) ** k for k in range(degree)], degree)
    return df * f.invert()


@pytest.mark.parametrize("name", ["miura_n2.json", "miura_n3.json"])
def test_criterion_e_wave_function_meets_tau(name):
    # k_1(x) = (d/dt_1 log tau)(t_1 = -x) along the t_1 line (Date, Jimbo,
    # Kashiwara and Miwa; Segal and Wilson, section 5), where k_1 = w_1 / w_0
    # of the dressing: compares the Grassmannian side with the input operator
    M = jsonio.miura_from_json(json.loads((DATA / name).read_text()))
    S = miura_transform(M)
    K = dressing(S)
    k1 = K.terms[-1] * K.terms[0].invert()
    tau = tau_schur(krichever_point(S, (-10, 12)), 11)
    got = line_log_derivative(tau, 11)
    assert [k1.coeff(k) for k in range(11)] == [got.coeff(k) for k in range(11)]


class TestKricheverPoint:
    def test_pure_power_gives_standard(self):
        W = krichever_point(oper(2, [None, None]), (-6, 6))
        assert W == standard_point((-6, 6))

    def test_virtdim_zero(self, rng):
        for _ in range(10):
            S = ScalarOper(
                2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20))
            )
            W = krichever_point(S, (-6, 6))
            assert W.virtdim == 0

    def test_n_reduction(self):
        S = oper(2, [None, {1: -1}])
        W = krichever_point(S, (-6, 6))
        assert n_reduction_holds(W, 2)

    def test_methods_agree_on_trusted_rows(self):
        # the closure recursion seeds column j with dressing data truncated
        # at lo - 1, so its rows below lo - 1 + j are model completion; the
        # PsiDO route reads every column from the dressing symbol and is
        # exact wherever its depth reaches
        S = oper(2, [None, {1: -1, 2: 2}], order=26)
        lo, hi = win = (-4, 4)
        direct = wave_columns(S.to_psido(), win)
        closure = wave_columns(S, win)
        for j, (d, c) in enumerate(zip(direct, closure)):
            floor = lo - 1 + j
            assert {k: v for k, v in d.items() if k >= floor} == {
                k: v for k, v in c.items() if k >= floor
            }, j

    @pytest.mark.parametrize("n", [2, 3])
    def test_closure_columns_are_symbols_on_their_exact_rows(self, rng, n):
        # the recursion weighs q_i^(s)(0) (not the Taylor coefficient) for
        # s >= 2, which first matters at column 2n
        S = ScalarOper(n, tuple(random_poly(rng, 3, order=20) for _ in range(n)))
        lo, hi = win = (-6, 6)
        direct = wave_columns(S.to_psido(), win)
        closure = wave_columns(S, win)
        for j in range(1, hi):
            floor = lo + n * ((j - 1) // n)
            assert {k: v for k, v in direct[j].items() if k >= floor} == {
                k: v for k, v in closure[j].items() if k >= floor
            }, j

    def test_wave_cache_ignores_tail_depth(self):
        # the wave columns read no tail depth, so (S, window) is the whole key
        chi = tpoly({1: 1}, 20)
        S = miura_transform(MiuraOper(2, (chi, -chi)))
        _wave_columns_cached.cache_clear()
        first = krichever_point(S, (-10, 12))
        assert krichever_point(S, (-10, 12)) == first
        info = _wave_columns_cached.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_wave_cache_keys_a_microdifferential_operator(self):
        L = PsiDO({2: TruncSeries.one(20), 0: tpoly({1: 1}, 20), -1: TruncSeries.one(20)})
        _wave_columns_cached.cache_clear()
        first = wave_columns(L, (-4, 4))
        info = _wave_columns_cached.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        assert wave_columns(PsiDO(dict(L.terms)), (-4, 4)) == first
        info = _wave_columns_cached.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("kind", ["psido", "scalar"])
    def test_wave_columns_are_fresh_copies(self, kind):
        chi = tpoly({1: 1}, 20)
        S = miura_transform(MiuraOper(2, (chi, -chi)))
        if kind == "psido":
            S = PsiDO({2: TruncSeries.one(20), 0: tpoly({1: 1}, 20), -1: TruncSeries.one(20)})
        first = wave_columns(S, (-4, 4))
        expected = [dict(col) for col in first]
        first[1][-4] = F(7)
        del first[0][0]
        assert wave_columns(S, (-4, 4)) == expected

    def test_coefficients_too_short_for_the_window(self, rng):
        # row -6 of column 2 reads [t^s] w_p with s + p = 8, so order 8 is short
        S = ScalarOper(3, tuple(random_poly(rng, 2, order=8) for _ in range(3)))
        with pytest.raises(WindowOverflow):
            krichever_point(S, (-6, 6))
        S9 = ScalarOper(3, tuple(random_poly(rng, 2, order=9) for _ in range(3)))
        assert krichever_point(S9, (-6, 6)).virtdim == 0

    def test_symbol_column_refuses_to_read_below_the_dressing(self):
        K = dressing(oper(2, [None, {1: -1}]), depth=-3)
        # row m of column 1 is [t^1] w_-m; w_2 = t/4 + ...
        assert _symbol_columns(K, 2, -3)[1] == {1: F(1), -2: F(1, 4)}
        with pytest.raises(WindowOverflow):
            _symbol_columns(K, 2, -4)
        with pytest.raises(WindowOverflow):
            _symbol_columns(K, 3, -3)
        # w_3 is known only at t^0 when the coefficients stop at t^4
        short = dressing(oper(2, [None, {1: -1}], order=4), depth=-3)
        _symbol_columns(short, 2, -2)
        with pytest.raises(WindowOverflow):
            _symbol_columns(short, 3, -2)

    def test_negative_control_microdifferential(self):
        # a genuinely microdifferential perturbation breaks z^2-containment
        L = PsiDO(
            {
                2: TruncSeries.one(20),
                0: tpoly({1: 1}, 20),
                -1: TruncSeries.one(20),
            }
        )
        W = krichever_point(L, (-4, 4))
        assert not n_reduction_holds(W, 2)


class TestBurchnallChaundy:
    def test_constant_pair(self):
        P = PsiDO({2: TruncSeries.one(14)})
        Q = PsiDO({3: TruncSeries.one(14)})
        rel = bc_relation(P, Q, 6)
        assert rel is not None
        got = dict(rel.coeffs)
        # y^2 - x^3 up to overall normalization
        assert set(got) == {(3, 0), (0, 2)}
        assert got[(3, 0)] / got[(0, 2)] == -1
        assert evaluate_relation(rel, P, Q).is_zero

    def test_cuspidal_pair(self):
        P = PsiDO({2: TruncSeries.one(14), 0: tpoly({-2: -2}, 14)})
        Q = PsiDO(
            {
                3: TruncSeries.one(14),
                1: tpoly({-2: -3}, 14),
                0: tpoly({-3: 3}, 14),
            }
        )
        assert commutator(P, Q).is_zero
        rel = bc_relation(P, Q, 6)
        got = dict(rel.coeffs)
        assert set(got) == {(3, 0), (0, 2)}
        assert got[(3, 0)] / got[(0, 2)] == -1
        assert evaluate_relation(rel, P, Q).is_zero

    def test_noncommuting_rejected(self):
        P = PsiDO({2: TruncSeries.one(12)})
        Q = PsiDO({0: tpoly({1: 1})})
        with pytest.raises(NotCommuting):
            bc_relation(P, Q, 4)

    def test_minimality_rank_profile(self):
        # no dependence exists below the curve's weighted degree 6
        P = PsiDO({2: TruncSeries.one(14), 0: tpoly({-2: -2}, 14)})
        Q = PsiDO(
            {
                3: TruncSeries.one(14),
                1: tpoly({-2: -3}, 14),
                0: tpoly({-3: 3}, 14),
            }
        )
        assert bc_relation(P, Q, 5) is None


class TestFlags:
    def test_zero_miura_standard_flag(self):
        z = TruncSeries.zero(20)
        M = MiuraOper(2, (z, z))
        flag = miura_to_flag(M, (-6, 6))
        flag.validate()
        assert flag_to_grass(flag) == standard_point((-6, 6))
        # monomial refinement: W_1 = z^2 H_+ + span{1}
        assert len(flag.chain[1].columns) == 5

    def test_random_n2_invariants(self, rng):
        for _ in range(3):
            M = MiuraOper(
                2,
                (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20)),
            )
            flag = miura_to_flag(M, (-6, 6))
            flag.validate()
            assert [W.virtdim for W in flag.chain] == [-2, -1, 0]

    def test_n3_chain(self, rng):
        M = MiuraOper(3, tuple(random_poly(rng, 2, order=20) for _ in range(3)))
        flag = miura_to_flag(M, (-6, 6))
        flag.validate()
        assert [len(W.columns) for W in flag.chain] == [3, 4, 5, 6]

    @pytest.mark.parametrize("window", [(0, 1), (-1, 1)])
    def test_window_below_n_columns_is_rejected(self, window):
        z = TruncSeries.zero(20)
        with pytest.raises(WindowOverflow):
            miura_to_flag(MiuraOper(2, (z, z)), window)

    def test_projection_matches_krichever(self, rng):
        from opertau.oper import miura_transform

        M = MiuraOper(
            2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20))
        )
        flag = miura_to_flag(M, (-6, 6))
        W = krichever_point(miura_transform(M), (-6, 6))
        assert flag_to_grass(flag) == W


def reference_chain(M: MiuraOper, window) -> tuple:
    """The flag chain as first built: member i echelonized from scratch out
    of the shifted waves and gauge columns 0 .. i-1, rebuilt per member."""
    n, (lo, hi) = M.n, window
    waves = wave_columns(miura_transform(M), window)
    _, G = gauge_reduce_with_matrix(bidiagonal_matrix(M))
    G0 = [[G[i][k].coeff(0) for k in range(n)] for i in range(n)]
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    G0inv = [row[n:] for row in linalg.rref([a + b for a, b in zip(G0, eye)])[0]]
    w0_cols = [{k + n: v for k, v in col.items() if k + n < hi}
               for col in waves if max(col) + n < hi]
    chain = []
    for i in range(n + 1):
        cols = [dict(c) for c in w0_cols]
        for colidx in range(i):
            vec = {}
            for j in range(n):
                c = G0inv[j][colidx]
                if c:
                    for k, v in waves[j].items():
                        vec[k] = vec.get(k, F(0)) + c * v
            cols.append(vec)
        chain.append(GrassPoint(window, cols))
    return tuple(chain)


@pytest.mark.parametrize("name", ["miura_n2.json", "miura_n3.json"])
@pytest.mark.parametrize("window", [(-10, 12), (-6, 6)])
def test_chain_extends_member_by_member_as_the_from_scratch_chain(name, window):
    M = jsonio.miura_from_json(json.loads((DATA / name).read_text()))
    got, want = miura_to_flag(M, window).chain, reference_chain(M, window)
    assert got == want
    for W, V in zip(got, want):
        assert W.pivots == V.pivots == [max(c) for c in V.columns]
        assert [list(c.items()) for c in W.columns] == [list(c.items()) for c in V.columns]


class TestMainTheorem:
    def test_zero_miura(self):
        z = TruncSeries.zero(20)
        report = main_theorem_check(MiuraOper(2, (z, z)), (-10, 12), 8)
        assert report.all_passed

    def test_random_miura(self, rng):
        M = MiuraOper(
            2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20))
        )
        report = main_theorem_check(M, (-10, 12), 8)
        assert report.all_passed, report

    def test_corrupted_flag_fails(self, rng):
        M = MiuraOper(
            2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20))
        )
        flag = miura_to_flag(M, (-10, 12))
        corrupted = AffineFlagPoint(
            2, (flag.chain[0], flag.chain[2], flag.chain[1])
        )
        report = main_theorem_check(M, (-10, 12), 8, flag=corrupted)
        assert not report.frames_match
        assert not report.all_passed
