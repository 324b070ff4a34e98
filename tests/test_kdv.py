from fractions import Fraction

import pytest

from opertau.errors import BadArgument, Unsupported
from opertau.kdv import (
    _flow_operator,
    _root,
    conserved_density,
    lax_rhs,
    mkdv_flow,
    mkdv_intertwine_check,
    zs_residual,
)
from opertau.oper import MiuraOper, ScalarOper
from opertau.series import TruncSeries, tpoly

from .conftest import antiderivative, random_poly


def oper_from_u(u, n=2):
    """L = d^2 + u in the q-convention (q_1 = 0, q_2 = -u)."""
    zero = TruncSeries.zero(u.order)
    return ScalarOper(n, (zero, -u))


def kdv3_expected(u):
    """(u''' + 6 u u')/4 computed with plain series arithmetic."""
    return (u.derivative().derivative().derivative()
            + u * u.derivative() * 6) * Fraction(1, 4)


class TestLaxRhs:
    def test_r1_translation(self, rng):
        u = random_poly(rng, 5, order=14)
        rhs = lax_rhs(oper_from_u(u), 1)
        # [d, L] = u', i.e. dq_2 = -u'
        assert rhs.operator.terms[0].agrees(u.derivative())
        assert rhs.delta_q[1].agrees(-u.derivative())
        assert rhs.delta_q[0].is_zero

    def test_r2_stationary(self, rng):
        u = random_poly(rng, 5, order=14)
        assert lax_rhs(oper_from_u(u), 2).operator.is_zero

    def test_r3_kdv(self, rng):
        for _ in range(3):
            u = random_poly(rng, 5, order=16)
            rhs = lax_rhs(oper_from_u(u), 3)
            assert rhs.operator.terms.get(1) is None
            assert rhs.operator.terms[0].agrees(kdv3_expected(u))

    def test_b3_matches_display(self):
        # L_+^{3/2} = d^3 + (3/2) u d + (3/4) u' for L = d^2 + u
        u = tpoly({1: 1, 2: 2}, 14)
        S = oper_from_u(u)
        B, _ = _flow_operator(S, _root(S, 1 - 3), 3)
        assert B.terms[3].is_one
        assert B.terms[1].agrees(u * Fraction(3, 2))
        assert B.terms[0].agrees(u.derivative() * Fraction(3, 4))

    def test_purely_differential_low_order(self, rng):
        for n in (2, 3):
            for r in (1, 2, 3, 4, 5):
                q = tuple(random_poly(rng, 3, order=16) for _ in range(n))
                rhs = lax_rhs(ScalarOper(n, q), r)
                if r % n == 0:
                    assert rhs.operator.is_zero
                elif not rhs.operator.is_zero:
                    assert rhs.operator.is_differential()
                    assert rhs.operator.top <= n - 2


class TestConservedDensity:
    def test_first_density(self, rng):
        u = random_poly(rng, 4, order=14)
        rho = conserved_density(oper_from_u(u), 1)
        assert rho.agrees(u * Fraction(1, 2))

    def test_differential_powers_vanish(self, rng):
        u = random_poly(rng, 4, order=14)
        assert conserved_density(oper_from_u(u), 2).is_zero
        q = tuple(random_poly(rng, 3, order=14) for _ in range(3))
        assert conserved_density(ScalarOper(3, q), 3).is_zero

    def test_flow_derivative_is_total_derivative(self, rng):
        # d/deps res L^{1/2} along the r=3 flow must integrate termwise,
        # even for Laurent u where a t^-1 obstruction could appear
        from opertau.kdv import _eps_part
        from opertau.psido import PsiDO, commutator, compose, nth_root, split
        from opertau.series import DualSeries

        for _ in range(3):
            u = random_poly(rng, 3, order=14, laurent_from=-2)
            zero = TruncSeries.zero(14)
            L = PsiDO({2: TruncSeries.one(14), 0: u})
            R = nth_root(L, 2)
            B = split(compose(compose(R, R), R))[0]
            delta_u = commutator(B, L).terms.get(0, zero)
            Ld = PsiDO({2: DualSeries(TruncSeries.one(14)),
                        0: DualSeries(u, delta_u)})
            root_tail = nth_root(Ld, 2).terms.get(-1)
            if root_tail is not None:
                rho_dot = root_tail.du
                antiderivative(rho_dot)  # raises ValueError on failure


class TestZS:
    def test_same_flow_vanishes(self, rng):
        u = random_poly(rng, 2, order=14)
        res = zs_residual(oper_from_u(u), 3, 3)
        assert res.is_zero or all(c.is_zero for c in res.terms.values())

    def test_flows_commute_1_3(self, rng):
        for _ in range(2):
            u = random_poly(rng, 2, order=16)
            res = zs_residual(oper_from_u(u), 1, 3)
            assert res.is_zero

    def test_flows_commute_3_5(self, rng):
        u = random_poly(rng, 2, order=18)
        res = zs_residual(oper_from_u(u), 3, 5)
        assert res.is_zero


class TestFlowIndex:
    def test_nonpositive_flow_is_refused(self):
        u = tpoly({1: 1}, 12)
        S = oper_from_u(u)
        for call in (lambda: lax_rhs(S, 0), lambda: zs_residual(S, 1, 0),
                     lambda: zs_residual(S, -1, 3),
                     lambda: mkdv_intertwine_check(MiuraOper(2, (u, -u)), 0)):
            with pytest.raises(BadArgument, match="flow index must be a positive integer"):
                call()


class TestIntertwining:
    def test_zero_chi(self):
        z = TruncSeries.zero(14)
        res = mkdv_intertwine_check(MiuraOper(2, (z, -z)), 3)
        assert res.is_zero

    def test_linear_chi(self):
        chi = tpoly({1: 1}, 16)
        res = mkdv_intertwine_check(MiuraOper(2, (chi, -chi)), 3)
        assert res.is_zero

    def test_random_chi(self, rng):
        for _ in range(4):
            chi = random_poly(rng, 4, order=16)
            res = mkdv_intertwine_check(MiuraOper(2, (chi, -chi)), 3)
            assert res.is_zero

    def test_unsupported(self, rng):
        chi = random_poly(rng, 2)
        with pytest.raises(Unsupported):
            mkdv_intertwine_check(MiuraOper(2, (chi, chi)), 3)
        with pytest.raises(Unsupported):
            mkdv_intertwine_check(MiuraOper(2, (chi, -chi)), 5)
