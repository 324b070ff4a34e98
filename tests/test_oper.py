from fractions import Fraction

import pytest

from opertau.errors import BadMiuraInput, NotOperForm
from opertau.oper import (
    MatrixConnection,
    MiuraOper,
    ScalarOper,
    bidiagonal_matrix,
    gauge_reduce,
    gauge_reduce_with_matrix,
    miura_transform,
)
from opertau.psido import PsiDO, compose
from opertau.series import TruncSeries, tpoly

from .conftest import random_poly


def companion_matrix(S):
    """First row q_1..q_n, unit subdiagonal, zeros elsewhere."""
    order = min(s.order for s in S.q)
    zero = TruncSeries.zero(order)
    one = TruncSeries.one(order)
    rows = [list(S.q)]
    for i in range(1, S.n):
        rows.append([one if j == i - 1 else zero for j in range(S.n)])
    return MatrixConnection(S.n, tuple(tuple(r) for r in rows))


def validate_oper(C):
    """Unit subdiagonal, zeros strictly below it, power-series entries."""
    n = C.n
    for i in range(n):
        for j in range(n):
            e = C.A[i][j]
            if e.pole < 0 and not e.is_zero:
                return False
            if i == j + 1:
                if e.pole != 0 or e.coeff(0) == 0:
                    return False
            elif i > j + 1:
                if not e.is_zero:
                    return False
    return True


def chi_series():
    return tpoly({0: 2, 1: -1, 3: 1})


class TestMiura:
    def test_single_factor(self):
        chi = chi_series()
        S = miura_transform(MiuraOper(1, (chi,)))
        assert S.q[0].agrees(chi)

    def test_pair_symbolic_oracle(self):
        # expand (d - chi)(d + chi) with series arithmetic directly
        chi = chi_series()
        S = miura_transform(MiuraOper(2, (chi, -chi)))
        assert S.q[0].is_zero
        assert S.q[1].agrees(chi * chi - chi.derivative())

    def test_zero_data(self):
        z = TruncSeries.zero(12)
        S = miura_transform(MiuraOper(2, (z, z)))
        assert S.q[0].is_zero and S.q[1].is_zero

    def test_pole_rejected(self):
        with pytest.raises(BadMiuraInput):
            miura_transform(MiuraOper(1, (tpoly({-1: 1}),)))

    def test_left_multiplicativity(self, rng):
        # prepending chi_0 composes (d - chi_0) on the left, as operators
        chis = tuple(random_poly(rng, 3) for _ in range(2))
        chi0 = random_poly(rng, 3)
        small = miura_transform(MiuraOper(2, chis)).to_psido()
        big = miura_transform(MiuraOper(3, (chi0,) + chis)).to_psido()
        factor = PsiDO.d(1, 12) - PsiDO.from_series(chi0)
        assert big.agrees(compose(factor, small))


class TestCompanion:
    def test_matrix_shape(self):
        q1, q2 = tpoly({1: 1}), tpoly({0: 3})
        C = companion_matrix(ScalarOper(2, (q1, q2)))
        assert C.A[0][0].agrees(q1) and C.A[0][1].agrees(q2)
        assert C.A[1][0].is_one and C.A[1][1].is_zero

    def test_pure_power(self):
        z = TruncSeries.zero(12)
        C = companion_matrix(ScalarOper(3, (z, z, z)))
        assert all(C.A[0][j].is_zero for j in range(3))

    def test_round_trip(self, rng):
        q = tuple(random_poly(rng, 4) for _ in range(3))
        S = ScalarOper(3, q)
        assert ScalarOper(3, tuple(companion_matrix(S).A[0])).agrees(S)


class TestValidate:
    def test_companion_true(self):
        S = ScalarOper(2, (tpoly({1: 1}), tpoly({0: 1})))
        assert validate_oper(companion_matrix(S))

    def test_zero_matrix_false(self):
        z = TruncSeries.zero(12)
        C = MatrixConnection(2, ((z, z), (z, z)))
        assert not validate_oper(C)

    def test_bidiagonal_true(self, rng):
        M = MiuraOper(3, tuple(random_poly(rng, 3) for _ in range(3)))
        assert validate_oper(bidiagonal_matrix(M))


class TestGaugeReduce:
    def test_companion_unchanged(self, rng):
        q = tuple(random_poly(rng, 3) for _ in range(3))
        S = ScalarOper(3, q)
        assert gauge_reduce(companion_matrix(S)).agrees(S)

    def test_matches_miura_n2(self, rng):
        for _ in range(5):
            M = MiuraOper(2, tuple(random_poly(rng, 3) for _ in range(2)))
            assert gauge_reduce(bidiagonal_matrix(M)).agrees(miura_transform(M))

    def test_matches_miura_n3(self, rng):
        for _ in range(5):
            M = MiuraOper(3, tuple(random_poly(rng, 3) for _ in range(3)))
            assert gauge_reduce(bidiagonal_matrix(M)).agrees(miura_transform(M))

    def test_gauge_matrix_unipotent(self, rng):
        M = MiuraOper(3, tuple(random_poly(rng, 2) for _ in range(3)))
        _, G = gauge_reduce_with_matrix(bidiagonal_matrix(M))
        for i in range(3):
            assert G[i][i].is_one
            for k in range(i):
                assert G[i][k].is_zero

    def test_non_oper_rejected(self):
        z = TruncSeries.zero(12)
        o = TruncSeries.one(12)
        C = MatrixConnection(2, ((z, z), (tpoly({0: 2}), z)))
        with pytest.raises(NotOperForm):
            gauge_reduce(C)
        C2 = MatrixConnection(3, ((z, z, z), (o, z, z), (o, o, z)))
        with pytest.raises(NotOperForm):
            gauge_reduce(C2)
