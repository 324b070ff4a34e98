from fractions import Fraction

import pytest

from opertau.dmodule import AnnihilatorOp, _image, annihilator_basis, same_annihilators
from opertau.times import TimesSeries

F = Fraction


def apply(op, tau):
    """The operator ``op`` applied to ``tau`` through its verified degree."""
    acc = TimesSeries.zero(op.verified_degree)
    for (k, e), c in op.coeffs:
        acc = acc + _image(tau, k, e).truncate(op.verified_degree) * c
    return acc


def exp_t1(c, bound):
    return (TimesSeries.var(1, bound=bound) * c).exp()


class TestAnnihilators:
    def test_constant_tau(self):
        tau = TimesSeries.one(8)
        basis = annihilator_basis(tau, max_order=1, max_degree=0)
        # d/dt1 kills 1; the identity operator does not
        assert len(basis) == 1
        assert basis[0].coeffs == (((1, 0), F(1)),)

    def test_affine_tau(self):
        tau = TimesSeries.one(8) + TimesSeries.var(1, bound=8) * F(3)
        basis = annihilator_basis(tau, max_order=2, max_degree=0)
        ops = {op.coeffs for op in basis}
        assert (((2, 0), F(1)),) in ops

    def test_exponential_tau(self):
        c = F(5, 3)
        tau = exp_t1(c, 10)
        basis = annihilator_basis(tau, max_order=1, max_degree=0)
        # D1 - c, normalized by the echelonization
        assert len(basis) == 1
        got = dict(basis[0].coeffs)
        ratio = got[(1, 0)] / got[(0, 0)]
        assert got[(0, 0)] != 0 and ratio == -1 / c or got == {(1, 0): 1, (0, 0): -c}

    def test_apply_is_zero_through_verified(self):
        tau = exp_t1(F(2), 9)
        for op in annihilator_basis(tau, max_order=2, max_degree=1):
            assert apply(op, tau).is_zero

    def test_basis_comparison(self):
        tau = exp_t1(F(2), 9)
        a = annihilator_basis(tau, 2, 1)
        b = annihilator_basis(tau, 2, 1)
        assert same_annihilators(a, b)
        c = annihilator_basis(TimesSeries.one(9), 2, 1)
        assert not same_annihilators(a, c)

    def test_same_span_in_another_basis(self):
        # a basis mixed by an invertible matrix spans the same space; a
        # proper subset or a basis of another tau does not
        a = annihilator_basis(exp_t1(F(2), 9), 2, 1)
        assert len(a) >= 2
        mixed = {}
        for op, s in ((a[0], F(3)), (a[1], F(-1, 2))):
            for ke, c in op.coeffs:
                mixed[ke] = mixed.get(ke, 0) + s * c
        b = [AnnihilatorOp(tuple(mixed.items()), a[0].verified_degree)] + a[1:]
        assert same_annihilators(a, b) and same_annihilators(b, a)
        assert not same_annihilators(a, a[1:])
        assert not same_annihilators(a, annihilator_basis(exp_t1(F(3), 9), 2, 1))
        assert same_annihilators([], [])
