from fractions import Fraction

import pytest

from opertau.errors import BadArgument, SingularPair
from opertau.fock import MayaState, clifford_apply, h_action
from opertau.grass import hirota_residual
from opertau.times import TimesSeries
from opertau.toda import (
    kernel_plus_minus,
    toda_tau,
    toda_tau_bruteforce,
    word_vev_fock,
    xi,
)

from .conftest import window_basis

F = Fraction


class TestKernels:
    def test_contraction_oracle(self):
        # <0|psi^+(p)psi^-(q)|0> via direct Fock application equals the
        # truncated geometric kernel
        for p, q in [(F(2), F(3)), (F(1, 2), F(5)), (F(-3), F(2, 7))]:
            for cutoff in (1, 3, 6):
                got = word_vev_fock([("+", p), ("-", q)], cutoff)
                assert got == kernel_plus_minus(p, q, cutoff)
                rev = word_vev_fock([("-", q), ("+", p)], cutoff)
                assert rev == kernel_plus_minus(q, p, cutoff)

    def test_same_sign_words_vanish(self):
        assert word_vev_fock([("+", F(2)), ("+", F(3))], 4) == 0
        assert word_vev_fock([("-", F(2)), ("-", F(3))], 4) == 0


class TestModeEvolutionIdentities:
    def test_h_commutes_onto_shifted_modes(self):
        # [H_n, psi^+_i] = psi^+_{i+n} and [H_n, psi^-_j] = -psi^-_{j+n}:
        # the exact identities behind the exponential evolution factors
        window = 24
        states = [MayaState({d: 1}, window) for d in window_basis(0, 3)]
        for n in (-2, -1, 1, 2):
            for i2 in (-5, -3, -1, 1, 3, 5):
                i = F(i2, 2)
                for u in states:
                    for kind, sgn, shift in (("+", 1, n), ("-", -1, n)):
                        lhs = h_action(n, clifford_apply(kind, i, u)) - clifford_apply(
                            kind, i, h_action(n, u)
                        )
                        rhs = clifford_apply(kind, i + shift, u) * sgn
                        assert lhs == rhs, (n, i, kind)


class TestClosedForm:
    def test_no_pairs(self):
        assert toda_tau([], 6) == TimesSeries.one(6)

    def test_single_pair_structure(self):
        a, p, q = F(1, 2), F(3), F(2)
        tau = toda_tau([(a, p, q)], 4, cutoff=5)
        k = kernel_plus_minus(p, q, 5)
        eta = xi(p, 4) - xi(q, 4) + xi(1 / p, 4, prime=True) - xi(1 / q, 4, prime=True)
        expect = TimesSeries.one(4) + eta.exp() * (a * k)
        assert tau == expect

    def test_singular_pair(self):
        with pytest.raises(SingularPair):
            toda_tau([(F(1), F(2), F(2))], 4)
        with pytest.raises(SingularPair):
            toda_tau([(F(1), F(2), F(3)), (F(1), F(3), F(5))], 4)


class TestBruteForce:
    def test_single_pair_matches(self):
        a, p, q = F(1, 3), F(2), F(1, 2)
        got = toda_tau_bruteforce([(a, p, q)], 5, cutoff=5)
        want = toda_tau([(a, p, q)], 5, cutoff=5)
        assert got == want

    def test_two_pairs_match(self):
        pairs = [(F(1), F(2), F(3)), (F(1, 2), F(5), F(1, 5))]
        got = toda_tau_bruteforce(pairs, 4, cutoff=4)
        want = toda_tau(pairs, 4, cutoff=4)
        assert got == want

    def test_three_pairs_match(self):
        pairs = [(F(1), F(2), F(3)), (F(1, 2), F(5), F(1, 5)), (F(-1), F(7), F(1, 7))]
        got = toda_tau_bruteforce(pairs, 2, cutoff=3)
        want = toda_tau(pairs, 2, cutoff=3)
        assert got == want

    @pytest.mark.parametrize("route", [toda_tau, toda_tau_bruteforce])
    @pytest.mark.parametrize("cutoff", [0, -3])
    def test_both_routes_reject_a_cutoff_below_one(self, route, cutoff):
        with pytest.raises(BadArgument):
            route([(F(1), F(2), F(3))], 4, cutoff=cutoff)


class TestReduction:
    def test_t_prime_zero_is_kp(self):
        a, p, q = F(2), F(2), F(3)
        tau = toda_tau([(a, p, q)], 12, cutoff=6).restrict_primary()
        assert hirota_residual(tau, 8).is_zero

    def test_exact_two_soliton_control(self):
        # with the exact kernels 1/(p-q) the two-pair coefficient is the
        # Cauchy determinant and the Hirota residual vanishes; truncated
        # kernels break the Cauchy relation, so only one-pair data is
        # claimed to reduce to KP
        p1, q1, p2, q2 = F(2), F(3), F(5), F(7)
        c1, c2 = F(1) / (p1 - q1), F(1, 2) / (p2 - q2)
        cross = ((p1 - p2) * (q1 - q2)) / ((p1 - q2) * (q1 - p2))
        e1 = (xi(p1, 10) - xi(q1, 10)).exp()
        e2 = (xi(p2, 10) - xi(q2, 10)).exp()
        tau = TimesSeries.one(10) + e1 * c1 + e2 * c2 + e1 * e2 * (c1 * c2 * cross)
        assert hirota_residual(tau, 6).is_zero
