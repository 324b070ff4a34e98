import random
from fractions import Fraction

import pytest

from opertau.errors import WindowOverflow
from opertau.fock import (
    MayaState,
    clifford_apply,
    diagram,
    h_action,
    partitions,
)

from .conftest import window_basis

H = Fraction(1, 2)


def charges(state):
    return {m for m, _ in state.terms}


def random_state(rng, charge=0, window=6):
    basis = window_basis(charge, window)
    terms = {}
    for d in rng.sample(basis, k=min(4, len(basis))):
        terms[d] = Fraction(rng.randint(-5, 5))
    return MayaState(terms, window)


class TestClifford:
    def test_annihilation(self):
        vac = MayaState.vacuum()
        for j in (H, 3 * H, 5 * H):
            assert clifford_apply("+", j, vac).is_zero
            assert clifford_apply("-", j, vac).is_zero

    def test_charge_raising(self):
        vac = MayaState.vacuum()
        got = clifford_apply("+", -H, vac)
        assert got == MayaState({diagram(1): 1})

    def test_charge_tower(self):
        # |m> = psi^+_{-m+1/2} ... psi^+_{-1/2} |0>
        state = MayaState.vacuum(window=8)
        for m in range(1, 4):
            state = clifford_apply("+", Fraction(-2 * m + 1, 2), state)
            assert state == MayaState({diagram(m): 1}, 8)

    def test_anticommutator_is_delta(self, rng):
        window = 8
        for _ in range(20):
            u = random_state(rng, charge=rng.randint(-1, 1), window=window)
            m = Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 2)
            n = Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 2)
            big = MayaState(u.terms, window + 8)
            try:
                ab = clifford_apply("+", m, clifford_apply("-", n, big))
                ba = clifford_apply("-", n, clifford_apply("+", m, big))
            except WindowOverflow:
                continue
            got = ab + ba
            expect = big * (1 if m == -n else 0)
            assert got == expect

    def test_same_sign_anticommute(self, rng):
        u = MayaState(random_state(rng).terms, 12)
        a = clifford_apply("+", -H, clifford_apply("+", -3 * H, u))
        b = clifford_apply("+", -3 * H, clifford_apply("+", -H, u))
        assert (a + b).is_zero
        c = clifford_apply("-", -H, clifford_apply("-", -5 * H, u))
        d = clifford_apply("-", -5 * H, clifford_apply("-", -H, u))
        assert (c + d).is_zero

    def test_charge_shift(self, rng):
        u = MayaState(random_state(rng).terms, 10)
        up = clifford_apply("+", -3 * H, u)
        if not up.is_zero:
            assert charges(up) == {c + 1 for c in charges(u)}


class TestHeisenberg:
    def test_annihilates_vacuum(self):
        vac = MayaState.vacuum()
        for k in (1, 2, 3):
            assert h_action(k, vac).is_zero

    def test_lowering_once(self):
        got = h_action(-1, MayaState.vacuum())
        assert got == MayaState({diagram(0, (1,)): 1})

    def test_h1_hm1_vacuum(self):
        got = h_action(1, h_action(-1, MayaState.vacuum()))
        assert got == MayaState({diagram(0): 1})

    def test_commutator_on_window(self):
        # [H_m, H_n] = m delta_{m,-n} wherever both orderings stay in-window
        window = 6
        basis = window_basis(0, window)
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m == 0 or n == 0:
                    continue
                for d in basis:
                    u = MayaState({d: 1}, window)
                    try:
                        mn = h_action(m, h_action(n, u))
                        nm = h_action(n, h_action(m, u))
                    except WindowOverflow:
                        continue
                    got = mn - nm
                    expect = u * (m if m == -n else 0)
                    assert got == expect, (m, n, d)

    def test_charge_preserved(self, rng):
        u = MayaState(random_state(rng).terms, 12)
        got = h_action(-2, u)
        if not got.is_zero:
            assert charges(got) <= charges(u)

    def test_oracle_against_clifford_composition(self, rng):
        # H_k = sum_i psi^+_{-i} psi^-_{i+k} checked termwise on a big window;
        # modes deeper than the disturbed zone contribute exact zeros
        window = 48
        for k in (-2, -1, 1, 2):
            u = MayaState(random_state(rng, window=4).terms, window)
            expect = MayaState.zero(window)
            for i2 in range(-17, 18, 2):
                i = Fraction(i2, 2)
                expect = expect + clifford_apply("+", -i, clifford_apply("-", i + k, u))
            got = MayaState(h_action(k, u).terms, window)
            assert got == expect, k


class TestWindow:
    def test_overflow_raises(self):
        u = MayaState({diagram(0, (6,)): 1}, 6)
        with pytest.raises(WindowOverflow):
            h_action(-1, u)

    def test_partitions_count(self):
        assert len(list(partitions(6))) == 11
        assert len(window_basis(0, 6)) == 1 + 1 + 2 + 3 + 5 + 7 + 11

