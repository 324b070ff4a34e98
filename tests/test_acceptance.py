"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check is an exact identity at its stated truncation; there are no
numerical tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random
from fractions import Fraction

import pytest

from opertau.dmodule import annihilator_basis, same_annihilators
from opertau.fock import MayaState, clifford_apply, h_action
from opertau.errors import WindowOverflow
from opertau.grass import (
    GrassPoint,
    hirota_residual,
    random_perturbed_frame,
    tau_determinant,
    tau_schur,
)
from opertau.hecke import TensorWindow, WedgeReducer, QPoly, basis_vector, verify_relations
from opertau.kdv import lax_rhs, mkdv_intertwine_check, zs_residual
from opertau.krichever import (
    AffineFlagPoint,
    bc_relation,
    krichever_point,
    main_theorem_check,
    miura_to_flag,
)
from opertau.oper import (
    MiuraOper,
    ScalarOper,
    bidiagonal_matrix,
    gauge_reduce,
    miura_transform,
)
from opertau.psido import PsiDO, commutator, nth_root
from opertau.series import TruncSeries, tpoly
from opertau.singular import VacuumModule, singular_vector_search
from opertau.times import TimesSeries
from opertau.toda import toda_tau, toda_tau_bruteforce

from .conftest import (
    at_one,
    classical_antisymmetrize,
    evaluate_relation,
    gram_matrix,
    random_poly,
    standard_point,
    window_basis,
)

F = Fraction
H = F(1, 2)


def verdict(num: int, ok: bool, text: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_schur_root_round_trip():
    rng = random.Random(101)
    ok = True
    for n in (2, 3):
        for _ in range(10):
            terms = {n: TruncSeries.one(12)}
            for i in range(n):
                terms[i] = random_poly(rng, 6, order=12)
            L = PsiDO(terms)
            R = nth_root(L, n, depth=-8)
            ok = ok and (R**n).agrees(L)
    verdict(1, ok, "20 random monic L of order 2 and 3: root^n recomposes exactly")


def test_criterion_02_miura_closed_form():
    rng = random.Random(102)
    # a dense series plays the role of a symbolic chi at order 12
    chi = TruncSeries(0, [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(12)], 12)
    S = miura_transform(MiuraOper(2, (chi, -chi)))
    ok = S.q[0].is_zero and S.q[1].agrees(chi * chi - chi.derivative())
    for n in (2, 3):
        for _ in range(5):
            M = MiuraOper(n, tuple(random_poly(rng, 3) for _ in range(n)))
            a = miura_transform(M)
            b = gauge_reduce(bidiagonal_matrix(M))
            ok = ok and a.n == b.n and all(
                x.agrees(y) for x, y in zip(a.q, b.q)
            )
    verdict(2, ok, "q1 = 0, q2 = chi^2 - chi' exactly; gauge reduction agrees, n in {2,3}")


def test_criterion_03_kdv_flow():
    rng = random.Random(103)
    ok = True
    for _ in range(3):
        u = random_poly(rng, 5, order=16)
        S = ScalarOper(2, (TruncSeries.zero(16), -u))
        rhs = lax_rhs(S, 3)
        expect = (
            u.derivative().derivative().derivative() + u * u.derivative() * 6
        ) * F(1, 4)
        ok = ok and rhs.operator.terms[0].agrees(expect)
        ok = ok and rhs.operator.terms.get(1) is None
        ok = ok and lax_rhs(S, 2).operator.is_zero
    verdict(3, ok, "r=3 zero-order coefficient is (u'''+6uu')/4, order-1 zero; r=2 flow vanishes")


def test_criterion_04_commuting_flows():
    rng = random.Random(104)
    ok = True
    for i in range(5):
        u = random_poly(rng, 2, order=16)
        S = ScalarOper(2, (TruncSeries.zero(16), -u))
        ok = ok and zs_residual(S, 1, 3).is_zero
        ok = ok and zs_residual(S, 3, 5).is_zero
    verdict(4, ok, "zero-curvature residuals vanish for (r,s) in {(1,3),(3,5)} on 5 random L")


def test_criterion_05_mkdv_intertwining():
    rng = random.Random(105)
    ok = True
    for _ in range(10):
        chi = random_poly(rng, 4, order=16)
        res = mkdv_intertwine_check(MiuraOper(2, (chi, -chi)), 3)
        ok = ok and res.is_zero
    verdict(5, ok, "modified flow intertwines with the KdV flow for 10 random chi at r=3")


def test_criterion_06_fock_algebra():
    ok = True
    window = 6
    basis = window_basis(0, window)
    half_range = [F(k, 2) for k in range(-7, 8, 2)]
    for m in half_range:
        for n in half_range:
            expect_delta = 1 if m == -n else 0
            for d in basis:
                u = MayaState({d: 1}, window + 10)
                try:
                    ab = clifford_apply("+", m, clifford_apply("-", n, u))
                    ba = clifford_apply("-", n, clifford_apply("+", m, u))
                except WindowOverflow:
                    continue
                if ab + ba != u * expect_delta:
                    ok = False
    for m in range(-6, 7):
        for n in range(-6, 7):
            if m == 0 or n == 0:
                continue
            for d in basis:
                u = MayaState({d: 1}, window)
                try:
                    got = h_action(m, h_action(n, u)) - h_action(n, h_action(m, u))
                except WindowOverflow:
                    continue
                if got != u * (m if m == -n else 0):
                    ok = False
    verdict(6, ok, "Clifford anticommutators and [H_m, H_n] = m delta on the energy-6 window")


def test_criterion_07_tau_consistency():
    rng = random.Random(107)
    ok = tau_schur(standard_point((-8, 8)), 8) == TimesSeries.one(8)
    for _ in range(10):
        W = random_perturbed_frame(rng, (-8, 8))
        ok = ok and tau_schur(W, 8) == tau_determinant(W, 8)
        tau12 = tau_schur(W, 12)
        ok = ok and hirota_residual(tau12, 8).is_zero
    control = TimesSeries.one(None) + TimesSeries.var(1) * TimesSeries.var(1)
    ok = ok and not hirota_residual(control, 4).is_zero
    verdict(7, ok, "Pluecker-Schur tau equals the correlator determinant; Hirota zero; control nonzero")


def test_criterion_08_toda():
    a, p, q = F(1, 2), F(3), F(1, 3)
    closed = toda_tau([(a, p, q)], 6, cutoff=6)
    brute = toda_tau_bruteforce([(a, p, q)], 6, cutoff=6)
    ok = closed == brute
    kp = toda_tau([(a, p, q)], 12, cutoff=6).restrict_primary()
    ok = ok and hirota_residual(kp, 8).is_zero
    verdict(8, ok, "single-pair tau matches the Fock brute force; its t'=0 restriction is a KP tau")


def test_criterion_09_hecke():
    ok = True
    for n in (2, 3):
        win = TensorWindow(n, 3, (-2, 2))
        for name, good in verify_relations(win):
            if not good:
                ok = False
    # q-wedge scales from the WedgeReducer examples: window dimension 4,
    # tensor factors 2 and 3
    from math import comb

    win22 = TensorWindow(2, 2, (0, 1))
    red22 = WedgeReducer(win22)
    ok = ok and win22.dim == 4 and red22.quotient_dim == comb(4, 2)
    for N in (2, 3):
        win = TensorWindow(2, N, (0, 1))
        red = WedgeReducer(win)
        ok = ok and red.quotient_dim == comb(4, N)
        for key in win.basis():
            got = red.reduce(basis_vector(key))
            got1 = {k: QPoly.const(at_one(c)) for k, c in got.items()}
            if classical_antisymmetrize(got1) != classical_antisymmetrize(
                basis_vector(key)
            ):
                ok = False
    verdict(9, ok, "all Hecke relations hold (n in {2,3}, N=3, zrange [-2,2]); q-wedge dims and q->1 forms match")


def test_criterion_10_burchnall_chaundy():
    P = PsiDO({2: TruncSeries.one(14), 0: tpoly({-2: -2}, 14)})
    Q = PsiDO(
        {3: TruncSeries.one(14), 1: tpoly({-2: -3}, 14), 0: tpoly({-3: 3}, 14)}
    )
    ok = commutator(P, Q).is_zero
    rel = bc_relation(P, Q, 6)
    got = dict(rel.coeffs)
    ok = ok and set(got) == {(3, 0), (0, 2)} and got[(3, 0)] / got[(0, 2)] == -1
    ok = ok and evaluate_relation(rel, P, Q).is_zero
    P0 = PsiDO({2: TruncSeries.one(14)})
    Q0 = PsiDO({3: TruncSeries.one(14)})
    rel0 = bc_relation(P0, Q0, 6)
    got0 = dict(rel0.coeffs)
    ok = ok and set(got0) == {(3, 0), (0, 2)} and got0[(3, 0)] / got0[(0, 2)] == -1
    verdict(10, ok, "cuspidal pair commutes with Q^2 = P^3 exactly; pure powers give the same curve")


def test_criterion_11_main_theorem():
    rng = random.Random(111)
    ok = True
    for i in range(10):
        M = MiuraOper(
            2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20))
        )
        report = main_theorem_check(M, (-10, 12), 8)
        ok = (
            ok
            and report.frames_match
            and report.reduction_constant
            and report.annihilators_transported
            and report.hirota_zero
        )
    M = MiuraOper(2, (random_poly(rng, 2, order=20), random_poly(rng, 2, order=20)))
    flag = miura_to_flag(M, (-10, 12))
    corrupted = AffineFlagPoint(2, (flag.chain[0], flag.chain[2], flag.chain[1]))
    bad = main_theorem_check(M, (-10, 12), 8, flag=corrupted)
    ok = ok and not bad.frames_match
    verdict(11, ok, "flag round trip, 2-reduction through degree 8, annihilator transport; corrupted flag fails")


def test_criterion_12_singular_vectors():
    generic = singular_vector_search(F(1, 3), 2)
    resonant = singular_vector_search(F(1), 2)
    ok = generic == [] and len(resonant) == 1
    if ok:
        depth, weight, elem = resonant[0]
        ok = (depth, weight) == (2, 4) and set(elem) == {((-1, "e"), (-1, "e"))}
    # Gram oracle: nonzero determinants at the generic level, kernel at k=1
    mod = VacuumModule(F(1, 3))
    from opertau import linalg

    for d in (1, 2):
        for wt in sorted({mod.weight(w) for w in mod.slice_basis(d)}):
            _, g = gram_matrix(mod, d, wt)
            ok = ok and linalg.det(g) != 0
    _, g = gram_matrix(VacuumModule(F(1)), 2, 4)
    ok = ok and linalg.det(g) == 0
    verdict(12, ok, "one singular vector at level 1 depth 2, none at generic level, per the Gram oracle")
