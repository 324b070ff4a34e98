"""Fermionic Fock space, window Grassmannians, tau functions, Hirota.

Run me with:  PYTHONPATH=src python3 demos/demo_tau_functions.py
"""

from fractions import Fraction

from opertau.fock import MayaState, clifford_apply, h_action
from opertau.grass import GrassPoint, hirota_residual, tau_determinant, tau_schur
from opertau.times import TimesSeries
from opertau.toda import toda_tau, toda_tau_bruteforce

F = Fraction
H = F(1, 2)

print("== Maya states and the charge tower ==")
vac = MayaState.vacuum(window=8)
print("|0>         :", vac)
print("psi+_{-1/2} :", clifford_apply("+", -H, vac), " (the charge-1 vacuum)")
print("H_{-1}|0>   :", h_action(-1, vac), " (one box)")
print("H_1 H_{-1}|0>:", h_action(1, h_action(-1, vac)), " (back to the vacuum)")
print()

print("== a window Grassmannian point and its tau function ==")
a = F(1, 2)
cols = [{0: 1, -1: a}] + [{k: 1} for k in range(1, 6)]
W = GrassPoint((-6, 6), cols)
print("W = span{1 + a/z, z, z^2, ...},  a = 1/2")
tau = tau_schur(W, 6)
print("tau(t) =", tau)
print("the correlator determinant gives the same series:",
      tau == tau_determinant(W, 6))
print()

print("== the first KP Hirota identity holds exactly ==")
tau12 = tau_schur(W, 12)
print("residual through degree 8 is zero:", hirota_residual(tau12, 8).is_zero)
control = TimesSeries.one(None) + TimesSeries.var(1) * TimesSeries.var(1)
print("negative control 1 + t1^2 residual zero:",
      hirota_residual(control, 4).is_zero)
print()

print("== two-sided Toda tau from a single excited pair ==")
pairs = [(F(1, 2), F(3), F(1, 3))]
tau2 = toda_tau(pairs, 2, cutoff=6)
print("tau(t, t') =", tau2)
print("the Fock-space brute force agrees:",
      tau2 == toda_tau_bruteforce(pairs, 2, cutoff=6))
kp = toda_tau(pairs, 12, cutoff=6).restrict_primary()
print("its t'=0 restriction is a KP tau:", hirota_residual(kp, 8).is_zero)
