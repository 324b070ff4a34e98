"""Miura data, gauge reduction, the Krichever map, flags, spectral curves.

Run me with:  PYTHONPATH=src python3 demos/demo_miura_flags.py
"""

from fractions import Fraction

from opertau.krichever import (
    bc_relation,
    flag_to_grass,
    krichever_point,
    main_theorem_check,
    miura_to_flag,
)
from opertau.oper import MiuraOper, bidiagonal_matrix, gauge_reduce, miura_transform
from opertau.parser import parse_operator
from opertau.psido import commutator
from opertau.series import tpoly
from opertau.singular import singular_vector_search

F = Fraction

print("== the Miura transformation, two ways ==")
chi = tpoly({1: 1}, 20)  # chi = t
M = MiuraOper(2, (chi, -chi))
S = miura_transform(M)
print("(d - t)(d + t):  q1 =", S.q[0], " q2 =", S.q[1])
S2 = gauge_reduce(bidiagonal_matrix(M))
print("gauge reduction of the bidiagonal connection agrees:",
      all(a.agrees(b) for a, b in zip(S.q, S2.q)))
print()

print("== the wave space of the transformed operator ==")
W = krichever_point(S, (-6, 6))
print("window point:", W)
print()

print("== refining the point to a periodic flag ==")
flag = miura_to_flag(M, (-6, 6))
print("chain sizes:", [len(Wi.columns) for Wi in flag.chain])
print("virtual dimensions:", [Wi.virtdim for Wi in flag.chain])
print("projection returns the Krichever point:", flag_to_grass(flag) == W)
print()

print("== the full round trip, with every sub-check exact ==")
report = main_theorem_check(M, (-10, 12), 8)
print("frames match:            ", report.frames_match)
print("Hirota residual zero:    ", report.hirota_zero)
print("2-reduction constant:    ", report.reduction_constant)
print("annihilators transported:", report.annihilators_transported)
print()

print("== a rank-one commutative pair and its spectral curve ==")
P = parse_operator("d^2 - 2 t^-2", order=14)
Q = parse_operator("d^3 - 3 t^-2 d + 3 t^-3", order=14)
print("[P, Q] = 0:", commutator(P, Q).is_zero)
rel = bc_relation(P, Q, 6)
print("minimal relation:", rel, " (the cuspidal cubic y^2 = x^3)")
print()

print("== null vectors at the resonant level ==")
print("level 1/3 (generic), depth <= 2:", singular_vector_search(F(1, 3), 2))
found = singular_vector_search(F(1), 2)
print("level 1 (resonant), depth <= 2: ", found)
