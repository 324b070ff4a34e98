"""Microdifferential operators: composition, splitting, and Schur roots.

Run me with:  PYTHONPATH=src python3 demos/demo_operators_and_roots.py
"""

from opertau.parser import parse_operator, print_operator
from opertau.psido import PsiDO, commutator, compose, nth_root, residue, split
from opertau.series import TruncSeries, tpoly

print("== the ring Q[[t]]((d^-1)) ==")
print()

# d does not commute with functions: d t = t d + 1
A = parse_operator("d t")
print("d t           =", print_operator(A))

# and the inverse of d is an honest two-sided inverse
print("d d^-1        =", print_operator(parse_operator("d d^-1")))

# but moving a function past d^-1 costs an infinite tail, cut at the
# default tail depth (-8) and recorded on the result
B = parse_operator("d^-1 t")
print("d^-1 t        =", print_operator(B))
print("   trusted depth:", B.depth)
print()

print("== the Schur root ==")
print()
u = tpoly({1: 1})  # u = t
L = PsiDO({2: TruncSeries.one(12), 0: u})
R = nth_root(L, 2)
print("L       = d^2 + t")
print("L^(1/2) =", print_operator(R))
square = compose(R, R)
print("root squared agrees with L:", square.agrees(L))
print()

# the residue (coefficient of d^-1) of powers of the root generates the
# conserved densities of the flows built on L
print("res L^(1/2) =", residue(R), " (equals u/2)")
plus, minus = split(compose(compose(R, R), R))
print("L^(3/2)_+   =", print_operator(plus))
print()

print("== commutators close on lower order ==")
P = parse_operator("d^2")
Q = parse_operator("t^2")
print("[d^2, t^2] =", print_operator(commutator(P, Q)))
