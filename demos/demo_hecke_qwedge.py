"""Affine Hecke generators on tensor windows and the q-wedge quotient.

Run me with:  PYTHONPATH=src python3 demos/demo_hecke_qwedge.py
"""

from math import comb

from opertau.hecke import TensorWindow, WedgeReducer, basis_vector, verify_relations

print("== every defining relation, verified as an exact matrix identity ==")
win = TensorWindow(2, 3, (-2, 2))
for name, ok in verify_relations(win):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
print()

print("== the q-wedge quotient has classical exterior dimension ==")
small = TensorWindow(2, 2, (0, 1))
red = WedgeReducer(small)
print(f"window dimension {small.dim}, two factors:",
      f"quotient dimension {red.quotient_dim} = C(4,2) = {comb(4, 2)}")
print()

print("== canonical representatives ==")
e = lambda color, z: (color, z)
for key in [
    (e(1, 0), e(2, 0)),
    (e(2, 0), e(1, 0)),
    (e(1, 0), e(1, 0)),
    (e(1, 1), e(1, 0)),
]:
    rep = red.reduce(basis_vector(key))
    print(f"{key}  ->  {rep if rep else 0}")
print()
print("repeated labels die; swaps cost an explicit rational function of q,")
print("and at q = 1 everything collapses to the classical antisymmetrizer.")
