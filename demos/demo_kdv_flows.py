"""KdV hierarchy flows as formal vector fields on monic operators.

Run me with:  PYTHONPATH=src python3 demos/demo_kdv_flows.py
"""

from fractions import Fraction

from opertau.kdv import conserved_density, lax_rhs, mkdv_intertwine_check, zs_residual
from opertau.oper import MiuraOper, ScalarOper
from opertau.series import TruncSeries, tpoly

u = tpoly({1: 1, 2: -2}, 16)  # u = t - 2 t^2
zero = TruncSeries.zero(16)
S = ScalarOper(2, (zero, -u))  # L = d^2 + u in the q-sign convention

print("== Lax flows of L = d^2 + u,  u = t - 2t^2 ==")
print()
for r in (1, 2, 3):
    rhs = lax_rhs(S, r)
    tag = "stationary" if rhs.operator.is_zero else "order-0 coefficient"
    val = "" if rhs.operator.is_zero else rhs.operator.terms[0]
    print(f"flow r={r}: {tag} {val}")
print()
print("the r=3 coefficient is (u''' + 6uu')/4, the classical KdV velocity:")
expect = (u.derivative().derivative().derivative() + u * u.derivative() * 6) * Fraction(1, 4)
print("   matches:", lax_rhs(S, 3).operator.terms[0].agrees(expect))
print()

print("== conserved densities res L^(s/2) ==")
for s in (1, 2, 3):
    print(f"s={s}:", conserved_density(S, s))
print()

print("== flows commute (zero-curvature, via eps^2 = 0 directional jets) ==")
for (r, s) in ((1, 3), (3, 5)):
    print(f"(r,s) = ({r},{s}): residual is zero:", zs_residual(S, r, s).is_zero)
print()

print("== the factorization datum (chi, -chi) intertwines its own flow ==")
chi = tpoly({0: 1, 1: 3}, 16)
res = mkdv_intertwine_check(MiuraOper(2, (chi, -chi)), 3)
print("chi = 1 + 3t: intertwining residual is zero:", res.is_zero)
