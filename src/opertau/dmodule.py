"""Annihilating differential operators of a tau function.

Operators are polynomials in d/dt_1 with polynomial coefficients in t_1,
P = sum c_{k,e} t_1^e (d/dt_1)^k, found by exact linear algebra on the
coefficients of P tau through the degree the truncation supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import BadArgument
from .times import TimesSeries


@dataclass(frozen=True)
class AnnihilatorOp:
    """sum over (k, e) of coeff * t_1^e (d/dt_1)^k, with provenance."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]  # ((k, e), c)
    verified_degree: int

    def __repr__(self):
        bits = []
        for (k, e), c in self.coeffs:
            mon = []
            if e:
                mon.append(f"t1^{e}" if e > 1 else "t1")
            if k:
                mon.append(f"D1^{k}" if k > 1 else "D1")
            body = "*".join(mon) if mon else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)


def annihilator_basis(
    tau: TimesSeries, max_order: int, max_degree: int
) -> list[AnnihilatorOp]:
    """Echelonized basis of operators with P tau = 0 through the verified degree.

    The verified degree is bound(tau) - max_order: differentiation consumes
    weighted degree, so deeper claims would overreach the truncation.
    """
    if tau.bound is None:
        raise BadArgument("annihilators of exact polynomials: truncate first")
    if max_order < 0 or max_degree < 0:
        raise BadArgument("bounds must be nonnegative")
    verified = tau.bound - max_order
    if verified < 0:
        raise BadArgument("tau is not known deep enough for this order bound")
    monomials = [(k, e) for k in range(max_order + 1) for e in range(max_degree + 1)]
    images = [_image(tau, k, e).truncate(verified).terms for k, e in monomials]
    return [
        AnnihilatorOp(tuple((ke, c) for ke, c in zip(monomials, vec) if c != 0), verified)
        for vec in linalg.relations(images)
    ]


def _image(tau: TimesSeries, k: int, e: int) -> TimesSeries:
    """t_1^e (d/dt_1)^k tau."""
    for _ in range(k):
        tau = tau.derivative(1)
    for _ in range(e):
        tau = tau.mul_var(1)
    return tau


def same_annihilators(a: list[AnnihilatorOp], b: list[AnnihilatorOp]) -> bool:
    """Do two bases span the same operator space (equal reduced echelons)?"""
    coeffs = [[dict(op.coeffs) for op in ops] for ops in (a, b)]
    monos = sorted({ke for c in coeffs[0] + coeffs[1] for ke in c})
    return linalg.echelon(coeffs[0], monos) == linalg.echelon(coeffs[1], monos)
