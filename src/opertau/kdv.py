"""Formal flows of the n-th KdV hierarchy on scalar opers.

Flows are exposed as first-order data only: the Lax right-hand side
[L_+^{r/n}, L] as coefficient updates, conserved densities res L^{s/n},
zero-curvature residuals via dual-number directional derivatives, and the
order-two Miura intertwining residual.  No time integration happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadArgument, InvariantViolation, Unsupported
from .oper import MiuraOper, ScalarOper, miura_transform
from .psido import PsiDO, commutator, compose, nth_root, power, residue, split
from .series import DualSeries, TruncSeries


def _flow(r) -> int:
    """The label r of the flow t_r, a positive integer."""
    r = int(r)
    if r < 1:
        raise BadArgument("flow index must be a positive integer")
    return r


@dataclass(frozen=True)
class LaxRhs:
    """The operator [B_r, L] together with its reading as updates dq_i."""

    n: int
    r: int
    operator: PsiDO
    delta_q: tuple[TruncSeries, ...]  # dq_1 .. dq_n


def _root(S: ScalarOper, depth: int) -> PsiDO:
    """The Schur root of L down to ``depth``: B_r = (R^r)_+ reads R down to
    1 - r, and res R^s reads it down to -s."""
    return nth_root(S.to_psido(), S.n, depth)


def _flow_operator(S: ScalarOper, R: PsiDO, r: int) -> tuple[PsiDO, PsiDO]:
    """(B_r, [B_r, L]) from the Schur root R of L, rooted down to 1 - r."""
    B, _ = split(power(R, r, 0))
    return B, commutator(B, S.to_psido())


def _read_rhs(S: ScalarOper, r: int, rhs: PsiDO) -> LaxRhs:
    """Check that [B_r, L] is differential of order <= n-2; read off the dq_i."""
    n = S.n
    if not rhs.is_zero:
        if not rhs.is_differential() or rhs.top > n - 2:
            raise InvariantViolation(
                "Lax right-hand side left the differential window"
            )
    order = min(s.order for s in S.q) - max(r, n)
    zero = TruncSeries.zero(order)
    delta = []
    for i in range(1, n + 1):
        c = rhs.terms.get(n - i)
        delta.append(-c if c is not None else zero)
    return LaxRhs(n, r, rhs, tuple(delta))


def lax_rhs(S: ScalarOper, r) -> LaxRhs:
    """Right-hand side of dL/dt_r; purely differential, order <= n-2."""
    r = _flow(r)
    _, rhs = _flow_operator(S, _root(S, 1 - r), r)
    return _read_rhs(S, r, rhs)


def conserved_density(S: ScalarOper, s: int) -> TruncSeries:
    """res L^{s/n}, the s-th conserved density."""
    if s < 1:
        raise BadArgument("density index must be positive")
    return residue(power(_root(S, -s), s, -1))


def _dual_scalar_oper(S: ScalarOper, delta: tuple[TruncSeries, ...]) -> PsiDO:
    """L + eps * (dq updates), as a dual-coefficient operator."""
    order = min(x.order for x in S.q)
    terms: dict[int, DualSeries] = {
        S.n: DualSeries(TruncSeries.one(order), TruncSeries.zero(order))
    }
    for i in range(1, S.n + 1):
        re = -S.q[i - 1]
        du = -delta[i - 1]
        if not (re.is_zero and du.is_zero):
            terms[S.n - i] = DualSeries(re, du)
    return PsiDO(terms)


def _dual_b(S: ScalarOper, delta, k: int) -> PsiDO:
    """Dual-number B_k = (L^{k/n})_+ along the direction dq = delta."""
    R = nth_root(_dual_scalar_oper(S, delta), S.n, 1 - k)
    B, _ = split(power(R, k, 0))
    return B


def _eps_part(A: PsiDO) -> PsiDO:
    terms = {}
    for i, c in A.terms.items():
        if isinstance(c, DualSeries):
            terms[i] = c.du
    return PsiDO(terms, A.depth)


def zs_residual(S: ScalarOper, r, s) -> PsiDO:
    """d_{t_r} B_s - d_{t_s} B_r - [B_r, B_s]; zero when the flows commute.

    The directional derivatives re-run the root extraction with eps^2 = 0
    coefficients along dL = [B_k, L]; no second implementation of the root
    is involved.  B_r and B_s share one real root.
    """
    r, s = _flow(r), _flow(s)
    R = _root(S, 1 - max(r, s))
    Br, rhs_r = _flow_operator(S, R, r)
    Bs, rhs_s = _flow_operator(S, R, s)
    rhs_r, rhs_s = _read_rhs(S, r, rhs_r), _read_rhs(S, s, rhs_s)
    dBs = _eps_part(_dual_b(S, rhs_r.delta_q, s))
    dBr = _eps_part(_dual_b(S, rhs_s.delta_q, r))
    return dBs - dBr - commutator(Br, Bs)


def mkdv_flow(chi: TruncSeries) -> TruncSeries:
    """Third modified flow chi_t = (chi''' - 6 chi^2 chi')/4."""
    return (chi.derivative().derivative().derivative()
            - chi * chi * chi.derivative() * 6) * Fraction(1, 4)


def mkdv_intertwine_check(M: MiuraOper, r) -> PsiDO:
    """Residual of (dMiura)(chi_t) - lax_rhs(miura(M), r); zero on n=2.

    Only the third flow of the two-component datum (chi, -chi) is wired up;
    the induced modified flows for general n involve integration choices
    that are out of scope.
    """
    r = _flow(r)
    if M.n != 2 or not (M.chi[0] + M.chi[1]).is_zero:
        raise Unsupported("intertwining implemented for n=2, data (chi, -chi)")
    if r != 3:
        raise Unsupported("intertwining implemented for the r=3 flow")
    chi = M.chi[0]
    chi_t = mkdv_flow(chi)
    order = chi.order
    # directional derivative of the Miura product along (chi_t, -chi_t)
    f1 = PsiDO(
        {1: DualSeries(TruncSeries.one(order)),
         0: DualSeries(-chi, -chi_t)}
    )
    f2 = PsiDO(
        {1: DualSeries(TruncSeries.one(order)),
         0: DualSeries(chi, chi_t)}
    )
    dmiura = _eps_part(compose(f1, f2))
    S = miura_transform(M)
    rhs = lax_rhs(S, r)
    # dq_i sit at d^(n-i) with a minus sign in the scalar operator
    want = PsiDO({2 - i: -rhs.delta_q[i - 1] for i in (1, 2)})
    return dmiura - want
