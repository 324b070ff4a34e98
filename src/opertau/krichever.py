"""Sato dressing, the Krichever map, spectral relations, and flag points.

The dressing operator K = w_0 + w_1 d^-1 + ... conjugates d^n to a given
monic operator L: the wave function psi = K e^(tz) solves L psi = z^n psi.
The symbols of d^j K at t = 0, read off the Taylor coefficients of the w_p,
are the frame of a Grassmannian window point.  Columns beyond the operator
order follow from the exact shift recursion

    z^n c_j = c_{j+n} - sum_{i,s} C(j,s) q_i^(s)(0) c_{j+n-i-s},

the t = 0 shadow of d^j L K = d^j K d^n, which makes the window model
n-reduced on the nose.  A Miura datum refines the resulting point to a
periodic flag via the gauge matrix of its bidiagonal connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .dmodule import annihilator_basis, same_annihilators
from .errors import BadArgument, NotCommuting, NotMonic, WindowOverflow
from .grass import GrassPoint, hirota_residual, tau_determinant, tau_schur
from .oper import (
    MiuraOper,
    ScalarOper,
    bidiagonal_matrix,
    gauge_reduce_with_matrix,
    miura_transform,
)
from .psido import (DEFAULT_TAIL_DEPTH, PsiDO, _binom, _compose_coeff, commutator,
                    compose)
from .series import DEFAULT_ORDER, TruncSeries

Window = tuple[int, int]


def dressing(S, depth: int = DEFAULT_TAIL_DEPTH) -> PsiDO:
    """The dressing K = w_0 + w_1 d^-1 + ... of a ScalarOper or monic PsiDO L.

    psi = K e^(tz) = e^(tz) sum_p w_p z^-p solves L psi = z^n psi, so
    L K = K d^n.  For L = sum_m a_m d^m (a_n = 1) the z^(n-1-p) coefficient
    reads n w_p' + a_(n-1) w_p = -[L K_p]_(n-1-p), where K_p holds w_0 ...
    w_(p-1) only; ``_compose_coeff`` sums that binomial rule, as for any
    product.  The power series solutions with w_0(0) = 1, w_p(0) = 0
    (p >= 1) make K unique.  w_p reads a_m for m >= n - 1 - p only, so K is
    trusted down to ``depth`` or L.depth - n + 1, whichever is shallower, and
    never below the last w_p known past t^0.
    """
    L = S.to_psido() if isinstance(S, ScalarOper) else S
    if L.top is None or not L.terms[L.top].is_one:
        raise NotMonic("dressing needs a monic operator")
    n = L.top
    target = depth if L.depth is None else max(depth, L.depth - n + 1)
    order = L.terms[n].order
    r0 = L.terms[n - 1] * Fraction(1, n) if n - 1 in L.terms else None
    K = {0: _solve_linear_ode(r0, None, order, head=1)}  # the nonzero w_p, by d-order -p
    derivs: dict[int, list] = {}
    for p in range(1, -target + 1):
        if order - p < 2:
            target = 1 - p  # w_p(0) = 0 is all that is known of w_p
            break
        total = _compose_coeff(L.terms, K, n - 1 - p, derivs)
        rhs = None if total is None else total * Fraction(1, n)
        w = _solve_linear_ode(r0, rhs, order - p, head=0)
        if not w.is_zero:
            K[-p] = w
    return PsiDO(K, target)


def _solve_linear_ode(
    r0: TruncSeries | None, rhs: TruncSeries | None, width: int, head: Fraction | int
) -> TruncSeries:
    """Power-series solution of k' + r0 k + rhs = 0 with k(0) = head, cut
    where r0 or rhs stops being known; t^(m+1) of k reads t^0 .. t^m of r0
    and rhs."""
    for f in (r0, rhs):
        if f is not None:
            width = min(width, max(f.order, 0) + 1)
    r, b = _taylor(r0, width - 1), _taylor(rhs, width - 1)
    coeffs = [Fraction(head)]
    for m in range(width - 1):
        total = -b[m] - sum(r[a] * coeffs[m - a] for a in range(m + 1) if r[a])
        coeffs.append(total / (m + 1))
    return TruncSeries(0, coeffs[:width], width)


def _taylor(f: TruncSeries | None, n: int) -> list[Fraction]:
    """[t^0] f, ..., [t^(n-1)] f from one read of ``f.coeffs``; zeros for
    None.  f must know them."""
    if f is None:
        return [Fraction(0)] * n
    cs = f.coeffs
    return [cs[k - f.pole] if k >= f.pole else Fraction(0) for k in range(n)]


def wave_columns(S, window: Window) -> list[dict[int, Fraction]]:
    """Raw wave columns, memoized on the (hashable) operator and window."""
    return [dict(col) for col in _wave_columns_cached(S, window)]


@lru_cache(maxsize=64)
def _wave_columns_cached(S, window):
    return tuple(tuple(col.items()) for col in _wave_columns(S, window))


def _wave_columns(S, window: Window) -> list[dict[int, Fraction]]:
    """Raw (un-echelonized) wave-function columns c_0, c_1, ... on a window.

    The input type picks the route.  A differential ScalarOper takes the
    closure recursion: columns j < n are the dressing symbols, exact on
    every row >= lo, and the exact n-reduction recursion extends them, so
    the frame satisfies z^n W inside W exactly.  Column j >= 1 is then the
    symbol of d^j K on rows >= lo + n floor((j - 1) / n); below that the
    model completes it in the unique n-reduced way.  Any other monic PsiDO
    reads every column from its dressing symbol.
    """
    lo, hi = window
    if lo > 0 or hi <= 0:
        raise BadArgument("window must contain 0")
    if not isinstance(S, ScalarOper):
        K = dressing(S, depth=lo - hi)
        return _symbol_columns(K, hi, lo)
    n = S.n
    # row lo of column n - 1 reads [t^s] w_p with s + p = n - 1 - lo
    need_order = max(hi + 2, n - lo)
    if min(s.order for s in S.q) < need_order:
        raise WindowOverflow("coefficient series too short for the requested window")
    # wider coefficient windows only slow the dressing down
    S = ScalarOper(n, tuple(s.truncate(need_order) for s in S.q))
    K = dressing(S, depth=min(0, lo + 2 - n))
    cols = _symbol_columns(K, min(n, hi), lo)
    qd = [[factorial(s) * c for s, c in enumerate(_taylor(q, hi + 1))] for q in S.q]  # q_i^(s)(0)
    for j in range(len(cols), hi):  # every column keeps to rows lo..j
        base = {k + n: v for k, v in cols[j - n].items()}
        for i in range(1, n + 1):
            for s in range(j - n + 1):
                c = _binom(j - n, s) * qd[i - 1][s]
                if c:
                    for k, v in cols[j - i - s].items():
                        base[k] = base.get(k, Fraction(0)) + c * v
        cols.append({k: v for k, v in base.items() if v != 0})
    return cols


def krichever_point(S, window: Window) -> GrassPoint:
    """The echelonized window frame of the wave space of a monic operator."""
    return GrassPoint(window, wave_columns(S, window))


def _symbol_columns(K: PsiDO, count: int, lo: int) -> list[dict[int, Fraction]]:
    """z-symbols of d^j K = sum C(j, s) w_p^(s) d^(j-s-p) at t = 0, rows >= lo,
    for j < count.

    As w_0(0) = 1 and w_p(0) = 0 for p >= 1, row m of column j is
    [m = j] + sum_(s >= 1) C(j, s) s! [t^s] w_(j-s-m), with s < count, so
    each w_p is read once, through t^(count-1).  Raises WindowOverflow
    rather than read a w_p below K.depth or past its series' order.
    """
    heads = {}  # (pole, order, coeffs) of each w through t^(count-1), by d-order
    for i, w in K.terms.items():
        w = w.truncate(count)
        heads[i] = w.pole, w.order, w.coeffs
    cols = []
    for j in range(count):
        if j and K.depth is not None and lo + 1 - j < K.depth:
            raise WindowOverflow("dressing too shallow for the window")
        col = {j: Fraction(1)}
        for m in range(lo, j):
            v = Fraction(0)
            for s in range(1, min(j, j - m) + 1):
                head = heads.get(m + s - j)
                if head is not None:
                    pole, order, cs = head
                    if s >= order:
                        raise WindowOverflow("dressing coefficients too short for the window")
                    if s >= pole:
                        v += _binom(j, s) * factorial(s) * cs[s - pole]
            if v:
                col[m] = v
        cols.append(col)
    return cols


def n_reduction_holds(W: GrassPoint, n: int) -> bool:
    """Does z^n map the frame into the model, away from the window edge?"""
    return W.shift_within(W, n)


# -- spectral relations -----------------------------------------------------------


@dataclass(frozen=True)
class SpectralRelation:
    """Polynomial F(x, y) with F(P, Q) = 0 as operators mod truncation."""

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...]  # ((a, b), c)

    def __repr__(self):
        bits = []
        for (a, b), c in self.coeffs:
            mon = []
            if a:
                mon.append(f"x^{a}" if a > 1 else "x")
            if b:
                mon.append(f"y^{b}" if b > 1 else "y")
            bits.append(f"({c})" + ("*" + "*".join(mon) if mon else ""))
        return " + ".join(bits)


def bc_relation(P: PsiDO, Q: PsiDO, bound: int) -> SpectralRelation | None:
    """Minimal-degree polynomial relation between a commuting pair.

    Monomials x^a y^b are ordered by the weighted degree a ord(P) + b ord(Q)
    and the first exact linear dependence among the operators P^a Q^b is
    returned; None if no dependence exists within the bound.  That order
    needs differential P and Q, whose products are finite sums.
    """
    if not (P.is_differential() and Q.is_differential()):
        raise BadArgument("spectral relations need operators without negative orders")
    if not commutator(P, Q).is_zero:
        raise NotCommuting("spectral relations require [P, Q] = 0")
    np_, nq = P.top or 0, Q.top or 0
    monos = [
        (a, b)
        for a in range(bound // max(np_, 1) + 1)
        for b in range(bound // max(nq, 1) + 1)
        if a * np_ + b * nq <= bound
    ]
    monos.sort(key=lambda ab: (ab[0] * np_ + ab[1] * nq, ab))
    memo: dict = {}
    for degree in sorted({a * np_ + b * nq for a, b in monos}):
        batch = [ab for ab in monos if ab[0] * np_ + ab[1] * nq <= degree]
        ops = [_monomial(P, Q, a, b, memo) for a, b in batch]
        null = linalg.relations(_trusted_coefficients(ops))
        if null:
            coeffs = tuple((ab, c) for ab, c in zip(batch, null[0]) if c != 0)
            lead = coeffs[-1][1]
            return SpectralRelation(tuple((ab, c / lead) for ab, c in coeffs))
    return None


def _monomial(P: PsiDO, Q: PsiDO, a: int, b: int, memo: dict) -> PsiDO:
    """P^a Q^b composed as ((P P) ... P) Q) ... Q, each from the monomial one
    factor shorter; ``memo`` keeps them by (a, b)."""
    if (a, b) not in memo:
        if (a, b) == (0, 0):
            order = min((s.order for s in [*P.terms.values(), *Q.terms.values()]),
                        default=DEFAULT_ORDER)
            memo[a, b] = PsiDO({0: TruncSeries.one(order)})
        else:
            prev, factor = ((a, b - 1), Q) if b else ((a - 1, 0), P)
            memo[a, b] = factor if prev == (0, 0) else compose(_monomial(P, Q, *prev, memo), factor)
    return memo[a, b]


def _trusted_coefficients(ops: list[PsiDO]) -> list[dict]:
    """Each operator's coefficients {(d-order, t-exponent): value} at the
    positions every operator trusts, so a dependence is exact on the shared
    window."""
    depth = max((o.depth for o in ops if o.depth is not None), default=None)
    cap = min((s.order for o in ops for s in o.terms.values()), default=None)
    return [
        {(m, k): v for m, c in o.terms.items() if depth is None or m >= depth
         for k, v in c.items() if cap is None or k < cap}
        for o in ops
    ]


# -- flags ------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineFlagPoint:
    """Chain W_0 in W_1 in ... in W_n of window points, z^n W_n = W_0."""

    n: int
    chain: tuple[GrassPoint, ...]

    def validate(self) -> None:
        n = self.n
        if len(self.chain) != n + 1:
            raise WindowOverflow("chain must have n + 1 members")
        window = self.chain[0].window
        for i, W in enumerate(self.chain):
            if W.window != window:
                raise WindowOverflow("chain members must share one window")
            if W.virtdim != i - n:
                raise BadArgument(
                    f"virtual dimension of W_{i} is {W.virtdim}, want {i - n}"
                )
        for i in range(n):
            small, big = self.chain[i], self.chain[i + 1]
            for col in small.columns:
                if not big.contains(col):
                    raise BadArgument(f"W_{i} is not contained in W_{i+1}")
            if len(big.columns) - len(small.columns) != 1:
                raise BadArgument("successive quotients must be one-dimensional")
        if not self.chain[n].shift_within(self.chain[0], n):
            raise BadArgument("z^n W_n does not land in W_0")


def miura_to_flag(M: MiuraOper, window: Window) -> AffineFlagPoint:
    """Flag point of a Miura datum: W_n from the Krichever map, refined by
    the columns of the inverse gauge matrix at t = 0.  W_0 is spanned by the
    shifted waves z^n w_j, and W_(i+1) extends W_i by gauge column i."""
    n = M.n
    lo, hi = window
    if hi < n:
        raise WindowOverflow(f"the flag needs n = {n} wave columns, the window holds {hi}")
    S = miura_transform(M)
    waves = wave_columns(S, window)  # raw columns; class of w_j spans the quotient
    _, G = gauge_reduce_with_matrix(bidiagonal_matrix(M))
    G0 = [[G[i][k].coeff(0) for k in range(n)] for i in range(n)]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    G0inv = [row[n:] for row in linalg.rref([a + b for a, b in zip(G0, eye)])[0]]
    gauge: list[dict] = [{} for _ in range(n)]  # gauge[i] = sum_j G0inv[j][i] w_j
    for i in range(n):
        for j in range(n):
            for k, v in waves[j].items():
                gauge[i][k] = gauge[i].get(k, 0) + G0inv[j][i] * v
    chain = [GrassPoint(window, [
        {k + n: v for k, v in col.items() if k + n < hi}
        for col in waves
        if max(col) + n < hi
    ])]
    for col in gauge:
        chain.append(GrassPoint(window, chain[-1].columns + [col]))
    flag = AffineFlagPoint(n, tuple(chain))
    flag.validate()
    return flag


def flag_to_grass(F: AffineFlagPoint) -> GrassPoint:
    """Projection of the flag to its top member."""
    top = F.chain[F.n]
    if not top.shift_within(F.chain[0], F.n):
        raise BadArgument("flag chain is inconsistent with its top member")
    return top


# -- the round trip ----------------------------------------------------------------


@dataclass
class MainTheoremReport:
    frames_match: bool
    hirota_zero: bool
    reduction_constant: bool
    annihilators_transported: bool
    window: Window
    degree: int
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return (
            self.frames_match
            and self.hirota_zero
            and self.reduction_constant
            and self.annihilators_transported
        )


def main_theorem_check(
    M: MiuraOper,
    window: Window = (-10, 12),
    degree: int = 8,
    flag: AffineFlagPoint | None = None,
) -> MainTheoremReport:
    """Verify the Miura -> flag -> Grassmannian round trip on one datum.

    (a) the flag's projection equals the direct Krichever image of the
        Miura transform, frame for frame after echelonization;
    (b) the tau function of that point has zero KP-Hirota residual through
        the requested degree;
    (c) d log tau / d t_{kn} is constant through the degree (n-reduction);
    (d) the annihilator basis of the flag-side tau (two-sided correlator
        restricted to t' = 0, i.e. the determinant route) contains the
        Grassmannian-side (Pluecker route) annihilators, on the window and
        degree that ``details`` reports.

    A corrupted flag may be passed in to exercise the negative control.
    """
    n = M.n
    S = miura_transform(M)
    F = flag if flag is not None else miura_to_flag(M, window)
    W_direct = krichever_point(S, window)
    try:
        frames_match = flag_to_grass(F) == W_direct
    except BadArgument:
        frames_match = False
    tau = tau_schur(W_direct, degree + 4)
    residual = hirota_residual(tau, degree)
    hirota_zero = residual.is_zero
    inverse = tau.truncate(degree).invert()
    reduction_constant = all(  # d log tau / d t_k is a constant
        (tau.derivative(k) * inverse).truncate(degree - k).terms.keys() <= {((), ())}
        for k in range(n, degree + 1, n)
    )
    # annihilator transport at a desk-cheap window
    small_window = (-6, 6)
    small_degree = 6
    Wg = krichever_point(S, small_window)
    tau_g = tau_schur(Wg, small_degree)
    F_small = miura_to_flag(M, small_window)
    tau_f = tau_determinant(flag_to_grass(F_small), small_degree)
    a_flag = annihilator_basis(tau_f, max_order=2, max_degree=1)
    a_grass = annihilator_basis(tau_g, max_order=2, max_degree=1)
    annihilators_transported = same_annihilators(a_flag, a_grass)
    return MainTheoremReport(
        frames_match=frames_match,
        hirota_zero=hirota_zero,
        reduction_constant=reduction_constant,
        annihilators_transported=annihilators_transported,
        window=window,
        degree=degree,
        details={
            "n": n,
            "tau_constant_term": str(tau.constant_term()),
            "annihilator_count": len(a_grass),
            "annihilator_window": list(small_window),
            "annihilator_degree": small_degree,
        },
    )
