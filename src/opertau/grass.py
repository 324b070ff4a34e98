"""Finite-window Sato Grassmannian points and their tau functions.

A point is modeled in the variable z = 1/t as the span of finitely many
frame columns supported on z-degrees [lo, hi), plus the standard tail
z^k for all k >= hi.  The virtual dimension (Fredholm index of the
projection onto span{z^k : k >= 0}) is #columns - hi, and equals the
fermionic charge of the corresponding semi-infinite wedge under
z^k <-> v_{-k-1/2}.

Tau functions are produced along two independent routes: the
Pluecker-Schur sum, one integer character sum per power sum p_mu with no
s_lambda expanded, and the correlator determinant against the complete
homogeneous functions; agreement of the two is a test oracle.
Each Pluecker coordinate is one small minor of the reduced echelon frame,
pi_lambda = (-1)^(sum R + sum C) det A[R, C], not a full-window determinant.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import BadArgument, ChargeMismatch, DegenerateFrame
from .schur import _power_sum, h_complete, mn_character
from .series import Scalar, _integer_row, rat
from .fock import partitions
from .times import TimesSeries, _dot

Column = dict[int, Fraction]
Window = tuple[int, int]
_ZERO = Fraction(0)


def _clean(col: dict[int, Scalar]) -> Column:
    return {int(k): rat(v) for k, v in col.items() if rat(v) != 0}


class GrassPoint:
    """Window model of a subspace commensurable with the polynomial half;
    its frame is the echelon over the degrees hi-1 .. lo, sorted by pivot."""

    __slots__ = ("window", "columns", "pivots")

    def __init__(self, window: Window, columns):
        lo, hi = window
        if lo > 0 or hi < 0:
            raise BadArgument("window must contain 0")
        cols = [_clean(col) for col in columns]
        if any(k < lo or k >= hi for col in cols for k in col):
            raise BadArgument("column support must lie inside the window")
        if not all(cols):
            raise DegenerateFrame("zero column in frame")
        rows, pivots = linalg.echelon(cols, range(hi - 1, lo - 1, -1))
        if len(rows) < len(cols):
            raise DegenerateFrame("linearly dependent frame columns")
        self.window = (lo, hi)
        self.columns = rows[::-1]
        self.pivots = pivots[::-1]

    # -- basic data ---------------------------------------------------------

    @property
    def virtdim(self) -> int:
        return len(self.columns) - self.window[1]

    def __eq__(self, other):
        if not isinstance(other, GrassPoint):
            return NotImplemented
        return self.window == other.window and self.columns == other.columns

    def contains(self, col: dict[int, Scalar], ignore_below: int | None = None) -> bool:
        """Is the column in span(frame) + span{z^k : k >= hi}?

        Rows below ``ignore_below`` are excluded from the test (used when a
        shifted column is only faithful above the window edge).
        """
        lo, hi = self.window
        floor = lo if ignore_below is None else ignore_below
        col = {k: v for k, v in _clean(col).items() if k < hi}
        rest = linalg.remainder(col, self.columns, self.pivots)
        return all(k < floor for k in rest)

    def shift_within(self, other: "GrassPoint", n: int) -> bool:
        """Does z^n map this frame into ``other``, away from the window edge?

        Columns whose shift tops out at or above hi are skipped: their images
        land in the standard tail, which the window cannot see.  A shifted
        column is only faithful on rows >= lo + n, so only those are compared.
        """
        lo, hi = self.window
        return all(
            other.contains({k + n: v for k, v in col.items()}, ignore_below=lo + n)
            for col, p in zip(self.columns, self.pivots)
            if p + n < hi
        )

    def __repr__(self):
        lo, hi = self.window
        return f"GrassPoint(window=({lo},{hi}), cols={len(self.columns)}, virtdim={self.virtdim})"


def plucker(W: GrassPoint, lam: tuple[int, ...]) -> Fraction:
    """Pluecker coordinate of the charge-0 point at the partition lambda.

    The frame's minor on the rows D: the z-degrees k - 1 - lambda_k,
    k = 1..hi.  Each column is 1 at its pivot and 0 at the other pivots, so
    the rows of D at pivots are unit rows, met in order; Laplace expansion
    along them leaves pi_lambda = (-1)^(sum R + sum C) det A[R, C], with R
    the positions in D that are not pivots and C the positions among the
    pivots of those not in D.  On the big cell it is Giambelli's hook minor.
    """
    lo, hi = W.window
    if W.virtdim != 0:
        raise ChargeMismatch("Pluecker coordinates need a charge-0 point")
    if lam and (len(lam) > hi or lam[0] > -lo):
        return Fraction(0)  # diagram leaves the window: model coordinate is 0
    rows = [k - (lam[k] if k < len(lam) else 0) for k in range(hi)]
    pivots = W.pivots
    R = [i for i, d in enumerate(rows) if d not in pivots]
    C = [j for j, p in enumerate(pivots) if p not in rows]
    d = linalg.det([[W.columns[j].get(rows[i], _ZERO) for j in C] for i in R])
    return -d if (sum(R) + sum(C)) % 2 else d


def tau_schur(W: GrassPoint, degree: int) -> TimesSeries:
    """Pluecker-Schur tau: sum over |lambda| <= degree of pi_lambda s_lambda,
    over pi_empty unless that is 0.  Per weight the pi_lambda become integers
    a_lambda over their lcm, and p_mu / z_mu gets sum a_lambda chi^lambda_mu:
    no s_lambda is expanded.
    """
    if W.virtdim != 0:
        raise ChargeMismatch("tau requires charge 0; shift the point first")
    top = plucker(W, ())
    num, den = (top.denominator, top.numerator) if top else (1, 1)  # 1 / pi_empty
    terms = {}
    for n in range(degree + 1):
        pis = {lam: c for lam in partitions(n) if (c := plucker(W, lam))}
        ints, common = _integer_row(pis.values())
        for mu in partitions(n):
            s = sum(a * mn_character(lam, mu) for lam, a in zip(pis, ints))
            if s:
                key, scale, z = _power_sum(mu)
                terms[key] = Fraction(s * scale * num, common * den * z)
    return TimesSeries._make(terms, degree)


def tau_determinant(W: GrassPoint, degree: int) -> TimesSeries:
    """Correlator determinant oracle for the same tau function.

    Multiplies the frame by exp(sum t_k z^k) and takes the coefficient of
    the vacuum wedge: the determinant of rows [0, hi) of the evolved frame.
    Only h_r with r <= degree are built: cut to the degree, the rest are 0.
    """
    if W.virtdim != 0:
        raise ChargeMismatch("tau requires charge 0; shift the point first")
    lo, hi = W.window
    hs = [h_complete(r).truncate(degree) for r in range(min(hi - lo, degree + 1))]
    m: list[list[TimesSeries]] = []
    for r in range(0, hi):
        row = []
        for col in W.columns:
            e = TimesSeries.zero(degree)
            for s, v in col.items():
                if 0 <= r - s < len(hs):
                    e = e + hs[r - s] * v
            row.append(e)
        m.append(row)
    if not m:
        return TimesSeries.one(degree)
    d = linalg.det(m, TimesSeries.invert, lambda s: s.constant_term() != 0)
    c0 = d.constant_term()
    if c0 != 0:
        return d * (Fraction(1) / c0)
    return d


KP_HIROTA_WEIGHT = 4  # weighted degree consumed by D1^4 + 3 D2^2 - 4 D1 D3


def hirota_residual(tau: TimesSeries, degree: int) -> TimesSeries:
    """(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau through the given weighted degree.

    By the bilinear Leibniz rule D^m f.f = sum_j (-1)^j C(m, j) f^(m-j) f^(j),
    the symmetric terms fold in pairs, and with f_1 = df/dt_1, f_11 = d^2 f/dt_1^2
    and so on:

        D1^4 f.f   = 2 (f_1111 f - 4 f_111 f_1 + 3 f_11^2)
        D2^2 f.f   = 2 (f_22 f - f_2^2)
        D1 D3 f.f  = 2 (f_13 f - f_1 f_3)

    seven products in all, taken as one integer sum of products
    (``times._dot`` with the coefficients 2, -8, 6, 6, -6, -8, 8), so each
    term of the residual gets one ``Fraction``.  A coefficient of weight <=
    degree of a product reads only factor coefficients of weight <= degree,
    so every factor is cut to ``degree`` before it is multiplied (each
    derivative of a tau known through degree + 4 is known that far).
    """
    if degree < 0:
        raise BadArgument(f"the Hirota residual needs a degree >= 0, got {degree}")
    if tau.bound is not None and tau.bound < degree + KP_HIROTA_WEIGHT:
        raise BadArgument(
            f"tau must be known through weighted degree {degree + KP_HIROTA_WEIGHT}"
        )
    tau = tau.truncate(degree + KP_HIROTA_WEIGHT)
    chain = [tau]
    for _ in range(4):
        chain.append(chain[-1].derivative(1))
    f, f1, f11, f111, f1111 = (s.truncate(degree) for s in chain)
    f2 = tau.derivative(2)
    f3 = tau.derivative(3)
    f22 = f2.derivative(2).truncate(degree)
    f13 = f3.derivative(1).truncate(degree)
    f2 = f2.truncate(degree)
    f3 = f3.truncate(degree)
    return _dot([(2, f1111, f), (-8, f111, f1), (6, f11, f11),
                 (6, f22, f), (-6, f2, f2), (-8, f13, f), (8, f1, f3)], degree)


def random_perturbed_frame(rng, window: Window, ncols_perturbed: int = 2) -> GrassPoint:
    """Standard frame with a few columns given random deeper tails."""
    lo, hi = window
    cols = [{k: Fraction(1)} for k in range(hi)]
    for _ in range(ncols_perturbed):
        j = rng.randrange(hi)
        for k in range(lo, min(j, 0)):
            c = rng.randint(-3, 3)
            if c:
                cols[j][k] = cols[j].get(k, Fraction(0)) + Fraction(c)
    return GrassPoint(window, cols)
