"""Finite-window fermionic Fock space on Maya diagrams.

A basis state is a pair (charge m, partition lambda) encoding the strictly
decreasing half-integer index set i_k = m - k + 1/2 + lambda_k.  Half
integers are stored doubled, so an index j appears as the odd integer 2j.
States are linear combinations with Fraction coefficients; the energy
|lambda| of every stored diagram must stay within the configured window.

Sign rules for the wedging and contracting operators: inserting an index
into slot s+1 (after s larger indices) carries (-1)^s; removing the s-th
index carries (-1)^(s+1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BadArgument, WindowOverflow
from .series import Scalar, rat

Maya = tuple[int, tuple[int, ...]]  # (charge, partition)

DEFAULT_ENERGY_WINDOW = 6


def _validate_partition(lam: Iterable[int]) -> tuple[int, ...]:
    lam = tuple(int(x) for x in lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(x < 0 for x in lam):
        raise BadArgument("partition parts must be weakly decreasing and nonnegative")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def diagram(charge: int, parts: Iterable[int] = ()) -> Maya:
    return (charge, _validate_partition(parts))


def energy(d: Maya) -> int:
    return sum(d[1])


def twice_index(d: Maya, k: int) -> int:
    """Doubled k-th index (k >= 1): 2*(m - k + 1/2 + lambda_k)."""
    m, lam = d
    lk = lam[k - 1] if k <= len(lam) else 0
    return 2 * (m - k) + 1 + 2 * lk


def _twice(j) -> int:
    """Coerce a half-integer (Fraction with denominator 2) to doubled form."""
    if isinstance(j, int):
        raise BadArgument("Clifford indices are half-integers; pass Fraction(k, 2)")
    j = rat(j)
    if j.denominator != 2:
        raise BadArgument(f"{j} is not a half-integer")
    return j.numerator


class MayaState:
    """Finite linear combination of Maya diagrams."""

    __slots__ = ("terms", "window")

    def __init__(self, terms: dict[Maya, Scalar], window: int = DEFAULT_ENERGY_WINDOW):
        out: dict[Maya, Fraction] = {}
        for d, c in terms.items():
            c = rat(c)
            if c == 0:
                continue
            if energy(d) > window:
                raise WindowOverflow(
                    f"diagram energy {energy(d)} exceeds window {window}"
                )
            out[d] = out.get(d, Fraction(0)) + c
        self.terms = {d: c for d, c in out.items() if c != 0}
        self.window = window

    @classmethod
    def vacuum(cls, charge: int = 0, window: int = DEFAULT_ENERGY_WINDOW) -> "MayaState":
        return cls({diagram(charge): 1}, window)

    @classmethod
    def zero(cls, window: int = DEFAULT_ENERGY_WINDOW) -> "MayaState":
        return cls({}, window)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, d: Maya) -> Fraction:
        return self.terms.get((d[0], _validate_partition(d[1])), Fraction(0))

    def __add__(self, other: "MayaState") -> "MayaState":
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return MayaState(out, min(self.window, other.window))

    def __sub__(self, other: "MayaState") -> "MayaState":
        return self + (other * Fraction(-1))

    def __mul__(self, c: Scalar) -> "MayaState":
        c = rat(c)
        return MayaState({d: c * v for d, v in self.terms.items()}, self.window)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MayaState):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "MayaState<0>"
        bits = [f"{c}*|{m};{list(lam)}>" for (m, lam), c in sorted(self.terms.items())]
        return "MayaState<" + " + ".join(bits) + ">"


def _wedge(d: Maya, j2: int) -> tuple[int, Maya] | None:
    """Insert doubled index j2; returns (sign, diagram) or None if occupied."""
    m, lam = d
    L = len(lam)
    # tail occupies every index 2(m - k) + 1 for k > L, i.e. all values
    # <= 2(m - L - 1) + 1 of odd parity
    if j2 <= 2 * (m - L - 1) + 1:
        return None
    s = 0
    for k in range(1, L + 1):
        ik = twice_index(d, k)
        if ik == j2:
            return None
        if ik > j2:
            s += 1
        else:
            break
    # new charge m+1; recompute parts around slot s+1
    lam_new = [lam[k] - 1 for k in range(s)]
    pivot = (j2 - 1) // 2 - m + s  # lambda value of the inserted index
    lam_new.append(pivot)
    lam_new.extend(lam[s:])
    return ((-1) ** s, (m + 1, _validate_partition(lam_new)))


def _contract(d: Maya, j2: int) -> tuple[int, Maya] | None:
    """Remove doubled index j2; returns (sign, diagram) or None if absent."""
    m, lam = d
    L = len(lam)
    k_found = None
    for k in range(1, L + 1):
        if twice_index(d, k) == j2:
            k_found = k
            break
    if k_found is None:
        # tail index? j2 = 2(m - k) + 1 with k > L
        if (j2 - 1) % 2 != 0:
            return None
        k = m - (j2 - 1) // 2
        if k <= L:
            return None
        k_found = k
    k = k_found
    lam_new = [lam[i] + 1 for i in range(min(k - 1, L))]
    lam_new.extend(1 for _ in range(L, k - 1))  # promoted tail slots
    lam_new.extend(lam[k:])
    return ((-1) ** (k + 1), (m - 1, _validate_partition(lam_new)))


def clifford_apply(kind: str, j, state: MayaState) -> MayaState:
    """Wedging (kind '+') or contracting (kind '-') operator psi^{kind}_j.

    The operator inserts (removes) the basis vector with index -j (j),
    matching psi^+-annihilation of the vacuum for j > 0.
    """
    j2 = _twice(j)
    if kind not in "+-":
        raise BadArgument("kind must be '+' or '-'")
    out: dict[Maya, Fraction] = {}
    for d, c in state.terms.items():
        res = _wedge(d, -j2) if kind == "+" else _contract(d, j2)
        if res is None:
            continue
        sign, nd = res
        if energy((nd[0], nd[1])) > state.window:
            raise WindowOverflow(
                f"psi{kind}_{Fraction(j2,2)} left the energy window {state.window}"
            )
        out[nd] = out.get(nd, Fraction(0)) + sign * c
    return MayaState(out, state.window)


def h_action(k: int, state: MayaState) -> MayaState:
    """Heisenberg operator H_k = sum :psi^+_{-i} psi^-_{i+k}: ; k != 0.

    Moves one occupied index j to j - k, contracting first and wedging
    second; for k = 0 the normally ordered sum is the charge operator.
    """
    k = int(k)
    if k == 0:
        return MayaState(
            {d: c * d[0] for d, c in state.terms.items()}, state.window
        )
    out: dict[Maya, Fraction] = {}
    for d, c in state.terms.items():
        m, lam = d
        L = len(lam)
        # movable indices sit among the excited rows plus an |k|-deep tail stretch
        for pos in range(1, L + abs(k) + 1):
            j2 = twice_index(d, pos)
            res1 = _contract(d, j2)
            if res1 is None:
                continue
            s1, mid = res1
            res2 = _wedge(mid, j2 - 2 * k)
            if res2 is None:
                continue
            s2, nd = res2
            if energy(nd) > state.window:
                raise WindowOverflow(
                    f"H_{k} left the energy window {state.window}"
                )
            out[nd] = out.get(nd, Fraction(0)) + s1 * s2 * c
    return MayaState(out, state.window)


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest
