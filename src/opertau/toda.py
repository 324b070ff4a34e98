"""Two-sided Toda tau functions from pair-excited group elements.

A group element exp(sum a_i psi^+(p_i) psi^-(q_i)) with distinct rational
evaluation points is evolved in both time families; the vacuum expectation
is computed by fermionic Wick's theorem over subsets of pairs (repeated
bilinears contract to zero).  Contractions use the K-truncated geometric
kernels

    <psi^+(p) psi^-(q)> = sum_{k<K} q^k / p^{k+1},
    <psi^-(q) psi^+(p)> = sum_{k<K} p^k / q^{k+1},

formal truncation standing in for the analytic expansion domain.  Each
field carries the exponential factor exp(+-(xi(t,z) + xi(t',1/z))) coming
from the exact mode relations [H_n, psi^+_i] = psi^+_{i+n} and
[H_n, psi^-_j] = -psi^-_{j+n} (tested in the Fock module).

The brute-force route in this module evaluates the word expectations by
direct application of mode-truncated fields to the vacuum instead of
enumerating pairings; it shares no contraction formula and no sign rule
with the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BadArgument, SingularPair
from .fock import Maya, _contract, _wedge, diagram, energy
from .series import rat
from .times import TimesSeries

Pair = tuple[Fraction, Fraction, Fraction]  # (a, p, q)


def _check_pairs(pairs) -> list[Pair]:
    out = []
    pts = []
    for (a, p, q) in pairs:
        a, p, q = rat(a), rat(p), rat(q)
        if p == 0 or q == 0:
            raise BadArgument("evaluation points must be nonzero")
        out.append((a, p, q))
        pts.extend((p, q))
    if len(set(pts)) != len(pts):
        raise SingularPair("evaluation points p_i, q_j must be pairwise distinct")
    return out


def kernel_plus_minus(p: Fraction, q: Fraction, cutoff: int) -> Fraction:
    """<psi^+(p) psi^-(q)>; with the points swapped, <psi^-(q) psi^+(p)> is
    kernel_plus_minus(q, p)."""
    return sum((q**k) / (p ** (k + 1)) for k in range(cutoff))


def xi(z: Fraction, degree: int, prime: bool = False) -> TimesSeries:
    """xi(t, z) = sum_{n=1..degree} t_n z^n (primed times if requested)."""
    acc = TimesSeries.zero(degree)
    for n in range(1, degree + 1):
        acc = acc + TimesSeries.var(n, prime=prime, bound=degree) * (z**n)
    return acc


def _pair_exponent(p: Fraction, q: Fraction, degree: int) -> TimesSeries:
    return (
        xi(p, degree)
        - xi(q, degree)
        + xi(1 / p, degree, prime=True)
        - xi(1 / q, degree, prime=True)
    )


def _pfaffian(word, cutoff: int) -> Fraction:
    """VEV of an ordered word of (+, point) / (-, point) symbols."""
    if not word:
        return Fraction(1)
    if len(word) % 2:
        return Fraction(0)

    def contraction(a, b):
        (sa, za), (sb, zb) = a, b
        return Fraction(0) if sa == sb else kernel_plus_minus(za, zb, cutoff)

    first, rest = word[0], list(word[1:])
    total = Fraction(0)
    for j, sym in enumerate(rest):
        c = contraction(first, sym)
        if c:
            sub = rest[:j] + rest[j + 1:]
            total += (Fraction(-1) ** j) * c * _pfaffian(sub, cutoff)
    return total


def _tau(pairs: Sequence, degree: int, cutoff: int, vev) -> TimesSeries:
    """1 plus, over every nonempty subset of pairs, the product of its a_i,
    exp of its evolution exponent and vev(word, cutoff) of its word."""
    pairs = _check_pairs(pairs)
    if cutoff < 1:
        raise BadArgument("cutoff must be at least 1")
    acc = TimesSeries.one(degree)
    m = len(pairs)
    for mask in range(1, 1 << m):
        subset = [pairs[i] for i in range(m) if mask >> i & 1]
        word = []
        coef = Fraction(1)
        expo = TimesSeries.zero(degree)
        for (a, p, q) in subset:
            word.extend([("+", p), ("-", q)])
            coef *= a
            expo = expo + _pair_exponent(p, q, degree)
        c = vev(word, cutoff) * coef
        if c:
            acc = acc + expo.exp() * c
    return acc


def toda_tau(pairs: Sequence, degree: int, cutoff: int = 6) -> TimesSeries:
    """tau(t, t') = <0| g(t, t') |0> for g = exp(sum a_i psi^+(p_i) psi^-(q_i)).

    Wick's theorem reduces the expectation to subsets of pairs, each
    weighted by the pairing sum over the subset's interleaved word with
    K-truncated kernels and by exp of the subset's evolution exponent.
    """
    return _tau(pairs, degree, cutoff, _pfaffian)


# -- brute-force oracle ------------------------------------------------------

FState = dict[Maya, Fraction]


def _apply_field(sign: str, z: Fraction, state: FState, cutoff: int, window: int) -> FState:
    """Mode-truncated psi^{sign}(z) = sum_{|i|<cutoff} psi^{sign}_i z^{-i-1/2}."""
    out: FState = {}
    for d, c in state.items():
        for i2 in range(-(2 * cutoff - 1), 2 * cutoff, 2):
            coef = z ** ((-i2 - 1) // 2)
            res = _wedge(d, -i2) if sign == "+" else _contract(d, i2)
            if res is None:
                continue
            s, nd = res
            if energy(nd) > window:
                continue
            out[nd] = out.get(nd, Fraction(0)) + c * coef * s
    return {d: v for d, v in out.items() if v != 0}


def word_vev_fock(word, cutoff: int) -> Fraction:
    """<0| word |0> by direct right-to-left application of truncated fields."""
    window = 2 * cutoff * (len(word) + 1)
    state: FState = {diagram(0): Fraction(1)}
    for (sign, z) in reversed(word):
        state = _apply_field(sign, z, state, cutoff, window)
        if not state:
            return Fraction(0)
    return state.get(diagram(0), Fraction(0))


def toda_tau_bruteforce(pairs: Sequence, degree: int, cutoff: int = 6) -> TimesSeries:
    """Same tau with every word expectation brute-forced in the Fock space."""
    return _tau(pairs, degree, cutoff, word_vev_fock)
