"""Schur polynomials in the scaled power-sum variables p_k = k t_k.

Two independent generating routes live here on purpose: the complete
homogeneous functions h_r come from the Newton-style recursion
r h_r = sum_k k t_k h_{r-k}, while s_lambda and ``grass.tau_schur`` sum
integer Murnaghan-Nakayama characters, one term per power sum p_mu and
never an expanded s_lambda.  They share no code, so one can serve as an
oracle for computations built on the other.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .fock import partitions
from .times import Key, TimesSeries

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def h_complete(r: int) -> TimesSeries:
    """Complete homogeneous function: sum h_r x^r = exp(sum t_k x^k)."""
    if r < 0:
        return TimesSeries.zero(None)
    if r == 0:
        return TimesSeries.one(None)
    acc = TimesSeries.zero(None)
    for k in range(1, r + 1):
        acc = acc + h_complete(r - k).mul_var(k) * k
    return acc * Fraction(1, r)


def _strip_border(lam: Partition, length: int):
    """All ways to remove a border strip of the given length.

    Yields (height, remaining partition).  A strip moves one beta number b
    to b - length >= 0, not a beta; its height counts the betas between.
    """
    n = len(lam)
    betas = [part + n - 1 - i for i, part in enumerate(lam)]  # decreasing
    present = set(betas)
    for i, b in enumerate(betas):
        target = b - length
        if target < 0 or target in present:
            continue
        j = i + 1
        while j < n and betas[j] > target:
            j += 1
        new = betas[:i] + betas[i + 1 : j] + [target] + betas[j:]
        mu = tuple(x - (n - 1 - r) for r, x in enumerate(new))
        yield j - i - 1, tuple(m for m in mu if m > 0)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Symmetric group character chi^lambda_mu by Murnaghan-Nakayama."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    first, rest = mu[0], mu[1:]
    total = 0
    for ht, nu in _strip_border(lam, first):
        c = mn_character(nu, rest)
        total += -c if ht % 2 else c
    return total


def _aut_factor(mu: Partition) -> int:
    """z_mu = prod k^{m_k} m_k! for the cycle type mu."""
    return prod(k**m * factorial(m) for k, m in Counter(mu).items())


def _power_sum(mu: Partition) -> tuple[Key, int, int]:
    """p_mu = prod_i mu_i t_{mu_i}: the key of its t-monomial (the part
    multiplicities), prod_i mu_i, and z_mu."""
    mult = [0] * (mu[0] if mu else 0)
    for part in mu:
        mult[part - 1] += 1
    return (tuple(mult), ()), prod(mu), _aut_factor(mu)


@lru_cache(maxsize=None)
def schur_polynomial(lam: Partition) -> TimesSeries:
    """s_lambda(t) = sum_mu chi^lambda_mu / z_mu * prod (mu_i t_{mu_i})."""
    terms = {}
    for mu in partitions(sum(lam)):
        key, scale, z = _power_sum(mu)
        terms[key] = Fraction(mn_character(lam, mu) * scale, z)
    return TimesSeries._make(terms, None)
