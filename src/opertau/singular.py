"""Singular vectors in level-k vacuum modules of affine sl_2.

The module is induced from the one-dimensional representation of the
non-negative loop half (e_m, f_m, h_m for m >= 0 all act by zero on the
generating vector; the central element acts by the level).  Elements are
combinations of PBW words in the negative modes.  A singular vector of
depth d is annihilated by e_0 and by every positive mode up to d.  The
tests hold the independent oracle, the Shapovalov Gram matrix of each
(depth, weight) slice built from ``act``: its determinant is nonzero away
from resonances and its kernel contains the singular vectors at them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .errors import WindowOverflow
from .series import Scalar, rat

# generator letters, with sl2 weight and PBW rank
_LETTERS = {"e": 2, "h": 0, "f": -2}
_RANK = {"e": 0, "h": 1, "f": 2}

Gen = tuple[int, str]  # (mode, letter)
Word = tuple[Gen, ...]  # PBW-sorted: ascending (mode, rank)
Element = dict[Word, Fraction]

MAX_DEPTH = 6


def _bracket(a: Gen, b: Gen):
    """[a, b] as (coefficient, Gen | None) plus the central coefficient."""
    (m, x), (n, y) = a, b
    central = Fraction(0)
    if m + n == 0:
        pair = (x, y)
        if pair in (("e", "f"), ("f", "e")):
            central = Fraction(m)
        elif pair == ("h", "h"):
            central = Fraction(2 * m)
    coef, letter = {
        ("e", "f"): (1, "h"),
        ("f", "e"): (-1, "h"),
        ("h", "e"): (2, "e"),
        ("e", "h"): (-2, "e"),
        ("h", "f"): (-2, "f"),
        ("f", "h"): (2, "f"),
    }.get((x, y), (0, None))
    gen = (m + n, letter) if letter is not None and coef != 0 else None
    return (Fraction(coef), gen, central)


class VacuumModule:
    """Level-k vacuum module with exact rational arithmetic."""

    def __init__(self, level: Scalar):
        self.level = rat(level)

    # -- action ------------------------------------------------------------

    def _act_gen(self, g: Gen, word: Word) -> Element:
        mode, letter = g
        if not word:
            if mode < 0:
                return {(g,): Fraction(1)}
            return {}  # nonnegative modes annihilate the generating vector
        key = (mode, _RANK[letter])
        first = word[0]
        if key <= (first[0], _RANK[first[1]]):
            return {(g,) + word: Fraction(1)}
        # g w0 rest = w0 (g rest) + [g, w0] rest
        out = self.act(first, self._act_gen(g, word[1:]))
        coef, gen, central = _bracket(g, first)
        if central:
            c = central * self.level
            out[word[1:]] = out.get(word[1:], Fraction(0)) + c
        if gen is not None:
            for w, c in self._act_gen(gen, word[1:]).items():
                out[w] = out.get(w, Fraction(0)) + coef * c
        return {w: c for w, c in out.items() if c != 0}

    def act(self, g: Gen, elem: Element) -> Element:
        out: Element = {}
        for w, c in elem.items():
            for w2, c2 in self._act_gen(g, w).items():
                out[w2] = out.get(w2, Fraction(0)) + c * c2
        return {w: c for w, c in out.items() if c != 0}

    # -- gradings -----------------------------------------------------------

    @staticmethod
    def depth(word: Word) -> int:
        return -sum(m for (m, _) in word)

    @staticmethod
    def weight(word: Word) -> int:
        return sum(_LETTERS[x] for (_, x) in word)

    def slice_basis(self, depth: int, weight: int | None = None) -> list[Word]:
        """PBW words of the given depth (and sl2-weight, if fixed)."""
        gens = [
            (m, letter)
            for m in range(-depth, 0)
            for letter in ("e", "h", "f")
        ]
        gens.sort(key=lambda g: (g[0], _RANK[g[1]]))
        return [
            combo
            for r in range(1, depth + 1)
            for combo in combinations_with_replacement(gens, r)
            if self.depth(combo) == depth and weight in (None, self.weight(combo))
        ]


def raising_generators(max_depth: int) -> list[Gen]:
    """e_0 plus every positive mode up to the search depth."""
    gens: list[Gen] = [(0, "e")]
    for m in range(1, max_depth + 1):
        gens.extend([(m, "e"), (m, "h"), (m, "f")])
    return gens


def singular_vector_search(level: Scalar, degree: int) -> list[tuple[int, int, Element]]:
    """Vectors of each depth <= degree killed by all raising generators.

    Returns (depth, weight, element) triples; the element dict maps PBW
    words to coefficients.  Weight-homogeneous slices are searched
    separately.
    """
    if degree > MAX_DEPTH:
        raise WindowOverflow(f"search depth capped at {MAX_DEPTH}")
    mod = VacuumModule(level)
    found = []
    for d in range(1, degree + 1):
        for wt in sorted({mod.weight(w) for w in mod.slice_basis(d)}):
            basis = mod.slice_basis(d, wt)
            # each basis word's raising images, keyed by (generator, word);
            # when all of them vanish the whole slice is singular
            images = [
                {(g, u): c for g in raising_generators(d)
                 for u, c in mod.act(g, {w: Fraction(1)}).items()}
                for w in basis
            ]
            for vec in linalg.relations(images):
                found.append((d, wt, {w: c for w, c in zip(basis, vec) if c != 0}))
    return found
