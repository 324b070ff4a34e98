"""Oracle tests of the elimination kernel in ``opertau.linalg``.

Pluecker minors and ``tau_determinant`` share ``linalg.det``, and the frame
echelon, the flag members, the q-wedge quotient (all through
``linalg.echelon``) and the relations share ``linalg.rref``, so a fault in
the kernel could hide behind the tau-consistency oracle.  Here it is checked
against definitions that use no elimination: the Leibniz permutation sum,
the defining properties of a reduced echelon form, and the rank as the size
of the largest nonzero minor.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opertau import linalg
from opertau.errors import DegenerateFrame
from opertau.grass import GrassPoint
from opertau.hecke import ONE, Q, QPoly, RatFunc
from opertau.times import TimesSeries

from .conftest import rank

F = Fraction


def leibniz(m, one):
    """sum over permutations s of sign(s) prod_i m[i][s(i)]."""
    n = len(m)
    total = one - one
    for perm in permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        odd = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2)) % 2
        total = total - term if odd else total + term
    return total


def minor_rank(m, one):
    """Size of the largest square submatrix with a nonzero determinant."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if leibniz([[m[r][c] for c in cs] for r in rs], one):
                    return k
    return 0


def check_rref(m, red, pivots, one):
    """``red`` is in reduced row-echelon form with these pivots and has the
    same row span as ``m``."""
    assert pivots == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert red[r][p] == one
        assert not any(red[r][:p])
        assert not any(red[s][p] for s in range(len(red)) if s != r)
    assert not any(x for row in red[len(pivots):] for x in row)
    # every row of m is the combination of the echelon rows that its pivot
    # entries name; with as many echelon rows as the rank, the spans agree
    for v in m:
        for c, x in enumerate(v):
            acc = one - one
            for r, p in enumerate(pivots):
                acc = acc + v[p] * red[r][c]
            assert acc == x
    assert len(pivots) == minor_rank(m, one)


def check_echelon(vectors, keys, got, one, *inverse):
    """``got`` = (rows, pivots) is a reduced echelon basis of the span of the
    sparse ``vectors`` over ``keys``: each row is 1 at its pivot, has no key
    before it and no entry at another row's pivot, the pivots follow the key
    order, no zero is stored, and every vector reduces to nothing against it;
    echelonizing the rows again gives them back."""
    rows, pivots = got
    assert len(rows) == len(pivots)
    place = {k: i for i, k in enumerate(keys)}
    assert [place[p] for p in pivots] == sorted({place[p] for p in pivots})
    for row, p in zip(rows, pivots):
        assert row[p] == one and all(row.values())
        assert all(place[k] >= place[p] for k in row)
        assert list(row) == sorted(row, key=place.get)
        assert not any(p in other for other in rows if other is not row)
    for v in vectors:
        assert linalg.remainder(v, rows, pivots) == {}
    assert linalg.echelon(rows, keys, *inverse) == got


small = st.integers(-3, 3).map(F) | st.sampled_from([F(0)] * 3 + [F(1, 2), F(-2, 3)])


@st.composite
def fraction_matrices(draw, square=True):
    n = draw(st.integers(1, 5))
    cols = n if square else draw(st.integers(1, 5))
    m = [[draw(small) for _ in range(cols)] for _ in range(n)]
    how = draw(st.sampled_from(["random", "repeated row", "zero column", "combination"]))
    if how == "repeated row" and n > 1:
        m[-1] = m[0][:]
    elif how == "zero column":
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = F(0)
    elif how == "combination" and n > 2:
        a, b = draw(small), draw(small)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


class TestDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(fraction_matrices())
    def test_fraction_det_is_the_leibniz_sum(self, m):
        assert linalg.det(m) == leibniz(m, F(1))

    def test_empty_det_is_one(self):
        assert linalg.det([]) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_times_series_det_is_the_leibniz_sum(self, data):
        bound = 4
        n = data.draw(st.integers(1, 4))

        def entry(unit: bool) -> TimesSeries:
            terms = {
                ((a, b), ()): data.draw(st.integers(-2, 2))
                for a in range(3) for b in range(2) if a + 2 * b <= bound
            }
            if not unit:
                terms[((0, 0), ())] = 0
            return TimesSeries(terms, bound)

        # at least one column has no unit entry, so the Laplace fallback runs
        stuck = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        m = [[entry(unit=c not in stuck) for c in range(n)] for _ in range(n)]
        assert all(row[c].constant_term() == 0 for row in m for c in stuck)
        assert linalg.det(m, TimesSeries.invert, lambda s: s.constant_term() != 0) == leibniz(
            m, TimesSeries.one(bound)
        )

    def test_times_series_column_without_a_unit(self):
        t1, t2 = TimesSeries.var(1, bound=6), TimesSeries.var(2, bound=6)
        one = TimesSeries.one(6)
        m = [[t1, one + t2, t2], [t1 * t1, one, t1], [t2, t1, one + t1]]
        got = linalg.det(m, TimesSeries.invert, lambda s: s.constant_term() != 0)
        assert got == leibniz(m, one) and not got.is_zero


class TestEchelon:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_fraction_rref(self, data):
        m = data.draw(fraction_matrices(square=False))
        red, pivots = linalg.rref(m)
        check_rref(m, red, pivots, F(1))
        assert rank(m) == len(pivots)
        keys = data.draw(st.permutations([f"k{c}" for c in range(len(m[0]))]))
        vectors = [{k: x for k, x in zip(keys, row) if x} for row in m]
        got = linalg.echelon(vectors, keys)
        check_echelon(vectors, keys, got, F(1))
        assert len(got[0]) == rank(m)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_ratfunc_rref(self, data):
        def poly() -> QPoly:
            return QPoly({e: data.draw(st.integers(-2, 2)) for e in range(-1, 2)})

        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        m = [[RatFunc(poly()) for _ in range(cols)] for _ in range(rows)]
        if rows == 3:
            m[2] = [a * RatFunc(Q) + b for a, b in zip(m[0], m[1])]
        red, pivots = linalg.rref(m, RatFunc.invert)
        check_rref(m, red, pivots, RatFunc(ONE))
        assert rank(m, RatFunc.invert) == len(pivots)
        keys = data.draw(st.permutations(range(cols)))
        vectors = [{k: x for k, x in zip(keys, row) if x} for row in m]
        got = linalg.echelon(vectors, keys, RatFunc.invert)
        check_echelon(vectors, keys, got, RatFunc(ONE), RatFunc.invert)
        assert len(got[0]) == rank(m, RatFunc.invert)

    def test_echelon_of_nothing(self):
        assert linalg.echelon([], range(3)) == ([], [])
        assert linalg.echelon([{}, {}], range(3)) == ([], [])
        assert linalg.echelon([{1: F(2)}, {}], range(3)) == ([{1: F(1)}], [1])

    @settings(max_examples=60, deadline=None)
    @given(fraction_matrices(square=False))
    def test_nullspace_is_the_kernel(self, m):
        null = linalg.nullspace(m)
        assert len(null) == len(m[0]) - minor_rank(m, F(1))
        for v in null:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        assert not null or minor_rank(null, F(1)) == len(null)


sparse_families = st.lists(st.dictionaries(st.integers(0, 5), small, max_size=5), max_size=5)


def dense_columns(vectors):
    """The vectors as the columns of a matrix over the sorted indices."""
    keys = sorted({k for v in vectors for k in v})
    return [[v.get(k, F(0)) for v in vectors] for k in keys]


class TestRelations:
    @settings(max_examples=120, deadline=None)
    @given(sparse_families)
    def test_relations_are_the_nullspace_of_the_dense_columns(self, vectors):
        assert linalg.relations(vectors) == linalg.nullspace(dense_columns(vectors), len(vectors))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_index_order_does_not_change_the_relations(self, data):
        vectors = data.draw(sparse_families)
        shuffled = [dict(data.draw(st.permutations(list(v.items())))) for v in vectors]
        assert linalg.relations(shuffled) == linalg.relations(vectors)

    def test_empty_family_and_zero_vectors(self):
        assert linalg.relations([]) == []
        assert linalg.relations([{}, {3: F(0)}]) == [[1, 0], [0, 1]]
        assert linalg.relations([{0: F(2)}, {}]) == [[0, 1]]


@st.composite
def frames(draw):
    """Independent columns on (-4, 4) mixed by an invertible matrix, with the
    pivot degrees their span must have."""
    lo, hi = -4, 4
    pivots = sorted(draw(st.sets(st.integers(lo, hi - 1), min_size=1, max_size=6)))
    base = [
        {p: F(1), **{k: draw(small) for k in range(lo, p)}} for p in pivots
    ]
    n = len(base)
    cols = [dict(c) for c in base]
    for i in range(n):  # col_i += sum_{j != i} a_ij col_j, one column at a time
        for j in range(n):
            a = draw(small)
            if j != i and a:
                for k, v in cols[j].items():
                    cols[i][k] = cols[i].get(k, F(0)) + a * v
    return (lo, hi), cols, pivots


class TestGrassEchelon:
    @settings(max_examples=80, deadline=None)
    @given(frames())
    def test_columns_monic_at_their_pivots_and_span_the_input(self, frame):
        window, cols, pivots = frame
        W = GrassPoint(window, cols)
        got = [max(c) for c in W.columns]
        assert got == pivots
        assert W.pivots == [max(c) for c in W.columns]
        for p, col in zip(got, W.columns):
            assert col[p] == 1
            assert all(col.get(q, 0) == 0 for q in got if q != p)
        for col in cols:
            assert W.contains(col)
            combo: dict = {}
            for p, w in zip(got, W.columns):
                for k, v in w.items():
                    combo[k] = combo.get(k, 0) + col.get(p, 0) * v
            assert {k: v for k, v in combo.items() if v} == {k: v for k, v in col.items() if v}

    def test_degenerate_frames_keep_their_messages(self):
        with pytest.raises(DegenerateFrame, match="zero column"):
            GrassPoint((-2, 2), [{0: 1}, {}])
        with pytest.raises(DegenerateFrame, match="linearly dependent"):
            GrassPoint((-2, 2), [{0: 1, -1: 2}, {1: 1}, {0: 3, -1: 6}])
