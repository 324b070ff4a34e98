from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opertau.hecke as hecke
from opertau import linalg
from opertau.errors import WindowOverflow
from opertau.hecke import (
    ONE,
    Q,
    QPoly,
    RatFunc,
    TensorWindow,
    WedgeReducer,
    _image_gens,
    _poly_gcd,
    basis_vector,
    verify_relations,
)

from .conftest import at_one, classical_antisymmetrize, rank

F = Fraction


def vec_sub(a, b):
    """a - b for vectors on a tensor window, without zero entries."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, QPoly()) - c
    return {key: c for key, c in out.items() if not c.is_zero}


# -- the Fraction-coefficient QPoly, kept as the reference for the int one -------


class ReferenceQPoly:
    """Laurent polynomial in q with every coefficient a Fraction."""

    def __init__(self, terms=None):
        self.terms = {int(e): F(c) for e, c in (terms or {}).items() if c != 0}

    @property
    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return ReferenceQPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, F(0)) + c
        return ReferenceQPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
        return ReferenceQPoly(out)

    def divmod_shifted(self, other):
        if self.is_zero:
            return ReferenceQPoly(), ReferenceQPoly()
        lo_s, lo_o = min(self.terms), min(other.terms)
        num = {e - lo_s: c for e, c in self.terms.items()}
        den = {e - lo_o: c for e, c in other.terms.items()}
        dd = max(den)
        lead = den[dd]
        quot, work = {}, dict(num)
        for e in range(max(num) - dd, -1, -1):
            c = work.get(e + dd, F(0))
            if c == 0:
                continue
            f = c / lead
            quot[e] = f
            for eo, co in den.items():
                work[e + eo] = work.get(e + eo, F(0)) - f * co
                if work[e + eo] == 0:
                    del work[e + eo]
        shift = lo_s - lo_o
        return (
            ReferenceQPoly({e + shift: c for e, c in quot.items()}),
            ReferenceQPoly({e + lo_s: c for e, c in work.items()}),
        )


def reference_gcd(a, b):
    while not b.is_zero:
        _, r = a.divmod_shifted(b)
        a, b = b, r
    if a.is_zero:
        return a
    lo, lead = min(a.terms), a.terms[max(a.terms)]
    return ReferenceQPoly({e - lo: c / lead for e, c in a.terms.items()})


def reference_canonical(num, den):
    """(num, den) of the gcd-reduced fraction, den monic from q^0."""
    if num.is_zero:
        return ReferenceQPoly(), ReferenceQPoly({0: 1})
    g = reference_gcd(num, den)
    if g.terms != {0: 1}:
        num, den = num.divmod_shifted(g)[0], den.divmod_shifted(g)[0]
    lo, lead = min(den.terms), den.terms[max(den.terms)]
    scale = ReferenceQPoly({-lo: F(1) / lead})
    return num * scale, den * scale


def assert_same(got: QPoly, want: ReferenceQPoly, *inputs: QPoly):
    """Equal values, never a float, and int work kept on ints: without a
    division (`inputs` given) the result has a Fraction only where an
    input has one; a division gives an int wherever the value is one."""
    assert got.terms == want.terms
    for c in got.terms.values():
        assert type(c) in (int, Fraction), c
    if not inputs or all(type(c) is int for p in inputs for c in p.terms.values()):
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)
laurent = st.dictionaries(st.integers(-3, 3), coefficients, max_size=4)


class TestIntegerQPoly:
    @settings(max_examples=60, deadline=None)
    @given(laurent, laurent)
    def test_ring_operations(self, a, b):
        pa, pb, ra, rb = QPoly(a), QPoly(b), ReferenceQPoly(a), ReferenceQPoly(b)
        assert_same(pa, ra)
        assert_same(pa + pb, ra + rb, pa, pb)
        assert_same(pa - pb, ra - rb, pa, pb)
        assert_same(pa * pb, ra * rb, pa, pb)
        assert_same(-pa, -ra, pa)

    @settings(max_examples=60, deadline=None)
    @given(laurent, laurent.filter(lambda d: any(d.values())))
    def test_division_gcd_and_canonical_form(self, a, b):
        pa, pb, ra, rb = QPoly(a), QPoly(b), ReferenceQPoly(a), ReferenceQPoly(b)
        (q, r), (rq, rr) = pa.divmod_shifted(pb), ra.divmod_shifted(rb)
        assert_same(q, rq)
        assert_same(r, rr)
        if not pa.is_zero:
            assert_same(_poly_gcd(pa, pb), reference_gcd(ra, rb))
            f, (num, den) = RatFunc(pb, pa), reference_canonical(rb, ra)
            assert_same(f.num, num)
            assert_same(f.den, den)

    def test_division_makes_a_fraction(self):
        q, r = QPoly({0: 1}).divmod_shifted(QPoly({0: 2}))
        assert q.terms == {0: F(1, 2)} and type(q.terms[0]) is Fraction
        assert r.is_zero

    def test_hecke_coefficients_are_ints(self):
        win = TensorWindow(2, 3, (-2, 2))
        v = basis_vector(((2, 0), (1, -1), (2, 0)))
        for op in (win.hecke_T(1), win.hecke_T_inv(2), win.hecke_X_bernstein(3)):
            v = op(v)
        assert v and all(type(c) is int for p in v.values() for c in p.terms.values())


class TestQPoly:
    def test_arithmetic(self):
        p = Q + 1
        assert p * (Q - 1) == QPoly({2: 1, 0: -1})
        assert (Q * Q).divexact(Q) == Q
        assert QPoly({2: 1, 0: -1}).divexact(Q - 1) == Q + 1

    def test_laurent(self):
        qinv = QPoly.q(-1)
        assert Q * qinv == ONE
        assert at_one(ONE - qinv) == 0

    def test_inexact_division(self):
        with pytest.raises(ArithmeticError):
            (Q + 1).divexact(Q - 1)

    def test_ratfunc_field(self):
        r = RatFunc(Q - 1, Q + 1)
        assert (r * r.invert()) == RatFunc.from_scalar(1)
        assert (r + (-r)).is_zero
        assert RatFunc(Q * Q - 1, Q + 1) == RatFunc.from_scalar(Q - 1)


def typed_terms(p: QPoly) -> dict:
    return {e: (type(c), c) for e, c in p.terms.items()}


def reference_neg(r: RatFunc) -> RatFunc:
    """Negation as it was: re-canonicalized through the constructor."""
    return RatFunc(-r.num, r.den)


class TestRatFuncSigns:
    # -r and a - b are built without a second canonical form; they must give
    # the num and den the old expressions -> RatFunc(-num, den) and
    # a + (-b) gave, term by term and with the same coefficient types
    @settings(max_examples=80, deadline=None)
    @given(laurent, laurent.filter(lambda d: any(d.values())),
           laurent, laurent.filter(lambda d: any(d.values())))
    def test_neg_and_sub_equal_the_old_expressions(self, a, b, c, d):
        x, y = RatFunc(QPoly(a), QPoly(b)), RatFunc(QPoly(c), QPoly(d))
        for got, want in ((-x, reference_neg(x)), (x - y, x + reference_neg(y)),
                          (x - x, x + reference_neg(x)),
                          (x - QPoly(c), x + reference_neg(RatFunc(QPoly(c)))),
                          (x - 3, x + reference_neg(RatFunc.from_scalar(3)))):
            assert typed_terms(got.num) == typed_terms(want.num)
            assert typed_terms(got.den) == typed_terms(want.den)


class TestPureColorRule:
    def test_matches_displayed_rmatrix(self):
        # on z-degree-zero slots T is exactly the displayed color rule
        win = TensorWindow(3, 2, (0, 0))
        T = win.hecke_T(1)
        e = lambda k: (k, 0)
        assert T(basis_vector((e(1), e(1)))) == {(e(1), e(1)): Q}
        assert T(basis_vector((e(1), e(2)))) == {(e(2), e(1)): ONE}
        got = T(basis_vector((e(2), e(1))))
        assert got == {(e(1), e(2)): Q, (e(2), e(1)): Q - ONE}

    def test_eigenvalue_multiplicities(self):
        # on C^2 tensor C^2: eigenvalue q with multiplicity 3, -1 with 1
        win = TensorWindow(2, 2, (0, 0))
        T = win.hecke_T(1)
        basis = win.basis()
        assert len(basis) == 4

        def op_rows(shift):
            rows = []
            for key in basis:
                img = dict(T(basis_vector(key)))
                img[key] = img.get(key, QPoly()) - shift
                rows.append([RatFunc(img.get(k, QPoly())) for k in basis])
            return rows

        assert rank(op_rows(Q), RatFunc.invert) == 1  # q-eigenspace has dim 3
        assert rank(op_rows(-ONE), RatFunc.invert) == 3  # (-1)-eigenspace has dim 1


class TestRelations:
    def test_all_relations_n2(self):
        win = TensorWindow(2, 3, (-2, 2))
        for name, ok in verify_relations(win):
            assert ok, name

    def test_all_relations_n3(self):
        win = TensorWindow(3, 3, (-2, 2))
        for name, ok in verify_relations(win):
            assert ok, name

    def test_zrange_overflow(self):
        win = TensorWindow(2, 2, (0, 1))
        X = win.hecke_X(1)
        with pytest.raises(WindowOverflow):
            X(basis_vector(((1, 1), (1, 0))))


class TestQWedge:
    def test_n1_identity(self):
        win = TensorWindow(2, 1, (0, 1))
        v = basis_vector(((1, 0),))
        assert WedgeReducer(win).reduce(v) == {((1, 0),): RatFunc.from_scalar(1)}

    def test_n1_rejects_a_key_outside_the_window(self):
        with pytest.raises(WindowOverflow):
            WedgeReducer(TensorWindow(2, 1, (0, 1))).reduce({((1, 5),): ONE})

    @pytest.mark.parametrize("n, N, zrange", [
        (2, 2, (0, 1)), (2, 3, (0, 1)), (3, 2, (0, 1)), (2, 2, (-1, 1)),
    ])
    def test_image_gens_span_the_kernel(self, n, N, zrange):
        # (T_i + 1)e lies in Ker(T_i - q), and the images have the rank of
        # that kernel over Q(q), so they span it
        win = TensorWindow(n, N, zrange)
        basis = win.basis()

        def dense(vectors):
            return [[RatFunc.from_scalar(v.get(k, QPoly())) for k in basis] for v in vectors]

        for i in range(1, N):
            T = win.hecke_T(i)

            def t_minus_q(v):
                return vec_sub(T(v), {k: Q * c for k, c in v.items()})

            gens = _image_gens(win, i)
            assert all(not t_minus_q(g) for g in gens)
            image = [t_minus_q(e) for e in map(basis_vector, basis)]
            kernel_dim = len(basis) - rank(dense(image), RatFunc.invert)
            assert rank(dense(gens), RatFunc.invert) == kernel_dim > 0

    def test_window4_quotient_dimension(self):
        # window dimension 4, two factors: quotient dimension C(4,2) = 6
        win = TensorWindow(2, 2, (0, 1))
        assert win.dim == 4
        red = WedgeReducer(win)
        assert red.quotient_dim == comb(4, 2)

    def test_quotient_dims_n3(self):
        win = TensorWindow(2, 3, (0, 1))
        red = WedgeReducer(win)
        assert red.quotient_dim == comb(4, 3)
        win3 = TensorWindow(3, 2, (0, 1))
        assert WedgeReducer(win3).quotient_dim == comb(6, 2)

    def test_kernel_reduces_to_zero(self):
        # (T+1)(T-q) = 0, so the image of T+1 lies in Ker(T-q) and must
        # reduce to the zero representative
        win = TensorWindow(2, 2, (0, 1))
        red = WedgeReducer(win)
        T = win.hecke_T(1)
        for key in win.basis():
            v = basis_vector(key)
            img = dict(T(v))
            for k, c in v.items():
                img[k] = img.get(k, QPoly()) + c
            assert red.reduce(img) == {}

    def test_q1_canonical_forms_coincide(self):
        # the q=1 specialization of the canonical representative equals the
        # input in the classical quotient: push both through the classical
        # sign-sorted normal form, for n=2 and N in {2, 3}
        for N in (2, 3):
            win = TensorWindow(2, N, (0, 1))
            red = WedgeReducer(win)
            for key in win.basis():
                got = red.reduce(basis_vector(key))
                got1 = {k: QPoly.const(at_one(c)) for k, c in got.items()}
                lhs = classical_antisymmetrize(got1)
                rhs = classical_antisymmetrize(basis_vector(key))
                assert lhs == rhs, key


def _scale_q(v):
    return {k: c * Q for k, c in v.items()}


# -- local relation checks against the full-basis loop ---------------------------


def reference_verify_relations(win):
    """Every relation checked on every basis vector of the whole window."""
    N = win.N
    lo, hi = win.zrange
    results = []

    def check(name, lhs, rhs, restrict=None):
        ok = True
        for key in win.basis(restrict):
            v = basis_vector(key)
            if vec_sub(lhs(v), rhs(v)):
                ok = False
                break
        results.append((name, ok))

    def scale(v, c):
        return {k: x * c for k, x in v.items()}

    ident = lambda v: dict(v)
    for i in range(1, N):
        T = win.hecke_T(i)
        Ti = win.hecke_T_inv(i)
        check(f"T_{i} T_{i}^-1 = 1", lambda v: Ti(T(v)), ident)

        def quad(v, T=T):
            tv = T(v)
            return vec_sub(vec_sub(T(tv), scale(tv, Q - ONE)), scale(v, Q))

        check(f"(T_{i}+1)(T_{i}-q) = 0", quad, lambda v: {})
    for i in range(1, N + 1):
        X = win.hecke_X(i)
        Xi = win.hecke_X(i, -1)
        check(f"X_{i} X_{i}^-1 = 1", lambda v, X=X, Xi=Xi: Xi(X(v)), ident,
              (lo, hi - 1))
    for i in range(1, N - 1):
        Ti, Tj = win.hecke_T(i), win.hecke_T(i + 1)
        check(
            f"T_{i} T_{i+1} T_{i} = T_{i+1} T_{i} T_{i+1}",
            lambda v, Ti=Ti, Tj=Tj: Ti(Tj(Ti(v))),
            lambda v, Ti=Ti, Tj=Tj: Tj(Ti(Tj(v))),
        )
    for i in range(1, N):
        for j in range(1, N):
            if abs(i - j) > 1:
                T1, T2 = win.hecke_T(i), win.hecke_T(j)
                check(
                    f"T_{i} T_{j} = T_{j} T_{i}",
                    lambda v, T1=T1, T2=T2: T1(T2(v)),
                    lambda v, T1=T1, T2=T2: T2(T1(v)),
                )
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            Xi, Xj = win.hecke_X(i), win.hecke_X(j)
            check(
                f"X_{i} X_{j} = X_{j} X_{i}",
                lambda v, Xi=Xi, Xj=Xj: Xi(Xj(v)),
                lambda v, Xi=Xi, Xj=Xj: Xj(Xi(v)),
                (lo, hi - 2),
            )
    for i in range(1, N):
        for j in range(1, N + 1):
            if j not in (i, i + 1):
                T, X = win.hecke_T(i), win.hecke_X(j)
                check(
                    f"X_{j} T_{i} = T_{i} X_{j}",
                    lambda v, T=T, X=X: X(T(v)),
                    lambda v, T=T, X=X: T(X(v)),
                    (lo, hi - 1),
                )
    for i in range(1, N):
        T, Xi, Xn = win.hecke_T(i), win.hecke_X(i), win.hecke_X(i + 1)
        check(
            f"T_{i} X_{i} T_{i} = q X_{i+1}",
            lambda v, T=T, Xi=Xi: T(Xi(T(v))),
            lambda v, Xn=Xn: scale(Xn(v), Q),
            (lo, hi - 1),
        )
    for i in range(2, N + 1):
        Xb = win.hecke_X_bernstein(i)
        X = win.hecke_X(i)
        check(
            f"Bernstein X_{i} = z on slot {i}",
            lambda v, Xb=Xb: Xb(v),
            lambda v, X=X: X(v),
            (lo, hi - 1),
        )
    return results


def outcome(verify, win):
    """The verdict list, or the name of the error the check raised."""
    try:
        return verify(win)
    except WindowOverflow:
        return "WindowOverflow"


SMALL_WINDOWS = [
    TensorWindow(2, 1, (-1, 1)),
    TensorWindow(3, 2, (-1, 1)),
    TensorWindow(2, 2, (0, 0)),
    TensorWindow(2, 3, (-1, 1)),
    TensorWindow(1, 3, (0, 0)),
    TensorWindow(2, 4, (0, 1)),
]
WINDOW_IDS = [f"n{w.n}-N{w.N}-z{w.zrange[0]}_{w.zrange[1]}" for w in SMALL_WINDOWS]


@pytest.fixture
def patched_pair(monkeypatch):
    """Swap in another pair rule; the cached true rule is cleared around
    it, since its recursion resolves _t_pair through the module."""
    true_rule = hecke._t_pair

    def patch(rule):
        true_rule.cache_clear()
        monkeypatch.setattr(hecke, "_t_pair", lambda a, b, k, l: rule(true_rule, a, b, k, l))

    yield patch
    monkeypatch.undo()
    true_rule.cache_clear()


def _swapped_coefficients(true_rule, a, b, k, l):
    # q and q - 1 exchanged in the rule for e_l (x) e_k, k < l
    if (a, b) == (0, 0) and k > l:
        return (((0, 0, l, k), Q - ONE), ((0, 0, k, l), Q))
    return true_rule(a, b, k, l)


def _leaky(true_rule, a, b, k, l):
    # an extra term for e_k (x) e_l, k < l, at z-degrees (0, 0) that raises
    # the second z-degree: a wrong verdict where the window has room for it,
    # WindowOverflow where it has not
    out = true_rule(a, b, k, l)
    if (a, b) == (0, 0) and k < l:
        out += (((0, 1, k, l), ONE),)
    return out


class TestLocalEqualsFull:
    @pytest.mark.parametrize("win", SMALL_WINDOWS, ids=WINDOW_IDS)
    def test_same_verdicts(self, win):
        got = verify_relations(win)
        assert got == reference_verify_relations(win)
        assert all(ok for _, ok in got)

    @pytest.mark.parametrize("win", SMALL_WINDOWS, ids=WINDOW_IDS)
    def test_broken_pair_rule_fails_alike(self, win, patched_pair):
        patched_pair(_swapped_coefficients)
        got = outcome(verify_relations, win)
        assert got == outcome(reference_verify_relations, win)
        if win.N > 1 and win.n > 1:
            assert ("T_1 T_1^-1 = 1", False) in got
            assert ("X_1 X_2 = X_2 X_1", True) in got

    @pytest.mark.parametrize("win", SMALL_WINDOWS, ids=WINDOW_IDS)
    def test_window_overflow_alike(self, win, patched_pair):
        patched_pair(_leaky)
        got = outcome(verify_relations, win)
        assert got == outcome(reference_verify_relations, win)
        if win.n > 1 and win.N > 1 and win.zrange == (0, 0):
            assert got == "WindowOverflow"
        if win.N > 1 and win.zrange == (-1, 1):
            assert ("T_1 T_1^-1 = 1", False) in got


# -- the q-wedge reducer against the index-keyed dense reducer it replaced ------


def reference_representatives(win: TensorWindow) -> list[dict]:
    """Each basis vector's representative as the reducer first computed it:
    rows of a dense RatFunc matrix over basis indices, ``linalg.rref``, and
    reduction on indices mapped back to keys."""
    basis = win.basis()
    index = {k: i for i, k in enumerate(basis)}
    gens = [g for i in range(1, win.N) for g in _image_gens(win, i)]
    rows = [[RatFunc.from_scalar(g.get(k, QPoly())) for k in basis] for g in gens]
    echelon, pivots = linalg.rref(rows, RatFunc.invert)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in echelon]
    out = []
    for key in basis:
        work = {index[key]: RatFunc.from_scalar(ONE)}
        rest = linalg.remainder(work, sparse, pivots)
        out.append({basis[j]: c for j, c in rest.items()})
    return out


class TestReducerReference:
    @pytest.mark.parametrize("n, N, zrange", [
        (2, 2, (0, 1)), (2, 3, (0, 1)), (3, 2, (0, 1)), (2, 2, (-1, 1)),
    ])
    def test_representatives_equal_the_dense_reducer(self, n, N, zrange):
        win = TensorWindow(n, N, zrange)
        red = WedgeReducer(win)
        basis = win.basis()
        got = [red.reduce(basis_vector(key)) for key in basis]
        want = reference_representatives(win)
        assert any(rep != {key: RatFunc(ONE)} for rep, key in zip(got, basis))
        for g, w in zip(got, want):
            assert list(g) == list(w)
            for key in g:
                assert typed_terms(g[key].num) == typed_terms(w[key].num)
                assert typed_terms(g[key].den) == typed_terms(w[key].den)

    def test_keys_outside_the_window_overflow(self):
        red = WedgeReducer(TensorWindow(2, 2, (0, 1)))
        for key in (((1, 0), (1, 2)), ((3, 0), (1, 0)), ((1, 0),), ((1, 0), (1, 0), (1, 0))):
            with pytest.raises(WindowOverflow):
                red.reduce({key: ONE})
