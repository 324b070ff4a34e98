import random
from fractions import Fraction

import pytest

from opertau.errors import ParseError
from opertau.parser import parse_operator, print_operator
from opertau.psido import PsiDO, compose
from opertau.series import TruncSeries, tpoly


class TestParse:
    def test_d(self):
        A = parse_operator("d")
        assert set(A.terms) == {1}
        assert A.terms[1].is_one

    def test_literal_operator(self):
        A = parse_operator("d^2 - 2*t^-2")
        assert A.terms[2].is_one
        assert A.terms[0].agrees(tpoly({-2: -2}))

    def test_normal_ordering(self):
        # d t = t d + 1 via Leibniz
        A = parse_operator("d t")
        assert A.terms[0].is_one
        assert A.terms[1].agrees(tpoly({1: 1}, 11))

    def test_rationals_and_parens(self):
        A = parse_operator("3/4 (d + t) d^-1 + t^2")
        B = compose(
            PsiDO.from_series(TruncSeries.monomial(0, Fraction(3, 4), 12)),
            compose(
                parse_operator("d + t"),
                PsiDO({-1: TruncSeries.one(12)}),
            ),
        ) + PsiDO.from_series(tpoly({2: 1}))
        assert A.agrees(B)

    def test_power_only_on_atoms(self):
        with pytest.raises(ParseError):
            parse_operator("d^x")
        with pytest.raises(ParseError):
            parse_operator("(d + t)^2")

    def test_juxtaposition_equals_star(self):
        assert parse_operator("2 t d").agrees(parse_operator("2*t*d"))

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_operator("d + ?")
        assert e.value.col == 5

    def test_dangling_star_position(self):
        with pytest.raises(ParseError, match="dangling") as e:
            parse_operator("d *")
        assert (e.value.line, e.value.col) == (1, 3)
        with pytest.raises(ParseError, match="dangling") as e:
            parse_operator("d +\n  t  *")
        assert (e.value.line, e.value.col) == (2, 6)

    def test_zero_denominator_position(self):
        with pytest.raises(ParseError, match="zero denominator") as e:
            parse_operator("1/0")
        assert (e.value.line, e.value.col) == (1, 3)
        with pytest.raises(ParseError, match="zero denominator") as e:
            parse_operator("d^2 +\n 3/00 t")
        assert (e.value.line, e.value.col) == (2, 4)

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_operator("(d + t")


class TestRoundTrip:
    def random_op(self, rng):
        terms = {}
        for i in range(rng.randint(-2, 2), rng.randint(2, 4)):
            d = {}
            for k in range(-2, 4):
                if rng.random() < 0.3:
                    c = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                    if c:
                        d[k] = c
            if d:
                terms[i] = tpoly(d)
        if not terms:
            terms = {1: TruncSeries.one(12)}
        return PsiDO(terms)

    def test_hundred_random(self, rng):
        for _ in range(100):
            A = self.random_op(rng)
            text = print_operator(A)
            B = parse_operator(text)
            assert B.agrees(A), text

    def test_zero(self):
        assert parse_operator(print_operator(PsiDO.zero())).is_zero
