from fractions import Fraction

import pytest

from opertau import jsonio
from opertau.errors import ParseError
from opertau.grass import GrassPoint
from opertau.oper import MiuraOper, ScalarOper
from opertau.series import TruncSeries, tpoly
from opertau.times import TimesSeries

F = Fraction


def test_series_round_trip():
    s = tpoly({-2: F(1, 3), 0: 4, 5: F(-7, 2)})
    assert jsonio.series_from_json(jsonio.series_to_json(s)) == s


def test_times_round_trip():
    t = (
        TimesSeries.one(8)
        + TimesSeries.var(1, bound=8) * F(2, 5)
        + TimesSeries.var(3, prime=True, bound=8) * F(-1, 7)
    )
    assert jsonio.times_from_json(jsonio.times_to_json(t)) == t


def test_oper_round_trips():
    S = ScalarOper(2, (tpoly({1: 1}), tpoly({0: F(1, 2)})))
    assert jsonio.scalar_oper_from_json(jsonio.scalar_oper_to_json(S)) == S
    M = MiuraOper(2, (tpoly({2: -3}), TruncSeries.zero(12)))
    assert jsonio.miura_from_json(jsonio.miura_to_json(M)) == M


def test_frame_round_trip():
    W = GrassPoint((-4, 4), [{0: 1, -1: F(2, 3)}, {1: 1}, {2: 1}, {3: 1}])
    W2 = jsonio.frame_from_json(jsonio.frame_to_json(W))
    assert W == W2


class TestStrictIntegers:
    """Integer fields take a JSON integer or a decimal string; a float or a
    boolean is a ParseError, never truncated or read as 0/1."""

    @pytest.mark.parametrize("bad", [[1.5, 2], [True, 3], ["1", 2.0], ["2", True]])
    def test_fraction(self, bad):
        with pytest.raises(ParseError):
            jsonio.fraction_from_json(bad)

    def test_fraction_takes_strings_and_ints(self):
        assert jsonio.fraction_from_json(["-3", 6]) == F(-1, 2)
        assert jsonio.fraction_from_json([4, "6"]) == F(2, 3)

    @pytest.mark.parametrize("field, value", [("pole", 1.0), ("order", 12.0), ("order", 12.5)])
    def test_series_fields(self, field, value):
        d = jsonio.series_to_json(tpoly({1: 2}))
        d[field] = value
        with pytest.raises(ParseError):
            jsonio.series_from_json(d)

    @pytest.mark.parametrize("exps, bound", [({"t1": 1.9}, 8), ({"t'2": True}, 8), ({"t1": 1}, 8.0)])
    def test_times_exponents_and_bound(self, exps, bound):
        d = {"bound": bound, "terms": [{"exps": exps, "coef": ["1", "1"]}]}
        with pytest.raises(ParseError):
            jsonio.times_from_json(d)

    @pytest.mark.parametrize("window", [[-4.0, 4], [-4, 4.5]])
    def test_frame_window(self, window):
        d = jsonio.frame_to_json(GrassPoint((-4, 4), [{0: 1}, {1: 1}, {2: 1}, {3: 1}]))
        d["window"] = window
        with pytest.raises(ParseError):
            jsonio.frame_from_json(d)

    def test_oper_fields(self):
        S = jsonio.scalar_oper_to_json(ScalarOper(2, (tpoly({1: 1}), tpoly({0: 1}))))
        with pytest.raises(ParseError):
            jsonio.scalar_oper_from_json({**S, "n": 2.0})


class TestTimeNames:
    """Only t<k> and t'<k> with k >= 1 name a time, and a monomial appears once."""

    def decode(self, *exps):
        terms = [{"exps": e, "coef": [str(c), "1"]} for c, e in enumerate(exps, 1)]
        return jsonio.times_from_json({"bound": 4, "terms": terms})

    @pytest.mark.parametrize("name", ["t0", "t-1", "t'0", "t'-2", "s1", "t", "t'", "t1x", "t+1", "t01"])
    def test_malformed_name(self, name):
        with pytest.raises(ParseError, match="time name"):
            self.decode({}, {name: 1})

    def test_repeated_monomial(self):
        with pytest.raises(ParseError, match="repeated monomial"):
            self.decode({"t1": 1}, {"t2": 1}, {"t1": 1})
        with pytest.raises(ParseError, match="repeated monomial"):
            self.decode({"t'2": 1}, {"t'2": 1, "t1": 0})

    def test_names_and_zero_exponents(self):
        got = self.decode({}, {"t2": 1, "t'1": 1}, {"t10": 0, "t1": 1})
        want = {((), ()): 1, ((0, 1), (1,)): 2, ((1,), ()): 3}
        assert got == TimesSeries(want, 4)
