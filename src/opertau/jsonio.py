"""JSON encodings: exact rationals rendered as decimal-string pairs.

TruncSeries: {"pole": p, "order": N, "coeffs": [["num", "den"], ...]}
TimesSeries: {"bound": D, "terms": [{"exps": {"t1": e, "t'2": e}, "coef": [...]}]}
ScalarOper:  {"n": n, "q": [series, ...]}
MiuraOper:   {"n": n, "chi": [series, ...]}
PsiDO:       {"depth": d, "terms": {"2": series, "-1": series}}
Frame:       {"window": [lo, hi], "columns": [{"0": [...], "-1": [...]}]}
Toda pairs:  [["a", "p", "q"], ...]

Every decoder raises :class:`ParseError` on a document of the wrong shape
or with values its type rejects (a zero denominator, a term above the
stated bound, a float or a boolean where an integer or a rational string
belongs, a time name other than t<k> or t'<k> with k >= 1, a repeated
monomial), so bad input never escapes as a bare Python exception.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import ParseError
from .series import TruncSeries


# what indexing, unpacking and the constructors raise on a malformed document
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _decoder(fn):
    what = fn.__name__.removesuffix("_from_json")

    @functools.wraps(fn)
    def decode(d):
        try:
            return fn(d)
        except _MALFORMED as e:
            raise ParseError(f"malformed {what} JSON: {type(e).__name__}: {e}") from e

    return decode


def _exact(v):
    """A JSON integer that is not a boolean, or a string; a float or a
    boolean is rejected, never truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError(f"expected an integer or a string, got {v!r}")
    return v


def _int(v) -> int:
    """An integer field: an integer or a decimal string (see ``_exact``)."""
    return int(_exact(v))


def fraction_to_json(c: Fraction) -> list[str]:
    return [str(c.numerator), str(c.denominator)]


@_decoder
def fraction_from_json(v) -> Fraction:
    num, den = v
    return Fraction(_int(num), _int(den))


def series_to_json(s: TruncSeries) -> dict:
    return {
        "pole": s.pole,
        "order": s.order,
        "coeffs": [fraction_to_json(c) for c in s.coeffs],
    }


@_decoder
def series_from_json(d: dict) -> TruncSeries:
    return TruncSeries(
        _int(d["pole"]),
        [fraction_from_json(c) for c in d["coeffs"]],
        _int(d["order"]),
    )


def times_to_json(s: TimesSeries) -> dict:
    terms = []
    for (e, p), c in sorted(s.terms.items()):
        exps = {f"t{i+1}": v for i, v in enumerate(e) if v}
        exps.update({f"t'{i+1}": v for i, v in enumerate(p) if v})
        terms.append({"exps": exps, "coef": fraction_to_json(c)})
    return {"bound": s.bound, "terms": terms}


_TIME_NAME = re.compile(r"t(')?([1-9][0-9]*)")


@_decoder
def times_from_json(d: dict) -> TimesSeries:
    from .times import TimesSeries
    terms = {}
    for item in d["terms"]:
        e: dict[int, int] = {}
        p: dict[int, int] = {}
        for name, v in item["exps"].items():
            match = _TIME_NAME.fullmatch(name)
            if match is None:
                raise ValueError(f"time name must be t<k> or t'<k> with k >= 1, got {name!r}")
            exponent = _int(v)
            if exponent:
                (p if match[1] else e)[int(match[2])] = exponent
        key = (
            tuple(e.get(i + 1, 0) for i in range(max(e, default=0))),
            tuple(p.get(i + 1, 0) for i in range(max(p, default=0))),
        )
        if key in terms:
            raise ValueError(f"repeated monomial {item['exps']}")
        terms[key] = fraction_from_json(item["coef"])
    bound = d.get("bound")
    return TimesSeries(terms, None if bound is None else _int(bound))


def scalar_oper_to_json(S: ScalarOper) -> dict:
    return {"n": S.n, "q": [series_to_json(s) for s in S.q]}


@_decoder
def scalar_oper_from_json(d: dict) -> ScalarOper:
    from .oper import ScalarOper
    return ScalarOper(_int(d["n"]), tuple(series_from_json(s) for s in d["q"]))


def miura_to_json(M: MiuraOper) -> dict:
    return {"n": M.n, "chi": [series_to_json(s) for s in M.chi]}


@_decoder
def miura_from_json(d: dict) -> MiuraOper:
    from .oper import MiuraOper
    return MiuraOper(_int(d["n"]), tuple(series_from_json(s) for s in d["chi"]))


def psido_to_json(A: PsiDO) -> dict:
    return {
        "depth": A.depth,
        "terms": {str(i): series_to_json(c) for i, c in sorted(A.terms.items())},
    }


def frame_to_json(W: GrassPoint) -> dict:
    return {
        "window": list(W.window),
        "columns": [
            {str(k): fraction_to_json(v) for k, v in sorted(col.items())}
            for col in W.columns
        ],
    }


@_decoder
def frame_from_json(d: dict) -> GrassPoint:
    from .grass import GrassPoint
    lo, hi = d["window"]
    cols = [
        {int(k): fraction_from_json(v) for k, v in col.items()}
        for col in d["columns"]
    ]
    return GrassPoint((_int(lo), _int(hi)), cols)


@_decoder
def pairs_from_json(d: list) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [tuple(Fraction(_exact(x)) for x in (a, p, q)) for (a, p, q) in d]
