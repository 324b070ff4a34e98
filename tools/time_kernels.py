"""Wall time of the two product kernels on fixed-seed operands.

Times `TruncSeries * TruncSeries` on windows of width 14-16, dense or
holding a polynomial of degree 2-6 (the operands of `nth_root`, `compose`
and the KdV flows), and `TimesSeries * TimesSeries` on 58-term by 16-term
series at weighted bounds 8 and 12 (the operands of `toda_tau`,
`tau_determinant` and `hirota_residual`).  Coefficients are fractions with
mixed small denominators.  Each sample times a fixed batch
of products; the script prints one JSON object with the median and every
sample per kernel, in microseconds per product.  It uses only the public
API, so it runs unchanged on any checkout of this repository.

    python3 tools/time_kernels.py --repeats 11
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opertau.series import TruncSeries  # noqa: E402
from opertau.times import TimesSeries, weight  # noqa: E402

SEED = 25
PAIRS = 40  # products per sample and kernel
DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS))


def trunc_operands(rng: random.Random) -> list[tuple[TruncSeries, TruncSeries]]:
    out = []
    for _ in range(PAIRS):
        pair = []
        for _ in range(2):
            # dense windows and short polynomials in a long window, as in
            # nth_root (dense) and the KdV data (degree 2-6, order 16)
            pole, width = rng.randint(-2, 0), rng.randint(14, 16)
            degree = rng.choice((2, 4, 6, width - 1))
            cs = [_coeff(rng) if k <= degree else Fraction(0) for k in range(width)]
            cs[0] = cs[0] or Fraction(1)
            pair.append(TruncSeries(pole, cs, pole + width))
        out.append(tuple(pair))
    return out


def _monomials(bound: int) -> list:
    """Keys in t1..t4 and t'1 of weight <= bound (the constructor trims them)."""
    keys = []
    for a in range(bound + 1):
        for b in range(bound // 2 + 1):
            for c in range(bound // 3 + 1):
                for d in range(bound // 4 + 1):
                    for p in range(3):
                        key = ((a, b, c, d), (p,))
                        if weight(key) <= bound:
                            keys.append(key)
    return keys


def times_operands(rng: random.Random) -> list[tuple[TimesSeries, TimesSeries]]:
    out = []
    for i in range(PAIRS):
        bound = (8, 12)[i % 2]
        keys = _monomials(bound)
        a = {k: _coeff(rng) for k in rng.sample(keys, 58)}
        b = {k: _coeff(rng) for k in rng.sample(keys, 16)}
        out.append((TimesSeries(a, bound), TimesSeries(b, bound)))
    return out


def _sample_us(pairs) -> float:
    start = time.perf_counter()
    for a, b in pairs:
        a * b
    return (time.perf_counter() - start) / len(pairs) * 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=11)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    rng = random.Random(SEED)
    kernels = {"series_mul_us": trunc_operands(rng), "times_mul_us": times_operands(rng)}
    samples: dict[str, list[float]] = {name: [] for name in kernels}
    for pairs in kernels.values():
        _sample_us(pairs)  # warm-up
    for _ in range(args.repeats):
        for name, pairs in kernels.items():
            samples[name].append(_sample_us(pairs))
    report = {
        name: {"median": statistics.median(ts), "samples": ts}
        for name, ts in samples.items()
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
