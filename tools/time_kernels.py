"""Wall time of the series kernels and of `compose` and `nth_root` on
fixed-seed operands.

Times `TruncSeries * TruncSeries`, `TruncSeries + TruncSeries` and
`TruncSeries.derivative` on windows of width 14-16, dense or holding a
polynomial of degree 2-6 (the operands of `nth_root`, `compose` and the KdV
flows; the derivative is of the first operand of each pair), and `TimesSeries * TimesSeries` on 58-term by 16-term
series at weighted bounds 8 and 12 (the operands of `toda_tau`,
`tau_determinant` and `hirota_residual`).  On flows-sized operators (monic
L of order 2 and 3 whose lower coefficients are degree-6 polynomials in
order-12 windows), it times `nth_root(L, n, -8)` and `compose(R, R, -8)` of
that root R with itself.  It also times `miura_to_flag` on the two
`main-check` data of `tests/data` at the window (-10, 12), with the wave
columns cached after the warm-up (so the gauge columns and the echelons of
the chain), and one `WedgeReducer` on `TensorWindow(2, 3, (0, 1))` plus the
reduction of every basis vector.  On the operands of the tau workload, it
times `TimesSeries.exp` of one-pair Toda exponents at bound 12 (t and t'
times), `invert` of Plücker-Schur taus at bound 8 and `hirota_residual`
at degree 8 of the same taus at bound 12 (frames over (-8, 8) with dense
random tails in two columns).  Coefficients are fractions with mixed small
denominators.  `cold_import_ms` is the wall time of a fresh interpreter
that imports every module of the package, and `cold_hecke_cli_ms` that of a
fresh `python -m opertau.cli --json hecke-verify --n 2 --N 3 --zrange 1`
(the hecke workload's CLI sample), both from a copy of the package without
a bytecode cache, under `PYTHONDONTWRITEBYTECODE=1`: the first compiles all
of the package, as each run of the benchmark pays through `import
workloads` from a new checkout, and the second only the modules that one
command loads.
Each sample times a fixed batch of calls; the script prints one JSON object
with the median and every sample per kernel, in microseconds per series
operation or milliseconds per call.  It uses only the public API, so it runs
unchanged on any checkout of this repository.

    python3 tools/time_kernels.py --repeats 11
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from operator import add, mul
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from opertau.grass import GrassPoint, hirota_residual, tau_schur  # noqa: E402
from opertau.hecke import TensorWindow, WedgeReducer, basis_vector  # noqa: E402
from opertau.jsonio import miura_from_json  # noqa: E402
from opertau.krichever import miura_to_flag  # noqa: E402
from opertau.psido import PsiDO, compose, nth_root  # noqa: E402
from opertau.series import TruncSeries  # noqa: E402
from opertau.times import TimesSeries, weight  # noqa: E402
from opertau.toda import xi  # noqa: E402

SEED = 25
PAIRS = 40  # products per sample and kernel
OPERATORS = 4  # operators per sample for compose and nth_root
DEPTH = -8  # the tail depth of the flows workload
DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27)
DATA = SRC.parent / "tests" / "data"
FLAG_WINDOW = (-10, 12)
TAUS = 4  # exponents and taus per sample for exp, invert and hirota_residual
TAU_WINDOW = (-8, 8)
POINTS = [Fraction(v) for v in (2, 3, 4, 5, -2, -3)] + [
    Fraction(1, v) for v in (2, 3, 4, 5, -2, -3)
]


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


def operator_operands(rng: random.Random) -> list[tuple[int, PsiDO, PsiDO]]:
    """(n, L, R): monic L of order n = 2, 3, 2, 3 and its root R to DEPTH."""
    out = []
    for i in range(OPERATORS):
        n = (2, 3)[i % 2]
        terms = {n: TruncSeries.one(12)}
        for j in range(n):
            cs = [_coeff(rng) or Fraction(1) for _ in range(7)]
            terms[j] = TruncSeries(0, cs + [Fraction(0)] * 5, 12)
        L = PsiDO(terms)
        out.append((n, L, nth_root(L, n, DEPTH)))
    return out


def tau_operands(rng: random.Random) -> tuple[list, list, list]:
    """One-pair Toda exponents at bound 12, and taus at bounds 8 and 12."""
    exponents, tau8, tau12 = [], [], []
    for _ in range(TAUS):
        p, q = rng.sample(POINTS, 2)
        g = xi(p, 12) - xi(q, 12) + xi(1 / p, 12, prime=True) - xi(1 / q, 12, prime=True)
        exponents.append((g,))
        lo, hi = TAU_WINDOW
        cols = [{k: Fraction(1)} for k in range(hi)]
        for j in (0, 1):
            cols[j].update({k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for k in range(lo, 0)})
        W = GrassPoint(TAU_WINDOW, cols)
        tau8.append((tau_schur(W, 8),))
        tau12.append((tau_schur(W, 12),))
    return exponents, tau8, tau12


def wedge(win: TensorWindow) -> list[dict]:
    red = WedgeReducer(win)
    return [red.reduce(basis_vector(key)) for key in win.basis()]


IMPORT_ALL = ("import importlib, pkgutil, opertau\n"
              "for m in pkgutil.iter_modules(opertau.__path__):\n"
              "    importlib.import_module('opertau.' + m.name)")
HECKE_CLI = ["-m", "opertau.cli", "--json", "hecke-verify", "--n", "2", "--N", "3", "--zrange", "1"]


def cold_run(env: dict, argv: list[str]) -> None:
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)


def _sample(call, operands, scale: float) -> float:
    start = time.perf_counter()
    for args in operands:
        call(*args)
    return (time.perf_counter() - start) / len(operands) * scale


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=11)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    rng = random.Random(SEED)
    trunc, times = trunc_operands(rng), times_operands(rng)
    ops = operator_operands(rng)
    exponents, tau8, tau12 = tau_operands(rng)
    miuras = [(miura_from_json(json.loads((DATA / f"miura_n{n}.json").read_text())),)
              for n in (2, 3)]
    kernels = {
        "series_mul_us": (mul, trunc, 1e6),
        "series_add_us": (add, trunc, 1e6),
        "series_derivative_us": (lambda a, b: a.derivative(), trunc, 1e6),
        "times_mul_us": (mul, times, 1e6),
        "compose_ms": (lambda n, L, R: compose(R, R, DEPTH), ops, 1e3),
        "nth_root_ms": (lambda n, L, R: nth_root(L, n, DEPTH), ops, 1e3),
        "miura_to_flag_ms": (lambda M: miura_to_flag(M, FLAG_WINDOW), miuras, 1e3),
        "wedge_reducer_ms": (wedge, [(TensorWindow(2, 3, (0, 1)),)], 1e3),
        "times_exp_ms": (TimesSeries.exp, exponents, 1e3),
        "times_invert_ms": (TimesSeries.invert, tau8, 1e3),
        "hirota_residual_ms": (lambda tau: hirota_residual(tau, 8), tau12, 1e3),
    }
    with tempfile.TemporaryDirectory() as fresh:
        shutil.copytree(SRC / "opertau", Path(fresh) / "opertau",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": fresh, "PYTHONDONTWRITEBYTECODE": "1"}
        kernels["cold_import_ms"] = (cold_run, [(env, ["-c", IMPORT_ALL])], 1e3)
        kernels["cold_hecke_cli_ms"] = (cold_run, [(env, HECKE_CLI)], 1e3)
        samples: dict[str, list[float]] = {name: [] for name in kernels}
        for kernel in kernels.values():
            _sample(*kernel)  # warm-up
        for _ in range(args.repeats):
            for name, kernel in kernels.items():
                samples[name].append(_sample(*kernel))
    report = {
        name: {"median": statistics.median(ts), "samples": ts}
        for name, ts in samples.items()
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
