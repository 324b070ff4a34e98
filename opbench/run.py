"""opertau benchmark: one workload, one seed, one closed-loop client.

    python3 opbench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports opertau from its
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (see design.json).
The last line of standard output is the result object; the line before it
is a report with digests, cache accounting and the host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# cold CLI runs: at least CLI_MIN_RUNS, and more (up to CLI_MAX_RUNS) until
# CLI_MIN_TOTAL_S of samples are in, so a short command is not timed on a
# single moment of host speed
CLI_MIN_RUNS = 3
CLI_MAX_RUNS = 9
CLI_MIN_TOTAL_S = 3.0
CLI_TIMEOUT_S = 150


def host_probe() -> float:
    """Median time of a fixed stdlib Fraction loop; reported, never used
    to scale a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 4001):
            acc = Fraction(k, k + 1) * Fraction(k + 2, k + 3) + acc * Fraction(1, 2)
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """Op bookkeeping shared by the timed and the traced passes."""

    def __init__(self, wl, seed: int, reference: list[str] | None, digest):
        self.wl = wl
        self.digest = digest
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, index, spec, runner=None):
        """Generate, run, check and digest one op; returns (seconds, digest)."""
        wl = self.wl
        data = wl.datum(self.seed, index, spec)
        self.attempted += 1
        ok, raw, digest = False, None, None
        start = time.perf_counter()
        try:
            ok, raw = runner(index, wl.run, spec, data) if runner else wl.run(spec, data)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"op {index} {spec!r}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if raw is not None:
            digest = self.digest(wl.encode(spec, raw))
        if raw is not None and not ok:
            self.failures.append(f"op {index} {spec!r}: self-check false")
        ref = self.reference
        if digest is not None and ref is not None and isinstance(index, int) and index < len(ref):
            if digest != ref[index]:
                ok = False
                self.failures.append(f"op {index} {spec!r}: digest differs from reference")
        if not ok:
            self.failed += 1
        return seconds, digest

    def warm_up(self):
        return self.op("warmup", self.wl.round[0])

    def round_zero(self, runner=None):
        return [self.op(k, spec, runner) for k, spec in enumerate(self.wl.round)]


def load_reference(workload: str, seed: int) -> list[str] | None:
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


class Cli:
    """Cold runs of the workload's CLI command, each in a fresh process.

    Samples are taken between timed ops rather than in one block, so a
    spell of faster or slower host speed does not decide their median.
    """

    def __init__(self, wl, seed: int, run: Run):
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"cli-{wl.name}-{seed}-{os.getpid()}.json"
        self.argv, self.check = wl.cli(seed, self.path)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.run = run
        self.runs = 0
        self.times: list[float] = []

    def wanted(self) -> bool:
        return self.runs < CLI_MAX_RUNS and (
            self.runs < CLI_MIN_RUNS or sum(self.times) < CLI_MIN_TOTAL_S
        )

    def sample(self) -> None:
        run = self.run
        self.runs += 1
        run.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "opertau.cli", *self.argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            run.failed += 1
            run.failures.append("cli: timed out")
            return
        self.times.append(time.perf_counter() - start)
        try:
            good = proc.returncode == 0 and self.check(json.loads(proc.stdout))
        except json.JSONDecodeError:
            good = False
        if not good:
            run.failed += 1
            run.failures.append(f"cli: exit {proc.returncode}, output check failed")

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def timed_loop(run: Run, seconds: float, cli: Cli):
    """Whole rounds, one op after another, until the ops have taken
    `seconds`; CLI samples go between ops, outside the timed region."""
    op_times, digests = [], []
    index = 0
    while True:
        for spec in run.wl.round:
            sec, dig = run.op(index, spec)
            op_times.append(sec)
            digests.append(dig)
            index += 1
            if cli.wanted():
                cli.sample()
        if sum(op_times) >= seconds:
            break
    while cli.wanted():
        cli.sample()
    return op_times, digests


def traced_pass(run: Run, workloads_mod):
    """Round 0 untraced, then again traced from the same cache state."""
    from spans import COUNTED, LAYERS, Tracer

    untraced = run.round_zero()
    workloads_mod.clear_caches()
    run.warm_up()
    caches_before = workloads_mod.cache_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.round_zero(runner=tracer.run_op)
    finally:
        tracer.uninstall()
    caches_after = workloads_mod.cache_snapshot()
    for k, ((_, a), (_, b)) in enumerate(zip(untraced, traced)):
        if a != b:
            run.failed += 1
            run.failures.append(f"op {k}: traced digest differs from untraced")

    def hit_ratio(*names):
        hits = sum(caches_after[n]["hits"] - caches_before[n]["hits"] for n in names)
        misses = sum(caches_after[n]["misses"] - caches_before[n]["misses"] for n in names)
        return hits / (hits + misses) if hits + misses else 0.0

    counts = tracer.counts
    selfs = tracer.self_times()
    metrics = {f"{layer}.self_s": (selfs.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({m: (v, "s") for m, v in tracer.inclusive_times().items()})
    metrics.update({m: (counts.get(label, 0), "count") for m, label in COUNTED.items()})
    plucker = counts.get("grass.plucker", 0)
    metrics.update({
        "times.mul_pairs": (counts.get("times.mul_pairs", 0), "count"),
        "grass.plucker_nonzero_ratio": (
            counts.get("grass.plucker_nonzero", 0) / plucker if plucker else 0.0, "ratio"),
        "krichever.wave_cache_hit_ratio": (hit_ratio("krichever._wave_columns_cached"), "ratio"),
        "schur.cache_hit_ratio": (
            hit_ratio("schur.schur_polynomial", "schur.h_complete", "schur.mn_character"), "ratio"),
        "hecke.t_pair_hit_ratio": (hit_ratio("hecke._t_pair"), "ratio"),
        "trace.overhead_ratio": (
            sum(s for s, _ in traced) / sum(s for s, _ in untraced), "ratio"),
    })
    extra = {
        "digests": [d for _, d in traced],
        "caches_after_warmup": caches_before,
        "caches_at_end": caches_after,
    }
    return metrics, tracer, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "opertau" / "__init__.py").is_file():
        print(f"opbench: no opertau sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    # one client on one CPU: a run that migrates between CPUs mixes their
    # speeds, which differ with the host's load; CLI children inherit the pin
    cpu = None
    if hasattr(os, "sched_setaffinity"):
        try:
            cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
        except OSError:
            cpu = None
    probe_start = host_probe()
    start = time.perf_counter()
    import workloads as workloads_mod  # imports opertau

    import_s = time.perf_counter() - start
    wl = workloads_mod.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"opbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(wl, args.seed, load_reference(wl.name, args.seed), workloads_mod.digest)

    # set-up: inputs from the seed plus one untimed warm-up op from cold
    # caches, repeated; the import is paid once and added to each repeat
    setup_samples = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        workloads_mod.clear_caches()
        start = time.perf_counter()
        run.warm_up()
        setup_samples.append(import_s + time.perf_counter() - start)
    caches_after_warmup = workloads_mod.cache_snapshot()

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "round": [repr(s) for s in wl.round],
        "reference": "checked" if run.reference else "none for this seed",
        "cpu": cpu,
    }
    if args.trace:
        values, tracer, extra = traced_pass(run, workloads_mod)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-{args.seed}.json"
        tracer.write(trace_path, {"workload": wl.name, "seed": args.seed, **extra})
        report.update(
            digest=workloads_mod.digest(extra["digests"]),
            trace_file=str(trace_path.relative_to(ROOT)),
            counts=dict(sorted(tracer.counts.items())),
            caches_after_warmup=extra["caches_after_warmup"],
            caches_at_end=extra["caches_at_end"],
        )
    else:
        cli = Cli(wl, args.seed, run)
        try:
            op_times, digests = timed_loop(run, args.seconds, cli)
        finally:
            cli.close()
        cli_times = cli.times
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(op_times) / sum(op_times), "op/s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_s": (statistics.median(cli_times) if cli_times else 0.0, "s"),
        }
        n_round = len(wl.round)
        report.update(
            digest=workloads_mod.digest(digests[:n_round]),
            digest_all_ops=workloads_mod.digest(digests),
            op_p50_samples=len(op_times),
            op_seconds=op_times,
            setup_samples_s=setup_samples,
            cli_samples_s=cli_times,
            caches_after_warmup=caches_after_warmup,
            caches_at_end=workloads_mod.cache_snapshot(),
        )
    report.update(
        error_rate=run.failed / run.attempted,
        failures=run.failures,
        host_probe_s={"start": probe_start, "end": host_probe()},
    )
    print(json.dumps({"report": report}, sort_keys=True))
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
