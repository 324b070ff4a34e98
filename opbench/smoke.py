"""Smoke test of the benchmark itself.

    python3 opbench/smoke.py

For every workload it runs the workload's smallest op with a fixed seed in
four fresh processes: two untraced and two traced, each under its own
PYTHONHASHSEED.  It passes when every self-check holds, all four digests
are equal, and the two traced runs report identical call counts.  Exit
code 0 means every workload passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEED = 7


def case(workload: str, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[workload]
    spec = wl.smallest
    data = wl.datum(SEED, 0, spec)
    counts = {}
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            ok, raw = tracer.run_op(0, wl.run, spec, data)
        finally:
            tracer.uninstall()
        counts = tracer.counts
    else:
        ok, raw = wl.run(spec, data)
    return {"ok": ok, "digest": workloads.digest(wl.encode(spec, raw)), "counts": counts}


def main() -> int:
    p = argparse.ArgumentParser(description="benchmark smoke test")
    p.add_argument("--case", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.case:
        print(json.dumps(case(args.case, args.traced)))
        return 0

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    all_good = True
    for name in WORKLOADS:
        runs = []
        for hash_seed, traced in ((1, False), (2, False), (3, True), (4, True)):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
            argv = [sys.executable, __file__, "--case", name] + (["--traced"] if traced else [])
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                runs.append(None)
            else:
                runs.append(json.loads(proc.stdout.splitlines()[-1]))
        good = (
            all(r is not None and r["ok"] for r in runs)
            and len({r["digest"] for r in runs}) == 1
            and runs[2]["counts"] == runs[3]["counts"]
            and bool(runs[2]["counts"])
        )
        all_good = all_good and good
        digest = runs[0]["digest"][:16] if runs[0] else "-"
        print(f"{'PASS' if good else 'FAIL'}  {name}: smallest op {WORKLOADS[name].smallest!r}, digest {digest}")
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
