"""Wall time of a cold `main-check` on the fixed Miura data.

Runs `opertau --window=-10,12 --degree 8 --json main-check` on
tests/data/miura_n2.json and miura_n3.json, each in a fresh Python process
from this checkout's src/, repeating the pair --repeats times in
alternation.  Prints one JSON object with every sample and the median per
datum.  Exits 1 if a run fails or does not report all_passed.

    python3 tools/time_main_check.py --repeats 11
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ["tests/data/miura_n2.json", "tests/data/miura_n3.json"]
ARGV = ["--window=-10,12", "--degree", "8", "--json", "main-check", "--miura"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=11)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    samples: dict[str, list[float]] = {d: [] for d in DATA}
    for _ in range(args.repeats):
        for datum in DATA:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "opertau.cli", *ARGV, datum],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - start
            if proc.returncode != 0 or json.loads(proc.stdout).get("all_passed") is not True:
                print(f"{datum}: exit {proc.returncode}, all_passed is not true", file=sys.stderr)
                return 1
            samples[datum].append(elapsed)
    report = {
        datum: {"median_s": statistics.median(ts), "samples_s": ts}
        for datum, ts in samples.items()
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
