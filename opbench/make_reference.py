"""Write reference.json: per-op digests of round 0 for seeds 0..15.

    python3 opbench/make_reference.py

run.py compares every op of round 0 against these digests when its seed is
listed, and counts a mismatch as a failed op.  Regenerate only when a
change is meant to alter exact results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    out = {}
    for name, wl in workloads.WORKLOADS.items():
        out[name] = {}
        for seed in SEEDS:
            digests = []
            for index, spec in enumerate(wl.round):
                ok, raw = wl.run(spec, wl.datum(seed, index, spec))
                if not ok:
                    print(f"{name} seed {seed} op {index}: self-check false", file=sys.stderr)
                    return 1
                digests.append(workloads.digest(wl.encode(spec, raw)))
            out[name][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} ops", flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
