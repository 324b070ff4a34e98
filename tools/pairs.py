"""Alternating parent/change pairs of `opbench/run.py`, summarized per metric.

    python3 tools/pairs.py --parent ../parent --change ../change \
        --workloads flows roundtrip tau hecke --seeds 3-12 --seconds 10 \
        --claim flows:ops_per_s:1.6 --out BENCH.json

Both trees are checkouts of this repository in sibling directories whose
names have the same length, so every path the two runs see has the same
length.  Pair i runs seed i of ``--seeds`` on both trees, the parent first
when i is even and the change first when i is odd, one run at a time.  Each
run keeps its ``host_probe_s`` (the harness's fixed ``Fraction`` loop, timed
at its start and end) next to its metrics, so a reading can be checked
against the host's speed at that moment.

For every workload and end-to-end metric of ``BENCHMARK.json`` the summary
gives the median and quartiles of each side, the change/parent ratio of
every pair, the pairs the change wins, and the change's worsening against
the metric's bound.  ``--claim WORKLOAD:METRIC[:RATIO]`` adds a verdict:
met when the change wins at least 9 pairs in 10, its median beats the
parent's by more than the parent's interquartile range, and, with RATIO,
the change median is at least RATIO times better.  Beside each verdict go
both sides' ``host_probe_s`` median and interquartile range, and
``probe_drift`` is true when the two probe medians differ by more than the
parent's probe range: the host changed speed between the sides, and the
verdict may read that drift (it is reported, not folded into ``met``).  The
exit status is 1 when a run fails or reports a failed op, and 0 otherwise;
no metric is held to a threshold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """``3-12`` or ``3,5,8``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "opbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return {
        "host_probe_s": report["host_probe_s"],
        "reference": report["reference"],
        "digest": report["digest"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides, per-pair ratios, wins, bound."""
    out: dict = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == wl and "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = {i: p for i, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        probes = {side: [(p[side]["host_probe_s"]["start"] + p[side]["host_probe_s"]["end"]) / 2
                         for p in pairs.values()] for side in ("parent", "change")}
        wl_out = {"host_probe_s": {side: quartiles(v) for side, v in probes.items()}}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            par = [p["parent"]["metrics"][name] for p in pairs.values()]
            chg = [p["change"]["metrics"][name] for p in pairs.values()]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            pm, cm = statistics.median(par), statistics.median(chg)
            worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
            wl_out[name] = {
                "parent": quartiles(par),
                "change": quartiles(chg),
                "pair_ratios": [round(c / p, 4) if p else None for p, c in zip(par, chg)],
                "change_better_pairs": f"{wins}/{len(par)}",
                "relative_worsening": round(worse, 4),
                "bound": m.get("bound"),
                "within_bound": m.get("bound") is None or worse <= m["bound"],
            }
        out[wl] = wl_out
    return out


def claim_verdict(spec: str, summary: dict, metrics: list[dict]) -> dict:
    workload, name, *ratio = spec.split(":")
    lower = next(m["better"] == "lower" for m in metrics if m["name"] == name)
    s = summary.get(workload, {}).get(name)
    if s is None:
        return {"workload": workload, "metric": name, "met": False, "why": "no complete pair"}
    pm, cm = s["parent"]["median"], s["change"]["median"]
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    wins, n = (int(x) for x in s["change_better_pairs"].split("/"))
    factor = (pm / cm if lower else cm / pm) if pm and cm else 0.0
    met = wins * 10 >= 9 * n and ((pm - cm) if lower else (cm - pm)) > iqr
    if ratio:
        met = met and factor >= float(ratio[0])
    probe = summary[workload]["host_probe_s"]
    probes = {side: {"median": q["median"], "iqr": q["q3"] - q["q1"]} for side, q in probe.items()}
    drift = abs(probes["change"]["median"] - probes["parent"]["median"]) > probes["parent"]["iqr"]
    return {"workload": workload, "metric": name, "parent_median": pm, "change_median": cm,
            "parent_iqr": iqr, "factor": round(factor, 4), "min_factor": float(ratio[0]) if ratio else None,
            "change_better_pairs": s["change_better_pairs"], "met": met,
            "host_probe_s": probes, "probe_drift": drift}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("3-12"))
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--claim", action="append", default=[])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent != change and (parent.parent != change.parent
                             or len(parent.name) != len(change.name)):
        p.error("parent and change must be sibling directories with names of one length")
    for tree in (parent, change):
        if not (tree / "opbench" / "run.py").is_file():
            p.error(f"no opbench/run.py under {tree}")
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    for spec in args.claim:
        workload, name = spec.split(":")[:2]
        if workload not in args.workloads or name not in {m["name"] for m in metrics}:
            p.error(f"--claim {spec}: the workload must be run and the metric end-to-end")

    runs = []
    for wl in args.workloads:
        for i, seed in enumerate(args.seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for order, side in enumerate(sides):
                start = time.strftime("%H:%M:%S")
                res = run_once(parent if side == "parent" else change, wl, seed, args.seconds)
                runs.append({"workload": wl, "seed": seed, "pair": i, "order": order,
                             "side": side, "started": start, **res})
                shown = res.get("metrics", {}).get("ops_per_s", res.get("error"))
                print(f"{wl} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)

    summary = summarize(runs, metrics)
    record = {
        "command": " ".join([Path(sys.argv[0]).name] + (argv if argv is not None else sys.argv[1:])),
        "python": sys.version.split()[0],
        "claims": [claim_verdict(c, summary, metrics) for c in args.claim],
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, s in summary.items():
        print(wl, {name: (v["parent"]["median"], v["change"]["median"], v["change_better_pairs"])
                   for name, v in s.items() if name != "host_probe_s"})
    for c in record["claims"]:
        print("claim", c)
    bad = [r for r in runs if not r.get("correct") or r.get("failed")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
