"""Run the benchmark on several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median) next to
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload forest3-l0 --seeds 1 10 --seconds 36

Runs are made one after another, each in its own process.  ``--json``
writes the summary to a file as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect result {result}")
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                   metavar=("FIRST", "LAST"))
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = [run_once(args.workload, seed, args.seconds, args.trace)
               for seed in range(args.seeds[0], args.seeds[1] + 1)]
    summary = summarize(results, bounds)
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:28s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} "
              f"bound {s['bound']}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": list(args.seeds),
             "seconds": args.seconds, "trace": args.trace,
             "metrics": summary,
             "runs": [r["info"] for r in results]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
