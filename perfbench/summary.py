"""Run every workload and print all end-to-end metrics by name and unit.

    python3 perfbench/summary.py --seed 1 --seconds 30 --label parent [--trace]

Each workload runs in its own ``run.py`` process, one after another. The
table goes to stdout and everything, per-layer metrics too with ``--trace``,
to ``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "evaluate", "sweep")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{done.stderr}")
    for line in done.stdout.splitlines()[:-1]:
        print(f"  {workload}: {line}")
    last = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": last, "machine": record["machine"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", default="local")
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = parser.parse_args(argv)

    report = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    rows = []
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        result = plain["result"]
        entry = {
            "end_to_end": result["metrics"],
            "failed_frac": {
                "value": result["failed"] / result["attempted"],
                "unit": "ratio",
                "failed": result["failed"],
                "attempted": result["attempted"],
            },
            "correct": result["correct"],
        }
        report["machine"] = plain["machine"]
        if args.trace:
            entry["per_layer"] = _run(workload, args.seed, args.seconds, 1)["result"]["metrics"]
        report["workloads"][workload] = entry
        for name, metric in result["metrics"].items():
            rows.append((workload, name, f"{metric['value']:.6g}", metric["unit"]))
        rows.append((workload, "failed_frac", f"{result['failed']}/{result['attempted']}", "ratio"))

    print(f"{'workload':<10} {'metric':<15} {'value':>14}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<10} {name:<15} {value:>14}  {unit}")
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
