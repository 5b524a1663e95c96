"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics (set-up
time, wall time per repetition, commits per second, peak RSS); with
``--trace 1`` it carries the per-layer metrics of a traced run. Run from a
checkout that holds ``src/testscope``; the package is imported from there.
See README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: the workloads' matrices are too small for
# OpenBLAS to use a second thread, so one thread changes no result and
# removes a source of run-to-run variation.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import machine
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 10  # fresh processes timed per run for setup_s
MIN_REPS = 3  # repetitions run even when they overrun --seconds


@dataclass
class Rep:
    index: int
    traced: bool
    wall_s: float
    probe_s: float  # mean speed-probe time just before and just after
    digest: str
    problems: list


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "evaluate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package() -> None:
    """Import testscope from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "testscope" / "__init__.py").is_file():
        raise SystemExit(f"error: no testscope sources under {src}")
    sys.path.insert(0, str(src))
    import testscope

    if Path(testscope.__file__).resolve().parent != (src / "testscope").resolve():
        raise SystemExit(f"error: imported testscope from {testscope.__file__}, not {src}")


def _setup_time(args: argparse.Namespace) -> float:
    """Spawn-to-exit time of a fresh process that only imports and sets up."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return elapsed


def _run_reps(job, args, workdir: Path, tracer) -> tuple[list[Rep], list[float], list[float]]:
    """Repeat the job until ``--seconds`` are spent.

    Untraced runs also time ``SETUP_RUNS`` set-up processes, spread evenly
    over the run so that they meet the same mix of machine states as the
    repetitions. With a tracer, every second repetition is traced and the
    others give the untraced reference. Returns the repetitions, the set-up
    times and the speed-probe times around each set-up.
    """
    reps: list[Rep] = []
    setup_times: list[float] = []
    setup_probes: list[float] = []
    setups = 0 if tracer else SETUP_RUNS
    min_reps = MIN_REPS + (MIN_REPS if tracer else 0)
    begin = time.perf_counter()
    before = machine.speed_probe()

    def time_setup() -> None:
        nonlocal before
        setup_times.append(_setup_time(args))
        after = machine.speed_probe(machine.probe_repeats(setup_times[-1]))
        setup_probes.append((before + after) / 2.0)
        before = after

    while True:
        if len(setup_times) < setups and (
            time.perf_counter() >= begin + len(setup_times) * args.seconds / setups
        ):
            time_setup()
            continue
        index = len(reps) + 1
        traced = tracer is not None and index % 2 == 0
        scratch = workdir / f"rep{index}"
        scratch.mkdir()
        if traced:
            tracer.rep = index
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = job.run(scratch)
            digest, problems = outcome.digest, outcome.problems
        except Exception:
            digest, problems = "", [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        shutil.rmtree(scratch)
        after = machine.speed_probe(machine.probe_repeats(elapsed))
        reps.append(Rep(index, traced, elapsed, (before + after) / 2.0, digest, problems))
        before = after
        if len(reps) >= min_reps and time.perf_counter() + elapsed > begin + args.seconds:
            break
    while len(setup_times) < setups:  # repetitions longer than the spacing
        time_setup()
    return reps, setup_times, setup_probes


def _judge(reps: list[Rep]) -> tuple[int, str]:
    """Mark digests that differ from the first one; returns the failure count
    and that digest."""
    first = next((r.digest for r in reps if r.digest), "")
    failed = 0
    for rep in reps:
        if rep.digest != first and not rep.problems:
            rep.problems.append(f"digest {rep.digest} differs from {first}")
        if rep.problems:
            failed += 1
            print(f"repetition {rep.index} failed: {'; '.join(rep.problems)}", file=sys.stderr)
    return failed, first


def _reference_digest(workload: str, seed: int, digest: str) -> str:
    path = HERE / "reference_digests.json"
    recorded = json.loads(path.read_text())["digests"][workload].get(str(seed))
    if recorded is None:
        return f"no reference digest recorded for seed {seed}"
    return "matches the reference digest" if recorded == digest else (
        f"DIFFERS from the reference digest {recorded}"
    )


def _write_spans(path: Path, recorded: list[spans.Span]) -> None:
    with gzip.open(path, "wt") as out:
        out.write("id,rep,parent,name,start_ns,end_ns\n")
        for i, s in enumerate(recorded):
            out.write(f"{i},{s.rep},{s.parent},{s.name},{s.start_ns},{s.end_ns}\n")


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    import layers
    import workloads

    record = machine.machine_record(ROOT)
    print("machine: " + json.dumps(record, sort_keys=True))

    tracer = counters = None
    if args.trace:
        tracer = spans.Tracer()
        counters = layers.Counters(tracer)
        tracer.install()
    try:
        job = workloads.set_up(args.workload, args.seed, workdir)
    finally:
        if tracer:
            tracer.uninstall()

    reps, setup_times, setup_probes = _run_reps(job, args, workdir, tracer)
    failed, digest = _judge(reps)
    print(f"digest {digest}: {_reference_digest(args.workload, args.seed, digest)}")

    plain = [r for r in reps if not r.traced]
    wall_s = machine.at_reference_speed([r.wall_s for r in plain], [r.probe_s for r in plain])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": record,
        "commits_per_rep": job.commits,
        "td_updates_per_rep": job.td_updates,
        "setup_times_s": setup_times,
        "setup_probes_s": setup_probes,
        "reps": [asdict(r) for r in reps],
        "attempted": len(reps),
        "failed": failed,
        "failed_frac": failed / len(reps),
    }
    if not args.trace:
        metrics = {
            "setup_s": (machine.at_reference_speed(setup_times, setup_probes), "s"),
            "wall_s": (wall_s, "s"),
            "commits_per_s": (job.commits / wall_s, "commits/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        print(
            f"{args.workload}: {len(plain)} repetitions, median wall "
            f"{statistics.median(r.wall_s for r in plain):.4f} s and set-up "
            f"{statistics.median(setup_times):.4f} s as measured; failed_frac {failed}/{len(reps)}"
        )
    else:
        traced = [r for r in reps if r.traced]
        traced_wall = machine.at_reference_speed([r.wall_s for r in traced], [r.probe_s for r in traced])
        overhead = (traced_wall / wall_s - 1.0) * 100.0
        per_layer = layers.layer_metrics(tracer.spans, [r.index for r in traced], counters, overhead)
        errors = layers.check_counts(
            per_layer, job.commits, job.td_updates, exact=args.workload != "sweep"
        )
        if errors:
            raise SystemExit("benchmark count check failed:\n" + "\n".join(errors))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in per_layer.items()}
        result["shares"] = layers.busy_shares(tracer.spans, {r.index: r.wall_s for r in traced})
        for line in layers.structure_report(args.workload, result["shares"]):
            print("structure: " + line)
        _write_spans(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz", tracer.spans)

    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_package()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        if args.setup_only:
            import workloads

            workloads.set_up(args.workload, args.seed, workdir)
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
