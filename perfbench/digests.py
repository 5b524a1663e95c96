"""Record the output digest of each workload for a range of seeds.

    python3 perfbench/digests.py --seeds 0-31

Runs one repetition per workload and seed and writes the digests, with the
commit they were taken at, to ``reference_digests.json``. ``run.py`` prints
whether each run matches them. A change that moves seeded outputs on purpose
says so in its description; the file is not rewritten to hide a change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import machine  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    digests: dict[str, dict[str, str]] = {name: {} for name in workloads.WORKLOADS}
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=HERE))
    try:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                seed_dir = work / f"{name}-{seed}"
                seed_dir.mkdir()
                outcome = workloads.set_up(name, seed, seed_dir).run(seed_dir)
                if outcome.problems:
                    raise SystemExit(f"{name} seed {seed}: {outcome.problems}")
                digests[name][str(seed)] = outcome.digest
                print(f"{name} {seed} {outcome.digest}", flush=True)
    finally:
        shutil.rmtree(work)
    document = {"git_commit": machine.git_commit(HERE.parent), "digests": digests}
    (HERE / "reference_digests.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
