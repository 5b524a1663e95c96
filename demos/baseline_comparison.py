"""
Baseline policies head to head
==============================

Runs the three fixed policies on identical seeded traces and prints the
metric table: throughput (commits/hour), defect miss rate, test-time savings,
and core-minutes saved, each as mean +/- std over five runs.

The static baseline catches everything but pays full test time on every
commit. The diff heuristic saves a little time and leaks a little. The risk
classifier trades more aggressively.
"""

from testscope import (
    ClassifierPolicy,
    EnvConfig,
    HeuristicPolicy,
    StaticPolicy,
    compare_policies,
    make_classifier,
)

cfg = EnvConfig()

print("training the risk classifier on 5000 labeled historical commits...")
model = make_classifier(cfg)

policies = {
    "static": StaticPolicy(),
    "heuristic": HeuristicPolicy(),
    "classifier": ClassifierPolicy(model),
}

report, _ = compare_policies(policies, cfg, escape_penalty=5.0, n_runs=5, base_seed=1000)

print(f"\n{'policy':<12} {'tp (commits/h)':>16} {'dmr %':>14} {'tts %':>14} {'si (core-min)':>16}")
for name in ("static", "heuristic", "classifier"):
    r = report.reports[name]
    print(
        f"{name:<12} {r.tp.mean:8.2f} ± {r.tp.std:4.2f}"
        f" {r.dmr.mean:7.1f} ± {r.dmr.std:4.1f}"
        f" {r.tts.mean:7.1f} ± {r.tts.std:4.1f}"
        f" {r.si.mean:9.1f} ± {r.si.std:5.1f}"
    )

print("\nimprovement vs static:")
for name, delta in report.deltas.items():
    print(f"  {name:<12} throughput {delta.tp_improvement_pct:+6.1f}%   "
          f"miss rate {delta.dmr_delta_pp:+5.1f} pp")
