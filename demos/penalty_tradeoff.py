"""
The speed-vs-safety dial
========================

The escape penalty weight prices an undetected bug relative to test minutes.
This demo trains one reduced agent per penalty value (all in lockstep, as
``penalty_sweep`` does) and prints the resulting trade-off curve: higher penalties buy a lower defect miss rate by spending
more test time.

The reduced episode count (150) keeps this quick; trends are noisier than at
the default 2000 episodes, and with minute-scale test costs the agent only
starts preferring tests once the penalty dwarfs the 10-minute full suite.
"""

from testscope import EnvConfig, TrainConfig, penalty_sweep

penalties = (1.0, 10.0, 100.0, 1000.0)

print(f"training one agent per penalty in {penalties} (150 episodes each)...")
sweep = penalty_sweep(
    EnvConfig(),
    TrainConfig(episodes=150, seed=0),
    penalties=penalties,
    n_runs=5,
    eval_seed=1000,
)

print(f"\n{'penalty':>8} {'tp (commits/h)':>15} {'dmr %':>8} {'tts %':>8} {'tp vs static':>14}")
for entry in sweep.entries:
    r = entry.comparison.reports["rl"]
    delta = entry.comparison.deltas["rl"].tp_improvement_pct
    print(
        f"{entry.escape_penalty:>8.0f} {r.tp.mean:>15.2f} {r.dmr.mean:>8.1f} "
        f"{r.tts.mean:>8.1f} {delta:>+13.1f}%"
    )

print("\nreading the table: moving down the rows, the miss rate should fall")
print("while test-time savings (and the throughput edge) shrink.")
