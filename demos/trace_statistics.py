"""
Synthetic commit traces
=======================

Generates a standard trace and an adversarial trace, then summarizes what
the pipeline will see: how often commits carry bugs, how commit sizes differ
between the two modes, and how the generator's internal risk score lines up
with the hidden bug flags.
"""

import numpy as np

from testscope import EnvConfig, generate_trace, trace_records

cfg = EnvConfig()

standard = generate_trace(cfg, 5000, seed=42)
adversarial = generate_trace(cfg, 5000, seed=42, mode="adversarial")

print("standard trace")
print(f"  commits:        {len(standard)}")
print(f"  bug rate:       {standard.has_bug.mean():.3f}"
      f"  (configured {cfg.bug_probability})")
print(f"  median diff:    {int(np.median(standard.diff_size))} lines")
print(f"  mean files:     {standard.files_changed.mean():.1f}")

gen = cfg.generator
period = gen.streak_length + gen.burst_length
streak = np.arange(len(adversarial)) % period < gen.streak_length
hidden = streak & adversarial.has_bug
# the generator's risk scores come with the full commit records
adversarial_risk = np.array([c.risk_score for c in trace_records(adversarial, cfg)])

print("\nadversarial trace (streaks of small diffs, bursts of large ones)")
print(f"  streak commits: {streak.sum()}, mean diff {adversarial.diff_size[streak].mean():.0f}")
print(f"  burst commits:  {(~streak).sum()}, mean diff {adversarial.diff_size[~streak].mean():.0f}")
print(f"  bugs hidden in small diffs: {hidden.sum()} "
      f"(median risk score {np.median(adversarial_risk[hidden]):.3f} — "
      "marked low-risk on purpose)")

print("\nrisk score vs reality (standard trace)")
risk = np.array([c.risk_score for c in trace_records(standard, cfg)])
bugs = standard.has_bug
for lo, hi in [(0.0, 0.05), (0.05, 0.15), (0.15, 0.3), (0.3, 0.5), (0.5, 1.0)]:
    mask = (risk >= lo) & (risk < hi)
    if not mask.any():
        continue
    bar = "#" * int(60 * mask.mean())
    print(f"  [{lo:4.2f}, {hi:4.2f})  n={mask.sum():5d}  "
          f"actual bug rate {bugs[mask].mean():5.3f}  {bar}")
