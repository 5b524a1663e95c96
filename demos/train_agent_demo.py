"""
Training the test-scope agent
=============================

Trains a small Q-learning agent (200 episodes here instead of the default
2000, to stay quick), inspects the training log, evaluates the greedy policy
against the static baseline, and round-trips the weights through a policy
file.

Raw episode rewards mix in the cost of exploration, so convergence is read
from the exploration-corrected curve: the greedy reward each episode implies
once the uniform-random share of its actions is taken out. 200 episodes are
too short for that curve to settle.

With the default minute-scale reward, an escaped bug costs about as much as
half of one full test run, so the agent learns that skipping is almost always
the reward-optimal move. Raise ``escape_penalty`` to shift it toward testing
(see ``penalty_tradeoff.py``).
"""

import tempfile
from pathlib import Path

import numpy as np

from testscope import (
    EnvConfig,
    GreedyPolicy,
    TrainConfig,
    compare_policies,
    convergence_stats,
    exploration_corrected_curve,
    load_policy,
    save_policy,
    train_agent,
    uniform_policy_reward,
)

env_cfg = EnvConfig()
train_cfg = TrainConfig(episodes=200, escape_penalty=5.0, seed=0)

print(f"training for {train_cfg.episodes} episodes "
      f"(escape penalty {train_cfg.escape_penalty})...")
net, log = train_agent(env_cfg, train_cfg)

print("\nlast five training episodes:")
print(f"{'ep':>4} {'reward':>10} {'epsilon':>8} {'td loss':>10}  actions (full/partial/skip)")
for r in log[-5:]:
    counts = "/".join(str(c) for c in r.action_counts)
    print(f"{r.episode:>4} {r.total_reward:>10.1f} {r.epsilon:>8.3f} {r.mean_td_loss:>10.4f}  {counts}")

window = 50
episodes, curve = exploration_corrected_curve(
    log, uniform_policy_reward(env_cfg, train_cfg.escape_penalty), window=window
)
conv = convergence_stats(curve, window=window)
print(f"\nexploration-corrected greedy reward, mean of the last {window} episodes: "
      f"{curve[-1]:.1f}")
if conv.converged_episode is None:
    print(f"not converged (3% criterion over {window} curve points): "
          f"{train_cfg.episodes} episodes are too short a run")
else:
    print(f"converged at training episode {episodes[conv.converged_episode - 1]}")

report, stats = compare_policies(
    {"rl": GreedyPolicy(net)}, env_cfg, escape_penalty=5.0, n_runs=5, base_seed=1000
)
r = report.reports["rl"]
counts = np.sum([s.action_counts for s in stats["rl"]], axis=0)
print("\ngreedy evaluation over 5 runs x 100 commits:")
print(f"  action mix full/partial/skip: {counts[0]}/{counts[1]}/{counts[2]}")
print(f"  throughput {r.tp.mean:.2f} commits/h "
      f"({report.deltas['rl'].tp_improvement_pct:+.0f}% vs static)")
print(f"  test-time savings {r.tts.mean:.1f}%, miss rate {r.dmr.mean:.1f}%")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "agent.json"
    save_policy(path, net, train_cfg)
    reloaded = load_policy(path)
    identical = all(np.array_equal(a, b) for a, b in zip(net.params, reloaded.params))
    print(f"\nweight file round trip bit-exact: {identical}")
