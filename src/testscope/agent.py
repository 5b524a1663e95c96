"""Q-learning agent: replay buffer, exploration, and the training loop.

Training runs episode by episode. Each episode plays a freshly generated
commit trace with epsilon-greedy actions, stores every transition, and then
performs one minibatch update per collected step. A frozen copy of the
network provides bootstrap targets and is re-synced every few episodes.
Everything is deterministic given the training seed.

Agents that share a seed and differ only in the escape penalty draw the same
random numbers: exploration draws do not depend on the network, replay draws
depend only on the buffer size, and detection draws do not depend on the
action. ``train_agents`` therefore trains them in lockstep as one stack of
networks (see ``network.py``), with one loop step per commit and one update
per minibatch for all of them, and gives each agent the weights and log that
training it alone would.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .commits import generate_trace
from .config import EnvConfig, TrainConfig, derive_seed
from .environment import Action, N_ACTIONS, PipelineEnv, STATE_DIM
from .network import (
    AdamState,
    QNetwork,
    _Scratch,
    adam_update,
    mlp_forward,
    mlp_init,
    td_loss_and_grads,
)

__all__ = [
    "Transition",
    "ReplayBuffer",
    "select_action",
    "greedy_action",
    "epsilon_schedule",
    "EpisodeRecord",
    "TrainingLog",
    "train_agent",
    "train_agents",
    "GreedyPolicy",
]

# sub-stream tags for seed derivation, so the independent random streams
# (exploration, network init, per-episode traces, per-episode detection)
# never collide
_STREAM_EXPLORE = 1
_STREAM_NET = 2
_STREAM_TRACE = 3
_STREAM_ENV = 4


@dataclass
class Transition:
    """One step of experience: (state, action, reward, next state, done).

    For a stack of agents, ``state``, ``action``, ``reward`` and
    ``next_state`` hold one entry per agent along a leading axis.
    """

    state: np.ndarray
    action: Action | np.ndarray
    reward: float | np.ndarray
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions.

    Backed by preallocated column arrays so minibatch assembly is one take
    per column. Once full, every push overwrites the oldest entry. With
    ``stack=(K,)`` every column gains a leading agent axis: each push stores
    one transition per agent and each sample draws the same slots for all of
    them.
    """

    def __init__(self, capacity: int, state_dim: int = STATE_DIM, stack: tuple[int, ...] = ()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._states = np.zeros((*stack, capacity, state_dim))
        self._actions = np.zeros((*stack, capacity), dtype=np.intp)
        self._rewards = np.zeros((*stack, capacity))
        self._next_states = np.zeros((*stack, capacity, state_dim))
        self._dones = np.zeros((*stack, capacity))
        self._head = 0  # next write slot
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        i = self._head
        self._states[..., i, :] = transition.state
        self._actions[..., i] = transition.action
        self._rewards[..., i] = transition.reward
        self._next_states[..., i, :] = transition.next_state
        self._dones[..., i] = float(transition.done)
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_batch(
        self, k: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``k`` transitions drawn uniformly without replacement, as stacked
        ``(states, actions, rewards, next_states, dones)`` column arrays."""
        if k < 0:
            raise ValueError(f"sample size must be >= 0, got {k}")
        if k > self._size:
            raise ValueError(f"cannot sample {k} transitions from a buffer of {self._size}")
        slots = rng.choice(self._size, size=k, replace=False)
        return (
            self._states.take(slots, axis=-2),
            self._actions.take(slots, axis=-1),
            self._rewards.take(slots, axis=-1),
            self._next_states.take(slots, axis=-2),
            self._dones.take(slots, axis=-1),
        )


def greedy_action(net: QNetwork, state: np.ndarray) -> Action | np.ndarray:
    """Argmax-Q action; ties break toward the more thorough (lower) action.

    A stack of networks takes one state per agent and returns one action
    index per agent.
    """
    q = mlp_forward(net, state)
    if net.stack:
        return np.argmax(q, axis=-1)
    return Action(int(np.argmax(q)))


def select_action(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> Action | np.ndarray:
    """Epsilon-greedy action: uniform with probability ``epsilon``, else greedy.

    A stack of networks explores together: one draw decides for every agent,
    and an exploring step gives every agent the same uniform action.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        action = Action(int(rng.integers(N_ACTIONS)))
        return np.full(net.stack, action, dtype=np.intp) if net.stack else action
    return greedy_action(net, state)


def epsilon_schedule(episode: int, cfg: TrainConfig) -> float:
    """Linear decay from ``epsilon_start`` at episode 0 to ``epsilon_end`` at the last.

    A single-episode schedule returns ``epsilon_start``.
    """
    if not 0 <= episode < cfg.episodes:
        raise ValueError(f"episode {episode} outside [0, {cfg.episodes})")
    if cfg.episodes == 1:
        return cfg.epsilon_start
    frac = episode / (cfg.episodes - 1)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


def _train_step_arrays(
    net: QNetwork,
    target_net: QNetwork,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    discount: float,
    adam: AdamState,
    lr: float,
    scratch: _Scratch | None = None,
) -> float | np.ndarray:
    """One Adam step on the minibatch TD loss; returns the pre-update loss.

    Only ``net`` moves; the target network stays frozen.
    """
    loss, grad = td_loss_and_grads(net, target_net, *arrays, discount=discount, scratch=scratch)
    adam_update(net.flat, grad, adam, lr)
    return loss


@dataclass
class EpisodeRecord:
    """Per-episode training statistics."""

    episode: int
    total_reward: float
    epsilon: float
    mean_td_loss: float
    action_counts: tuple[int, int, int]


@dataclass
class TrainingLog:
    """One record per completed training episode."""

    records: list[EpisodeRecord]

    def __len__(self) -> int:
        return len(self.records)

    def rewards(self) -> np.ndarray:
        return np.array([r.total_reward for r in self.records])


def train_agent(env_cfg: EnvConfig, cfg: TrainConfig) -> tuple[QNetwork, TrainingLog]:
    """Train a Q-network over seeded episodes; returns the net and the log.

    Per episode: play one fresh trace with the scheduled epsilon, then run one
    minibatch update per collected step (once the buffer can fill a batch).
    The target network hard-syncs every ``target_sync_interval`` episodes; an
    interval of 0 disables it and bootstraps from the live network instead.
    Bit-reproducible for a fixed ``cfg.seed``. The single-agent case of
    :func:`train_agents`.
    """
    ((net, log),) = train_agents(env_cfg, cfg, (cfg.escape_penalty,))
    return net, log


def train_agents(
    env_cfg: EnvConfig, cfg: TrainConfig, penalties: Iterable[float]
) -> list[tuple[QNetwork, TrainingLog]]:
    """Train one agent per escape penalty in lockstep; ``cfg.escape_penalty`` is unused.

    Returns one ``(net, log)`` per penalty, in order, each bit-identical to
    ``train_agent`` at that penalty. Several penalties train as one
    ``(K, P)`` stack of networks that steps K environments over the same
    traces, shares one exploration stream and one replay buffer with a
    leading agent axis, and makes one ``td_loss_and_grads`` and one
    ``adam_update`` call per update. A single penalty trains the plain
    ``(P,)`` network. Penalties must be finite and >= 0.
    """
    penalties = tuple(float(p) for p in penalties)
    if not penalties:
        raise ValueError("need at least one escape penalty")
    bad = [p for p in penalties if not (math.isfinite(p) and p >= 0.0)]
    if bad:
        raise ValueError(f"escape penalties must be finite and >= 0, got {bad}")
    stack = (len(penalties),) if len(penalties) > 1 else ()

    rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_EXPLORE))
    net = mlp_init(cfg.hidden_sizes, seed=derive_seed(cfg.seed, _STREAM_NET))
    if stack:
        net = net.stacked(len(penalties))
    target_net = net if cfg.target_sync_interval == 0 else net.clone()
    adam = AdamState.for_params(net.flat)
    scratch = _Scratch() if stack else None
    # the run pushes one transition per commit; a buffer that never fills
    # never evicts, so capping it there changes no sample (a run of 0
    # episodes still gets one slot)
    capacity = min(cfg.buffer_capacity, cfg.episodes * env_cfg.commits_per_episode)
    buffer = ReplayBuffer(max(capacity, 1), stack=stack)
    records: list[list[EpisodeRecord]] = [[] for _ in penalties]

    def joined(values: list):
        """Per-agent values as the network and buffer take them."""
        return np.array(values) if stack else values[0]

    for episode in range(cfg.episodes):
        epsilon = epsilon_schedule(episode, cfg)
        trace = generate_trace(
            env_cfg, env_cfg.commits_per_episode, seed=derive_seed(cfg.seed, _STREAM_TRACE, episode)
        )
        env_seed = derive_seed(cfg.seed, _STREAM_ENV, episode)
        envs = [PipelineEnv(trace, env_cfg, seed=env_seed) for _ in penalties]
        state = joined([env.reset() for env in envs])

        totals = [0.0] * len(penalties)
        counts = [[0] * N_ACTIONS for _ in penalties]
        steps = 0
        done = False
        while not done:
            action = select_action(net, state, epsilon, rng)
            actions = action.tolist() if stack else [action]
            next_states, rewards = [], []
            for i, (env, a, penalty) in enumerate(zip(envs, actions, penalties)):
                outcome, next_state, done = env.step(a, penalty)
                next_states.append(next_state)
                rewards.append(outcome.reward)
                totals[i] += outcome.reward
                counts[i][a] += 1
            next_state = joined(next_states)
            buffer.push(Transition(state, action, joined(rewards), next_state, done))
            steps += 1
            state = next_state

        losses = []
        if len(buffer) >= cfg.minibatch_size:
            for _ in range(steps):
                arrays = buffer.sample_batch(cfg.minibatch_size, rng)
                losses.append(
                    _train_step_arrays(
                        net, target_net, arrays, cfg.discount, adam, cfg.learning_rate, scratch
                    )
                )
        if cfg.target_sync_interval and (episode + 1) % cfg.target_sync_interval == 0:
            target_net = net.clone()

        # each agent's losses are averaged along their own contiguous row, as
        # training that agent alone averages them
        mean_losses = np.mean(np.stack(losses, axis=-1), axis=-1) if losses else np.zeros(stack)
        for i, mean_loss in enumerate(mean_losses.reshape(-1)):
            records[i].append(
                EpisodeRecord(
                    episode=episode,
                    total_reward=totals[i],
                    epsilon=epsilon,
                    mean_td_loss=float(mean_loss),
                    action_counts=(counts[i][0], counts[i][1], counts[i][2]),
                )
            )

    nets = net.unstack() if stack else [net]
    return [(n, TrainingLog(r)) for n, r in zip(nets, records)]


class GreedyPolicy:
    """Deployment-mode policy: pure argmax over the trained Q-network."""

    def __init__(self, net: QNetwork):
        self.net = net

    def __call__(self, state: np.ndarray, commit) -> Action:
        return greedy_action(self.net, state)
