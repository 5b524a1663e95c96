"""Q-learning agent: replay buffer, exploration, and the training loop.

Training runs episode by episode. Each episode plays a freshly generated
commit trace with epsilon-greedy actions, stores every transition, and then
performs one minibatch update per collected step. A frozen copy of the
network provides bootstrap targets and is re-synced every few episodes; the
replay buffer keeps each transition's TD target from one sync to the next,
so an update neither runs a target forward pass nor recomputes a target.
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

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .commits import generate_trace
from .config import (
    EnvConfig, TrainConfig, derive_seed, validate_env, validate_penalties, validate_train
)
from .environment import Action, N_ACTIONS, PipelineEnv, STATE_DIM, episode_stats, step_envs
from .network import (
    AdamState,
    QNetwork,
    _Scratch,
    adam_update,
    bootstrap_values,
    mlp_forward,
    mlp_init,
    td_loss_and_grads,
)

__all__ = [
    "ReplayBuffer",
    "select_action",
    "greedy_action",
    "epsilon_schedule",
    "EpisodeRecord",
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

_ACTIONS = tuple(Action)  # indexed by action value


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions and their TD targets.

    Backed by preallocated column arrays so minibatch assembly is one take
    per column. Once full, every push overwrites the oldest entry. With
    ``stack=(K,)`` every column gains a leading agent axis: each push stores
    one transition per agent and each sample draws the same slots for all of
    them.

    Besides the transition, each slot keeps its TD target
    ``r + discount * v * (1 - done)``, with ``v`` the frozen target network's
    ``bootstrap_values`` of its next state, which stays valid until the
    target network changes. A push and ``mark_stale`` (called at every
    target sync) leave slots stale; ``refill`` recomputes the stale ones, and
    ``sample_batch`` refuses to sample while any slot is stale.
    """

    def __init__(self, capacity: int, stack: tuple[int, ...] = ()):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._states = np.zeros((*stack, capacity, STATE_DIM))
        self._actions = np.zeros((*stack, capacity), dtype=np.intp)
        self._rewards = np.zeros((*stack, capacity))
        self._next_states = np.zeros((*stack, capacity, STATE_DIM))
        self._dones = np.zeros((*stack, capacity))
        self._targets = np.zeros((*stack, capacity))
        self._stale = np.zeros(capacity, dtype=bool)  # shared by every agent
        self._any_stale = False
        self._head = 0  # next write slot
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: np.ndarray, action, reward, next_state: np.ndarray, done: bool) -> None:
        """Store one transition; for a stack, each column but ``done`` holds
        one entry per agent along a leading axis."""
        i = self._head
        self._states[..., i, :] = state
        self._actions[..., i] = action
        self._rewards[..., i] = reward
        self._next_states[..., i, :] = next_state
        self._dones[..., i] = float(done)
        self._stale[i] = self._any_stale = True
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def mark_stale(self) -> None:
        """Mark every stored TD target stale (the target network changed)."""
        self._stale[: self._size] = self._any_stale = True

    def refill(self, target_net: QNetwork, chunk: int, discount: float) -> None:
        """Recompute the stale slots' TD targets with ``target_net``.

        The stale slots go through ``bootstrap_values`` in calls of exactly
        ``chunk`` rows, the last one padded, so that with ``chunk`` equal to
        the minibatch size every value has the bits that a forward pass over
        a sampled minibatch would give it. Each target is then
        ``r + discount * v * (1 - done)``, evaluated elementwise in that order.
        """
        slots = np.flatnonzero(self._stale)
        padded = np.resize(slots, -(-slots.size // chunk) * chunk)
        for start in range(0, slots.size, chunk):
            rows = slots[start : start + chunk]
            next_states = self._next_states.take(padded[start : start + chunk], axis=-2)
            values = bootstrap_values(target_net, next_states)[..., : rows.size]
            not_done = 1.0 - self._dones[..., rows]
            self._targets[..., rows] = self._rewards[..., rows] + discount * values * not_done
        self._stale[slots] = self._any_stale = False

    def sample_batch(
        self, k: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``k`` transitions drawn uniformly without replacement, as stacked
        ``(targets, states, actions)`` column arrays, the arguments that
        ``td_loss_and_grads`` takes after the network."""
        if k < 0:
            raise ValueError(f"sample size must be >= 0, got {k}")
        if k > self._size:
            raise ValueError(f"cannot sample {k} transitions from a buffer of {self._size}")
        if self._any_stale:
            raise RuntimeError("the buffer holds stale TD targets; refill it first")
        slots = rng.choice(self._size, size=k, replace=False)
        return (
            self._targets.take(slots, axis=-1),
            self._states.take(slots, axis=-2),
            self._actions.take(slots, axis=-1),
        )


def greedy_action(net: QNetwork, state: np.ndarray) -> Action | np.ndarray:
    """Argmax-Q action; ties break toward the more thorough (lower) action.

    A stack of networks takes one state per agent and returns one action
    index per agent.
    """
    q = mlp_forward(net, state)
    if net.stack:
        return np.argmax(q, axis=-1)
    return _ACTIONS[q.argmax()]


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
        action = _ACTIONS[rng.integers(N_ACTIONS)]
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


@dataclass
class EpisodeRecord:
    """Per-episode training statistics."""

    episode: int
    total_reward: float
    epsilon: float
    mean_td_loss: float
    action_counts: tuple[int, int, int]


def train_agent(env_cfg: EnvConfig, cfg: TrainConfig) -> tuple[QNetwork, list[EpisodeRecord]]:
    """Train a Q-network over seeded episodes; returns the net and its
    training log, one record per episode.

    Per episode: play one fresh trace with the scheduled epsilon, then run one
    minibatch update per collected step (once the buffer can fill a batch).
    The target network hard-syncs every ``target_sync_interval`` episodes.
    Bit-reproducible for a fixed ``cfg.seed``. The single-agent case of
    :func:`train_agents`.
    """
    ((net, log),) = train_agents(env_cfg, cfg, (cfg.escape_penalty,))
    return net, log


def train_agents(
    env_cfg: EnvConfig, cfg: TrainConfig, penalties: Iterable[float]
) -> list[tuple[QNetwork, list[EpisodeRecord]]]:
    """Train one agent per escape penalty in lockstep; ``cfg.escape_penalty`` is unused.

    Returns one ``(net, log)`` per penalty, in order, each bit-identical to
    ``train_agent`` at that penalty. Several penalties train as one
    ``(K, P)`` stack of networks that steps K environments over the same
    traces, shares one exploration stream and one replay buffer with a
    leading agent axis, and makes one ``td_loss_and_grads`` and one
    ``adam_update`` call per update. A single penalty trains the plain
    ``(P,)`` network. Penalties must be finite and >= 0, and both configs
    must pass their section checks (``ConfigError`` names the bad key). An
    episode whose mean TD loss is not finite stops the run with a
    :class:`ValueError` that names it.
    """
    validate_env(env_cfg)
    validate_train(cfg)
    penalties = validate_penalties(penalties)
    if not penalties:
        raise ValueError("need at least one escape penalty")
    stack = (len(penalties),) if len(penalties) > 1 else ()

    rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_EXPLORE))
    net = mlp_init(cfg.hidden_sizes, seed=derive_seed(cfg.seed, _STREAM_NET))
    if stack:
        net = net.stacked(len(penalties))
    target_net = net.clone()
    adam = AdamState.for_params(net.flat)
    scratch = _Scratch()
    # the run pushes one transition per commit; a buffer that never fills
    # never evicts, so capping it there changes no sample
    capacity = min(cfg.buffer_capacity, cfg.episodes * env_cfg.commits_per_episode)
    buffer = ReplayBuffer(capacity, stack=stack)
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
        envs = PipelineEnv(trace, env_cfg, penalties[0], seed=env_seed).replicas(penalties)
        state = joined([env.state for env in envs])

        for _ in range(len(trace)):
            action = select_action(net, state, epsilon, rng)
            rewards, done = step_envs(envs, action.tolist() if stack else [action])
            next_state = joined([env.state for env in envs])
            buffer.push(state, action, joined(rewards), next_state, done)
            state = next_state

        losses = []
        if len(buffer) >= cfg.minibatch_size:
            buffer.refill(target_net, cfg.minibatch_size, cfg.discount)
            for _ in range(len(trace)):  # one update per collected step
                batch = buffer.sample_batch(cfg.minibatch_size, rng)
                loss, grad = td_loss_and_grads(net, *batch, scratch)
                adam_update(net.flat, grad, adam, cfg.learning_rate)
                losses.append(loss)
        if (episode + 1) % cfg.target_sync_interval == 0:
            target_net = net.clone()
            buffer.mark_stale()

        # each agent's losses are averaged along their own contiguous row, as
        # training that agent alone averages them
        mean_losses = np.mean(np.stack(losses, axis=-1), axis=-1) if losses else np.zeros(stack)
        if not np.isfinite(mean_losses).all():
            raise ValueError(
                f"training diverged: mean TD loss {mean_losses.tolist()} in episode {episode} "
                f"(escape penalties {list(penalties)})"
            )
        for agent_records, stats, mean_loss in zip(
            records, episode_stats(envs), mean_losses.reshape(-1)
        ):
            agent_records.append(
                EpisodeRecord(
                    episode=episode,
                    total_reward=stats.total_reward,
                    epsilon=epsilon,
                    mean_td_loss=float(mean_loss),
                    action_counts=stats.action_counts,
                )
            )

    nets = net.unstack() if stack else [net]
    return list(zip(nets, records))


class GreedyPolicy:
    """Deployment-mode policy: the trained Q-network's argmax action for each state.

    Takes a ``(B, 10)`` float64 array, one state per run played in lockstep,
    and returns B action indices; ties break toward the more thorough (lower)
    action. The states go through the network as a ``(B, 1, 10)`` batch of
    one-state batches, one forward for all B, so each run gets the action that
    :func:`greedy_action` gives for its state alone.
    """

    def __init__(self, net: QNetwork):
        self.net = net

    def __call__(self, states: np.ndarray) -> list[int]:
        return mlp_forward(self.net, states[:, None]).argmax(-1).ravel().tolist()
