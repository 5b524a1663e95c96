"""Q-learning agent: replay buffer, exploration, and the training loop.

Training runs episode by episode. Each episode plays a freshly generated
commit trace with epsilon-greedy actions, stores every transition, and then
performs one minibatch update per collected step. A frozen copy of the
network provides bootstrap targets and is re-synced every few episodes.
Everything is deterministic given the training seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commits import generate_trace
from .config import EnvConfig, TrainConfig, derive_seed
from .environment import Action, N_ACTIONS, PipelineEnv, STATE_DIM
from .network import AdamState, QNetwork, adam_update, mlp_forward, mlp_init, td_loss_and_grads

__all__ = [
    "Transition",
    "ReplayBuffer",
    "select_action",
    "greedy_action",
    "epsilon_schedule",
    "EpisodeRecord",
    "TrainingLog",
    "train_agent",
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
    """One step of experience: (state, action, reward, next state, done)."""

    state: np.ndarray
    action: Action
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions.

    Backed by preallocated column arrays so minibatch assembly is a single
    fancy-indexing operation. Once full, every push overwrites the oldest
    entry.
    """

    def __init__(self, capacity: int, state_dim: int = STATE_DIM):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros(capacity, dtype=np.intp)
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._dones = np.zeros(capacity)
        self._head = 0  # next write slot
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        i = self._head
        self._states[i] = transition.state
        self._actions[i] = int(transition.action)
        self._rewards[i] = transition.reward
        self._next_states[i] = transition.next_state
        self._dones[i] = float(transition.done)
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
            self._states[slots],
            self._actions[slots],
            self._rewards[slots],
            self._next_states[slots],
            self._dones[slots],
        )


def greedy_action(net: QNetwork, state: np.ndarray) -> Action:
    """Argmax-Q action; ties break toward the more thorough (lower) action."""
    return Action(int(np.argmax(mlp_forward(net, state))))


def select_action(
    net: QNetwork, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> Action:
    """Epsilon-greedy action: uniform with probability ``epsilon``, else greedy."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        return Action(int(rng.integers(N_ACTIONS)))
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
) -> float:
    """One Adam step on the minibatch TD loss; returns the pre-update loss.

    Only ``net`` moves; the target network stays frozen.
    """
    loss, grad = td_loss_and_grads(net, target_net, *arrays, discount=discount)
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
    Bit-reproducible for a fixed ``cfg.seed``.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_EXPLORE))
    net = mlp_init(cfg.hidden_sizes, seed=derive_seed(cfg.seed, _STREAM_NET))
    target_net = net if cfg.target_sync_interval == 0 else net.clone()
    adam = AdamState.for_params(net.flat)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    records: list[EpisodeRecord] = []

    for episode in range(cfg.episodes):
        epsilon = epsilon_schedule(episode, cfg)
        trace = generate_trace(
            env_cfg, env_cfg.commits_per_episode, seed=derive_seed(cfg.seed, _STREAM_TRACE, episode)
        )
        env = PipelineEnv(trace, env_cfg, seed=derive_seed(cfg.seed, _STREAM_ENV, episode))
        state = env.reset()

        total_reward = 0.0
        counts = [0, 0, 0]
        steps = 0
        done = False
        while not done:
            action = select_action(net, state, epsilon, rng)
            outcome, next_state, done = env.step(action, cfg.escape_penalty)
            buffer.push(Transition(state, action, outcome.reward, next_state, done))
            total_reward += outcome.reward
            counts[action] += 1
            steps += 1
            state = next_state

        losses = []
        if len(buffer) >= cfg.minibatch_size:
            for _ in range(steps):
                arrays = buffer.sample_batch(cfg.minibatch_size, rng)
                losses.append(
                    _train_step_arrays(net, target_net, arrays, cfg.discount, adam, cfg.learning_rate)
                )
        if cfg.target_sync_interval and (episode + 1) % cfg.target_sync_interval == 0:
            target_net = net.clone()

        records.append(
            EpisodeRecord(
                episode=episode,
                total_reward=total_reward,
                epsilon=epsilon,
                mean_td_loss=float(np.mean(losses)) if losses else 0.0,
                action_counts=(counts[0], counts[1], counts[2]),
            )
        )

    return net, TrainingLog(records)


class GreedyPolicy:
    """Deployment-mode policy: pure argmax over the trained Q-network."""

    def __init__(self, net: QNetwork):
        self.net = net

    def __call__(self, state: np.ndarray, commit) -> Action:
        return greedy_action(self.net, state)
