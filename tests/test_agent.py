"""Agent mechanics: replay buffer, exploration, schedules, training loop."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope import agent
from testscope.agent import (
    ReplayBuffer,
    epsilon_schedule,
    greedy_action,
    select_action,
    train_agent,
    train_agents,
)
from testscope.config import ConfigError, EnvConfig, TrainConfig
from testscope.environment import Action
from testscope.evaluation import penalty_sweep
from testscope.network import (
    AdamState,
    adam_update,
    bootstrap_values,
    mlp_forward,
    mlp_init,
    td_loss_and_grads,
)

# a power of two keeps the TD targets of the hand-made transitions exact
DISCOUNT = 0.5


def make_transition(tag: float, done: bool = False) -> tuple:
    """``(state, action, reward, next_state, done)``, as ``push`` takes them."""
    return np.full(10, tag), Action(int(tag) % 3), -tag, np.full(10, tag + 0.5), done


def made_target(tag, done=False):
    """The TD target of ``make_transition(tag, done)`` under ``first_feature_net``."""
    return -tag + DISCOUNT * (tag + 0.5) * (1.0 - np.asarray(done, dtype=float))


def first_feature_net(k: int = 0):
    """A linear network whose bootstrap value of a state is ``max(state[0], 0)``, exactly.

    With ``k`` it is a stack of ``k`` such networks.
    """
    net = mlp_init((), seed=0)
    net.flat[:] = 0.0
    net.weights[0][0, 0] = 1.0
    return net.stacked(k) if k else net


def refilled(buf: ReplayBuffer, k: int = 0) -> ReplayBuffer:
    """``buf`` with every TD target filled in by ``first_feature_net``."""
    buf.refill(first_feature_net(k), chunk=4, discount=DISCOUNT)
    return buf


def stored_rewards(buf: ReplayBuffer) -> list[float]:
    """Rewards held by the buffer, oldest first, read from its column arrays."""
    # the head slot holds the oldest entry once the buffer is full; before
    # that the head equals the size and the roll is a no-op
    return list(np.roll(buf._rewards[: len(buf)], -buf._head))


class TestReplayBuffer:
    def test_push_one(self):
        buf = ReplayBuffer(5)
        buf.push(*make_transition(1.0))
        assert len(buf) == 1

    def test_fifo_eviction(self):
        buf = ReplayBuffer(3)
        for i in range(4):
            buf.push(*make_transition(float(i)))
        assert len(buf) == 3
        assert stored_rewards(buf) == [-1.0, -2.0, -3.0]  # the first push is gone

    def test_storage_fidelity(self):
        buf = ReplayBuffer(4)
        state, action, reward, next_state, done = make_transition(2.0, done=True)
        buf.push(state, action, reward, next_state, done)
        targets, states, actions = refilled(buf).sample_batch(1, np.random.default_rng(0))
        np.testing.assert_array_equal(states[0], state)
        assert actions[0] == action
        assert targets[0] == reward  # a terminal transition's target is its reward
        np.testing.assert_array_equal(buf._next_states[0], next_state)
        assert buf._rewards[0] == reward
        assert buf._dones[0] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        rewards=st.lists(st.floats(-100, 100, allow_nan=False), min_size=0, max_size=40),
        capacity=st.integers(1, 12),
    )
    def test_contents_equal_last_capacity_pushes_in_order(self, rewards, capacity):
        buf = ReplayBuffer(capacity)
        for r in rewards:
            buf.push(*make_transition(abs(r)))
        expected = [abs(r) for r in rewards[-capacity:]]
        assert [abs(r) for r in stored_rewards(buf)] == expected

    def test_exhaustive_sample_is_permutation(self):
        buf = ReplayBuffer(8)
        for i in range(8):
            buf.push(*make_transition(float(i)))
        targets, states, _ = refilled(buf).sample_batch(8, np.random.default_rng(0))
        assert sorted(states[:, 0]) == list(range(8))
        assert sorted(targets) == sorted(made_target(np.arange(8.0)))

    def test_empty_sample(self):
        buf = ReplayBuffer(8)
        buf.push(*make_transition(1.0))
        targets, states, actions = refilled(buf).sample_batch(0, np.random.default_rng(0))
        assert states.shape == (0, 10)
        assert targets.shape == actions.shape == (0,)

    def test_oversample_rejected(self):
        buf = ReplayBuffer(8)
        buf.push(*make_transition(1.0))
        with pytest.raises(ValueError):
            buf.sample_batch(2, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        # k=1 draws over a 10-item buffer land on each item ~10% of the time
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(*make_transition(float(i)))
        refilled(buf)
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        for _ in range(10_000):
            _, states, _ = buf.sample_batch(1, rng)
            counts[int(states[0, 0])] += 1
        assert np.all(np.abs(counts / 10_000 - 0.1) <= 0.02)

    def test_stacked_buffer_samples_the_same_slots_for_every_agent(self):
        buf = ReplayBuffer(4, stack=(3,))
        for i in range(6):  # wraps around, evicting the first two pushes
            buf.push(
                np.full((3, 10), i) + np.arange(3)[:, None],
                np.array([i % 3, (i + 1) % 3, (i + 2) % 3]),
                np.array([-i, -i - 10.0, -i - 20.0]),
                np.full((3, 10), i + 0.5),
                i == 5,
            )
        targets, states, actions = refilled(buf, k=3).sample_batch(4, np.random.default_rng(1))
        assert states.shape == (3, 4, 10)
        assert targets.shape == actions.shape == (3, 4)
        pushed = states[0, :, 0]
        assert sorted(pushed) == [2.0, 3.0, 4.0, 5.0]
        np.testing.assert_array_equal(states[:, :, 0], pushed + np.arange(3)[:, None])
        np.testing.assert_array_equal(actions, (pushed + np.arange(3)[:, None]) % 3)
        rewards = -pushed - np.array([[0.0], [10.0], [20.0]])
        bootstrap = DISCOUNT * (pushed + 0.5) * (pushed != 5.0)  # the last push is terminal
        np.testing.assert_array_equal(targets, rewards + bootstrap)

    def test_sample_batch_matches_sample_layout(self):
        # every row of every column comes from one and the same pushed transition
        buf = ReplayBuffer(6)
        for i in range(6):
            buf.push(*make_transition(float(i), done=(i % 2 == 0)))
        targets, states, actions = refilled(buf).sample_batch(4, np.random.default_rng(3))
        tags = states[:, 0]
        assert len(set(tags)) == 4
        for row, tag in enumerate(tags):
            done = int(tag) % 2 == 0
            state, action, _, _, _ = make_transition(tag, done)
            np.testing.assert_array_equal(states[row], state)
            assert actions[row] == action
            assert targets[row] == made_target(tag, done)


def random_transition(rng: np.random.Generator, k: int = 0) -> tuple:
    """A random ``(state, action, reward, next_state, done)``, one entry per agent with ``k``."""
    lead = (k,) if k else ()
    return (
        rng.random((*lead, 10)),
        rng.integers(0, 3, lead) if k else Action(int(rng.integers(3))),
        rng.uniform(-10, 0, lead) if k else float(rng.uniform(-10, 0)),
        rng.random((*lead, 10)),
        bool(rng.random() < 0.1),
    )


def noisy_net(k: int = 0, seed: int = 0):
    """A (64, 64) network, or a stack of ``k`` different ones, with non-zero biases."""
    nets = [mlp_init((64, 64), seed=seed + a) for a in range(max(k, 1))]
    for n in nets:
        n.flat += np.random.default_rng(seed + 100).normal(scale=0.1, size=n.flat.size)
    if not k:
        return nets[0]
    stacked = nets[0].stacked(k)
    stacked.flat[...] = np.stack([n.flat for n in nets])
    return stacked


def assert_targets_are_td_targets(buf: ReplayBuffer, target, chunk: int, rng) -> None:
    """Each live slot's cached target equals, bit for bit,
    ``r + discount * v * (1 - done)`` with ``v`` the slot's bootstrap value as
    a random row of a random ``chunk``-row ``bootstrap_values`` call."""
    for slot in range(len(buf)):
        rows = rng.choice(len(buf), size=chunk, replace=False)
        rows[rng.integers(chunk)] = slot
        position = int(np.flatnonzero(rows == slot)[0])
        values = bootstrap_values(target, buf._next_states.take(rows, axis=-2))
        reward, done = buf._rewards[..., slot], buf._dones[..., slot]
        expected = reward + DISCOUNT * values[..., position] * (1 - done)
        assert expected.tobytes() == buf._targets[..., slot].tobytes(), slot


class TestBootstrapCache:
    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("chunk", [16, 64])
    def test_refill_matches_a_minibatch_sized_call_bit_for_bit(self, k, chunk):
        rng = np.random.default_rng(k + chunk)
        buf = ReplayBuffer(300, stack=(k,) if k else ())
        for _ in range(250):
            buf.push(*random_transition(rng, k))
        target = noisy_net(k)
        buf.refill(target, chunk, DISCOUNT)
        assert_targets_are_td_targets(buf, target, chunk, rng)

    @pytest.mark.parametrize("k", [0, 3])
    def test_cached_target_is_the_td_target_after_each_kind_of_refill(self, k):
        rng = np.random.default_rng(40 + k)
        buf = ReplayBuffer(60, stack=(k,) if k else ())
        for i in range(40):
            state, action, reward, next_state, _ = random_transition(rng, k)
            buf.push(state, action, reward, next_state, i % 5 == 0)
        first = noisy_net(k, seed=1)
        buf.refill(first, 16, DISCOUNT)  # every slot stale after its push
        assert_targets_are_td_targets(buf, first, 16, rng)
        for _ in range(10):  # ten more pushes; only their slots are stale
            buf.push(*random_transition(rng, k))
        np.testing.assert_array_equal(buf._stale[:50], [False] * 40 + [True] * 10)
        buf.refill(first, 16, DISCOUNT)
        assert_targets_are_td_targets(buf, first, 16, rng)
        second = noisy_net(k, seed=2)
        buf.mark_stale()  # a target sync
        buf.refill(second, 16, DISCOUNT)
        assert_targets_are_td_targets(buf, second, 16, rng)
        terminal = buf._dones[..., : len(buf)] == 1.0
        assert terminal.any()
        live_rewards = buf._rewards[..., : len(buf)]
        assert buf._targets[..., : len(buf)][terminal].tobytes() == live_rewards[terminal].tobytes()

    def test_refill_pads_the_last_chunk(self, monkeypatch):
        calls = []

        def recording(target_net, next_states):
            calls.append(next_states.shape)
            return bootstrap_values(target_net, next_states)

        monkeypatch.setattr(agent, "bootstrap_values", recording)
        buf = ReplayBuffer(50)
        for i in range(37):
            buf.push(*make_transition(float(i)))
        buf.refill(first_feature_net(), chunk=16, discount=DISCOUNT)
        assert calls == [(16, 10)] * 3
        np.testing.assert_array_equal(buf._targets[:37], made_target(np.arange(37.0)))
        np.testing.assert_array_equal(buf._targets[37:], 0.0)  # never pushed

    def test_pushes_after_a_refill_stay_stale_until_the_next(self):
        buf = ReplayBuffer(10)
        for i in range(4):
            buf.push(*make_transition(float(i)))
        refilled(buf)
        for i in range(4, 6):
            buf.push(*make_transition(float(i)))
        np.testing.assert_array_equal(buf._stale[:6], [False] * 4 + [True] * 2)
        np.testing.assert_array_equal(buf._targets[4:6], 0.0)
        with pytest.raises(RuntimeError, match="stale"):
            buf.sample_batch(1, np.random.default_rng(0))
        refilled(buf)
        assert not buf._stale.any()
        np.testing.assert_array_equal(buf._targets[:6], made_target(np.arange(6.0)))

    def test_eviction_overwrites_the_slot_value(self):
        buf = refilled(ReplayBuffer(3))
        for i in range(3):
            buf.push(*make_transition(float(i)))
        refilled(buf)
        buf.push(*make_transition(7.0))  # evicts slot 0
        np.testing.assert_array_equal(buf._stale, [True, False, False])
        refilled(buf)
        np.testing.assert_array_equal(buf._targets, made_target(np.array([7.0, 1.0, 2.0])))

    def test_mark_stale_marks_every_live_slot(self):
        buf = ReplayBuffer(10, stack=(2,))
        rng = np.random.default_rng(1)
        for _ in range(7):
            buf.push(*random_transition(rng, k=2))
        first, second = noisy_net(2, seed=0), noisy_net(2, seed=5)
        buf.refill(first, chunk=4, discount=0.99)
        before = buf._targets.copy()
        buf.mark_stale()
        np.testing.assert_array_equal(buf._stale, [True] * 7 + [False] * 3)
        buf.refill(second, chunk=4, discount=0.99)
        assert not buf._stale.any()
        values = bootstrap_values(second, buf._next_states[:, :7])
        not_done = 1.0 - buf._dones[:, :7]
        expected = buf._rewards[:, :7] + 0.99 * values * not_done
        np.testing.assert_allclose(buf._targets[:, :7], expected, rtol=1e-12)
        # a terminal slot's target is its reward under either target network
        changed = buf._targets[:, :7] != before[:, :7]
        np.testing.assert_array_equal(changed, not_done == 1.0)


class TestActionSelection:
    def test_pure_greedy_takes_argmax(self):
        net = mlp_init((4, 4), seed=0)
        for w in net.weights:
            w[...] = 0.0
        net.biases[2][...] = (-1.0, 5.0, 2.0)
        action = select_action(net, np.zeros(10), 0.0, np.random.default_rng(0))
        assert action == Action.PARTIAL_TESTS

    def test_tie_breaks_to_lowest_index(self):
        net = mlp_init((4, 4), seed=0)
        for w in net.weights:
            w[...] = 0.0
        net.biases[2][...] = (7.0, 7.0, 0.0)
        assert greedy_action(net, np.zeros(10)) == Action.FULL_TESTS

    def test_full_exploration_is_uniform(self):
        net = mlp_init((4, 4), seed=0)
        rng = np.random.default_rng(21)
        counts = np.zeros(3)
        state = np.zeros(10)
        for _ in range(30_000):
            counts[select_action(net, state, 1.0, rng)] += 1
        assert np.all(np.abs(counts / 30_000 - 1 / 3) <= 0.01)

    def test_stack_explores_together_and_exploits_apart(self):
        stacked = mlp_init((4, 4), seed=0).stacked(3)
        stacked.flat[...] = 0.0
        stacked.biases[2][...] = [(-1.0, 5.0, 2.0), (3.0, 0.0, 0.0), (0.0, 0.0, 9.0)]
        greedy = select_action(stacked, np.zeros((3, 10)), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(greedy, [1, 0, 2])
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            explored = select_action(stacked, np.zeros((3, 10)), 1.0, rng)
            single = select_action(mlp_init((4, 4), seed=0), np.zeros(10), 1.0, twin)
            np.testing.assert_array_equal(explored, [single] * 3)

    def test_invalid_epsilon_rejected(self):
        net = mlp_init((4, 4), seed=0)
        with pytest.raises(ValueError):
            select_action(net, np.zeros(10), 1.5, np.random.default_rng(0))


class TestEpsilonSchedule:
    def test_starts_at_one(self):
        assert epsilon_schedule(0, TrainConfig()) == 1.0

    def test_ends_at_floor(self):
        cfg = TrainConfig()
        assert epsilon_schedule(cfg.episodes - 1, cfg) == pytest.approx(0.1)

    def test_midpoint_value(self):
        cfg = TrainConfig(episodes=2000)
        assert epsilon_schedule(1000, cfg) == pytest.approx(0.5498, abs=1e-3)

    def test_monotone_nonincreasing(self):
        cfg = TrainConfig(episodes=250)
        values = [epsilon_schedule(e, cfg) for e in range(cfg.episodes)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        cfg = TrainConfig(episodes=10)
        for episode in (-1, 10, 11):
            with pytest.raises(ValueError):
                epsilon_schedule(episode, cfg)

    def test_single_episode_schedule(self):
        assert epsilon_schedule(0, TrainConfig(episodes=1)) == 1.0


def column_batch(n: int) -> tuple[np.ndarray, ...]:
    buf = ReplayBuffer(4)
    for i in range(4):
        buf.push(*make_transition(float(i)))
    return refilled(buf).sample_batch(n, np.random.default_rng(0))


def train_step(net, batch: tuple[np.ndarray, ...]) -> None:
    """One Adam step on the TD loss of a ``sample_batch`` minibatch, as training makes it."""
    _, grad = td_loss_and_grads(net, *batch)
    adam_update(net.flat, grad, AdamState.for_params(net.flat), 1e-3)


class TestTdTrainStep:
    def test_empty_batch_rejected(self):
        net = mlp_init((4, 4), seed=0)
        empty = column_batch(0)
        with pytest.raises(ValueError, match="non-empty"):
            train_step(net, empty)

    def test_updates_only_online_network(self):
        net = mlp_init((4, 4), seed=0)
        batch = column_batch(4)
        batch_before = [column.copy() for column in batch]
        net_before = net.flat.copy()
        train_step(net, batch)
        assert not np.array_equal(net_before, net.flat)
        for column, before in zip(batch, batch_before):
            np.testing.assert_array_equal(column, before)


def tiny_train_cfg(**kwargs) -> TrainConfig:
    defaults = dict(
        episodes=3,
        buffer_capacity=200,
        minibatch_size=16,
        hidden_sizes=(8, 8),
        learning_rate=1e-3,
        seed=5,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def tiny_env_cfg() -> EnvConfig:
    return dataclasses.replace(EnvConfig(), commits_per_episode=20)


class TestTrainAgent:
    def test_single_episode_single_record(self):
        _, log = train_agent(tiny_env_cfg(), tiny_train_cfg(episodes=1))
        assert len(log) == 1
        assert log.records[0].episode == 0

    def test_log_structure(self):
        env = tiny_env_cfg()
        _, log = train_agent(env, tiny_train_cfg())
        for i, record in enumerate(log.records):
            assert record.episode == i
            assert sum(record.action_counts) == env.commits_per_episode
            assert np.isfinite(record.total_reward)
            assert np.isfinite(record.mean_td_loss)

    def test_training_is_deterministic(self):
        env = tiny_env_cfg()
        net_a, log_a = train_agent(env, tiny_train_cfg())
        net_b, log_b = train_agent(env, tiny_train_cfg())
        assert log_a == log_b
        for pa, pb in zip(net_a.params, net_b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_seed_changes_training(self):
        env = tiny_env_cfg()
        _, log_a = train_agent(env, tiny_train_cfg(seed=5))
        _, log_b = train_agent(env, tiny_train_cfg(seed=6))
        assert log_a != log_b

    def test_trained_network_is_finite(self):
        net, _ = train_agent(tiny_env_cfg(), tiny_train_cfg())
        for p in net.params:
            assert np.all(np.isfinite(p))
        q = mlp_forward(net, np.random.default_rng(0).random((50, 10)))
        assert np.all(np.isfinite(q))

    @pytest.mark.parametrize("penalties", [(5.0,), (1.0, 5.0)])
    def test_non_finite_loss_names_its_episode(self, monkeypatch, penalties):
        # every episode of 20 commits makes 20 updates; update 45 is in episode 2
        real, calls = agent.td_loss_and_grads, []

        def nan_from_update_45(*args):
            calls.append(None)
            loss, grad = real(*args)
            return (loss * np.nan if len(calls) > 45 else loss), grad

        monkeypatch.setattr(agent, "td_loss_and_grads", nan_from_update_45)
        with pytest.raises(ValueError, match=r"training diverged: mean TD loss .*nan.* in episode 2 "):
            train_agents(tiny_env_cfg(), tiny_train_cfg(episodes=5), penalties)
        assert len(calls) == 60  # it stops when episode 2 ends

    def test_overflowing_loss_stops_in_its_first_episode(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"mean TD loss inf in episode 0 "):
                train_agent(tiny_env_cfg(), tiny_train_cfg(escape_penalty=1e300))


LOCKSTEP_PENALTIES = (0.0, 1.0, 5.0, 500.0)


def assert_lockstep_matches_sequential(env: EnvConfig, cfg: TrainConfig) -> None:
    """Every agent of one ``train_agents`` run equals its own ``train_agent`` run."""
    trained = train_agents(env, cfg, LOCKSTEP_PENALTIES)
    assert len(trained) == len(LOCKSTEP_PENALTIES)
    for penalty, (net, log) in zip(LOCKSTEP_PENALTIES, trained):
        alone_net, alone_log = train_agent(env, dataclasses.replace(cfg, escape_penalty=penalty))
        assert net.flat.shape == alone_net.flat.shape
        assert net.flat.tobytes() == alone_net.flat.tobytes(), penalty
        assert log.records == alone_log.records, penalty


class TestTrainAgents:
    @pytest.mark.parametrize("sync", [1, 10])
    @pytest.mark.parametrize("hidden", [(), (32,), (64, 64), (16, 16, 16)])
    def test_lockstep_equals_sequential(self, hidden, sync):
        # 11 episodes of 16 commits: the 150-slot buffer evicts, and an
        # interval of 10 syncs once
        env = dataclasses.replace(EnvConfig(), commits_per_episode=16)
        cfg = tiny_train_cfg(
            episodes=11, buffer_capacity=150, hidden_sizes=hidden, target_sync_interval=sync
        )
        assert_lockstep_matches_sequential(env, cfg)

    def test_lockstep_equals_sequential_when_the_first_episode_cannot_fill_a_batch(self):
        env = dataclasses.replace(EnvConfig(), commits_per_episode=12)
        cfg = tiny_train_cfg(episodes=3, minibatch_size=16)
        _, log = train_agent(env, cfg)
        assert log.records[0].mean_td_loss == 0.0 and log.records[1].mean_td_loss > 0.0
        assert_lockstep_matches_sequential(env, cfg)

    def test_agents_differ_by_penalty(self):
        (_, cheap), (_, costly) = train_agents(tiny_env_cfg(), tiny_train_cfg(), (0.0, 500.0))
        assert cheap.records != costly.records

    @pytest.fixture
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(agent, "generate_trace", refuse)
        monkeypatch.setattr(agent, "mlp_init", refuse)

    def test_empty_penalties_rejected(self, no_training):
        with pytest.raises(ValueError, match="at least one"):
            train_agents(tiny_env_cfg(), tiny_train_cfg(), ())

    def test_negative_penalty_rejected(self, no_training):
        with pytest.raises(ValueError, match="finite and >= 0"):
            train_agents(tiny_env_cfg(), tiny_train_cfg(), (1.0, -0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, no_training, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            train_agents(tiny_env_cfg(), tiny_train_cfg(), (bad, 1.0))

    @pytest.mark.parametrize(
        "env_changes, train_changes, key",
        [
            ({}, {"target_sync_interval": 0}, "train.target_sync_interval: must be >= 1"),
            ({}, {"learning_rate": float("inf")}, "train.learning_rate: must be finite"),
            ({"bug_probability": float("nan")}, {}, "env.bug_probability: must be finite"),
            ({"test_minutes": (10.0, float("inf"), 0.0)}, {}, "env.partial_test_minutes: must be finite"),
        ],
    )
    def test_bad_configs_rejected_before_training(self, no_training, env_changes, train_changes, key):
        env = dataclasses.replace(tiny_env_cfg(), **env_changes)
        cfg = tiny_train_cfg(**train_changes)
        with pytest.raises(ConfigError, match=key):
            train_agent(env, cfg)
        with pytest.raises(ConfigError, match=key):
            train_agents(env, cfg, (1.0, 2.0))
        with pytest.raises(ConfigError, match=key):
            penalty_sweep(env, cfg, (1.0, 2.0))

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"episodes": 2.5}, "train.episodes"),
            ({"minibatch_size": 16.0}, "train.minibatch_size"),
            ({"hidden_sizes": (8.5,)}, "train.hidden_sizes"),
        ],
    )
    def test_non_integral_int_fields_rejected_before_training(self, no_training, changes, key):
        # a config built in code meets no parser; training would fail later
        # with a bare TypeError
        with pytest.raises(ConfigError, match=f"{key}: must be an integer"):
            train_agent(tiny_env_cfg(), tiny_train_cfg(**changes))

    def test_numpy_integers_accepted(self):
        cfg = tiny_train_cfg(episodes=np.int64(1), minibatch_size=np.int32(16), hidden_sizes=(np.int64(8),))
        _, log = train_agent(tiny_env_cfg(), cfg)
        assert len(log) == 1

    @pytest.mark.parametrize("capacity, expected", [(10_000, 60), (50, 50)])
    def test_buffer_sized_by_what_the_run_can_push(self, monkeypatch, capacity, expected):
        sizes = []

        class Recording(ReplayBuffer):
            def __init__(self, capacity, *args, **kwargs):
                sizes.append(capacity)
                super().__init__(capacity, *args, **kwargs)

        monkeypatch.setattr(agent, "ReplayBuffer", Recording)
        train_agents(tiny_env_cfg(), tiny_train_cfg(buffer_capacity=capacity), (1.0, 2.0))
        assert sizes == [expected]  # 3 episodes of 20 commits push 60 transitions


# sha256 of the trained weights (every agent's ``flat``, in order) and of the
# training log (episode, reward, epsilon, loss, action counts per record, as
# float64), recorded before the bootstrap cache existed, when every update ran
# its own target forward pass. 12 episodes of 23 commits into a 150-slot
# buffer: the buffer evicts, and at minibatch 64 the first two episodes
# cannot fill a batch. Row counts that are not multiples of 4 make a refill
# in calls of any other row count than the minibatch's move these digests.
PINNED_DIGESTS = {
    ((5.0,), 16, 1): (
        "9c08632845b8cea0dd15f4dc8376b6bb5a5d6d3ca57767e64f34e7f3733e238b",
        "b7cd417662a6974312016dda4bfe6929fe94a0383f2d68c5ae2cc982a3330ab0",
    ),
    ((5.0,), 16, 10): (
        "2fd6e267d01919cf9df109ab96f77f5187a6bdb3d63b6187d5ab5f8895f7ba0b",
        "9df0fbd6d142026c4a170ddba4b01645ad9deab989ec779722d8fabd15a25a27",
    ),
    ((5.0,), 64, 1): (
        "39b40df44c215d9ac796ea2bdd630d9a1cc06e003c1c83428d55872c8748b0f4",
        "e6dc6add2273a6a58e7d9af5d223291eac756b061f2f2c2731489c79742e75b2",
    ),
    ((5.0,), 64, 10): (
        "2e70692e8cc9ec72ac3cd0071157c28642ad8311776779987ca44641be907eb3",
        "8ecc571113cf3388391e9ccfc07628575d51f3b3db62f10ea3a91feebf6182a9",
    ),
    (LOCKSTEP_PENALTIES, 16, 1): (
        "18f6f6f44ef9973d47be710ea2e00a73a24f81df0f26dc1315d61b1142d56c11",
        "f18c06b8d33c21836b55cd1dc7c6ece38e5242b3aa624a432f0d6ec0b5f606b3",
    ),
    (LOCKSTEP_PENALTIES, 16, 10): (
        "e8073f7f86cd50b61a71a28686068bc8a1bc5808174b3b8541f8405e459a85c4",
        "0a8179678734abd9a7bb87c2b6bbee2f574d907c467f9b31acb3629e1cd7eadf",
    ),
    (LOCKSTEP_PENALTIES, 64, 1): (
        "4296adea135e3bde966d8e344c8bc68e17162176e49daa30cf462116da7ad631",
        "a3e31be860318e56559b306784ea2c3bc1fce2920299edf293412dd5cd1d94d5",
    ),
    (LOCKSTEP_PENALTIES, 64, 10): (
        "bb207dc7b6755db092b4da62f15bb28d77660b923820aa28c423e9d9c34c2a95",
        "dc72384969719f19367b0177a8112f0dfaa3fe554139e6a016b04cae7d296f8b",
    ),
}


class TestPinnedDigests:
    @pytest.mark.parametrize("penalties, minibatch, sync", list(PINNED_DIGESTS))
    def test_weights_and_log_match_the_uncached_training(self, penalties, minibatch, sync):
        env = dataclasses.replace(EnvConfig(), commits_per_episode=23)
        cfg = tiny_train_cfg(
            episodes=12,
            buffer_capacity=150,
            minibatch_size=minibatch,
            hidden_sizes=(64, 64),
            target_sync_interval=sync,
        )
        trained = train_agents(env, cfg, penalties)
        weights = hashlib.sha256(b"".join(net.flat.tobytes() for net, _ in trained)).hexdigest()
        table = np.array(
            [
                [r.episode, r.total_reward, r.epsilon, r.mean_td_loss, *r.action_counts]
                for _, log in trained
                for r in log.records
            ],
            dtype=np.float64,
        )
        assert table.shape == (12 * len(penalties), 7)
        log = hashlib.sha256(table.tobytes()).hexdigest()
        assert (weights, log) == PINNED_DIGESTS[(penalties, minibatch, sync)]
