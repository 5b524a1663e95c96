"""Agent mechanics: replay buffer, exploration, schedules, training loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testscope import agent
from testscope.agent import (
    ReplayBuffer,
    Transition,
    _train_step_arrays,
    epsilon_schedule,
    greedy_action,
    select_action,
    train_agent,
    train_agents,
)
from testscope.config import EnvConfig, TrainConfig
from testscope.environment import Action
from testscope.network import AdamState, mlp_forward, mlp_init


def make_transition(tag: float, done: bool = False) -> Transition:
    return Transition(
        state=np.full(10, tag),
        action=Action(int(tag) % 3),
        reward=-tag,
        next_state=np.full(10, tag + 0.5),
        done=done,
    )


def stored_rewards(buf: ReplayBuffer) -> list[float]:
    """Rewards held by the buffer, oldest first, read from its column arrays."""
    # the head slot holds the oldest entry once the buffer is full; before
    # that the head equals the size and the roll is a no-op
    return list(np.roll(buf._rewards[: len(buf)], -buf._head))


class TestReplayBuffer:
    def test_push_one(self):
        buf = ReplayBuffer(5)
        buf.push(make_transition(1.0))
        assert len(buf) == 1

    def test_fifo_eviction(self):
        buf = ReplayBuffer(3)
        for i in range(4):
            buf.push(make_transition(float(i)))
        assert len(buf) == 3
        assert stored_rewards(buf) == [-1.0, -2.0, -3.0]  # the first push is gone

    def test_storage_fidelity(self):
        buf = ReplayBuffer(4)
        original = make_transition(2.0, done=True)
        buf.push(original)
        states, actions, rewards, next_states, dones = buf.sample_batch(1, np.random.default_rng(0))
        np.testing.assert_array_equal(states[0], original.state)
        np.testing.assert_array_equal(next_states[0], original.next_state)
        assert actions[0] == original.action
        assert rewards[0] == original.reward
        assert dones[0] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        rewards=st.lists(st.floats(-100, 100, allow_nan=False), min_size=0, max_size=40),
        capacity=st.integers(1, 12),
    )
    def test_contents_equal_last_capacity_pushes_in_order(self, rewards, capacity):
        buf = ReplayBuffer(capacity)
        for r in rewards:
            buf.push(make_transition(abs(r)))
        expected = [abs(r) for r in rewards[-capacity:]]
        assert [abs(r) for r in stored_rewards(buf)] == expected

    def test_exhaustive_sample_is_permutation(self):
        buf = ReplayBuffer(8)
        for i in range(8):
            buf.push(make_transition(float(i)))
        _, _, rewards, _, _ = buf.sample_batch(8, np.random.default_rng(0))
        assert sorted(rewards) == sorted(stored_rewards(buf))

    def test_empty_sample(self):
        buf = ReplayBuffer(8)
        buf.push(make_transition(1.0))
        states, actions, rewards, next_states, dones = buf.sample_batch(0, np.random.default_rng(0))
        assert states.shape == next_states.shape == (0, 10)
        assert actions.shape == rewards.shape == dones.shape == (0,)

    def test_oversample_rejected(self):
        buf = ReplayBuffer(8)
        buf.push(make_transition(1.0))
        with pytest.raises(ValueError):
            buf.sample_batch(2, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        # k=1 draws over a 10-item buffer land on each item ~10% of the time
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(make_transition(float(i)))
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        for _ in range(10_000):
            _, _, rewards, _, _ = buf.sample_batch(1, rng)
            counts[int(-rewards[0])] += 1
        assert np.all(np.abs(counts / 10_000 - 0.1) <= 0.02)

    def test_stacked_buffer_samples_the_same_slots_for_every_agent(self):
        buf = ReplayBuffer(4, stack=(3,))
        for i in range(6):  # wraps around, evicting the first two pushes
            buf.push(
                Transition(
                    state=np.full((3, 10), i) + np.arange(3)[:, None],
                    action=np.array([i % 3, (i + 1) % 3, (i + 2) % 3]),
                    reward=np.array([-i, -i - 10.0, -i - 20.0]),
                    next_state=np.full((3, 10), i + 0.5),
                    done=i == 5,
                )
            )
        states, actions, rewards, next_states, dones = buf.sample_batch(4, np.random.default_rng(1))
        assert states.shape == next_states.shape == (3, 4, 10)
        assert actions.shape == rewards.shape == dones.shape == (3, 4)
        pushed = -rewards[0]
        assert sorted(pushed) == [2.0, 3.0, 4.0, 5.0]
        np.testing.assert_array_equal(rewards, -pushed - np.array([[0.0], [10.0], [20.0]]))
        np.testing.assert_array_equal(states[:, :, 0], pushed + np.arange(3)[:, None])
        np.testing.assert_array_equal(actions, (pushed + np.arange(3)[:, None]) % 3)
        np.testing.assert_array_equal(dones, np.broadcast_to(pushed == 5.0, (3, 4)))

    def test_sample_batch_matches_sample_layout(self):
        # every row of every column comes from one and the same pushed transition
        buf = ReplayBuffer(6)
        for i in range(6):
            buf.push(make_transition(float(i), done=(i % 2 == 0)))
        states, actions, rewards, next_states, dones = buf.sample_batch(
            4, np.random.default_rng(3)
        )
        assert len(set(rewards)) == 4
        for row, reward in enumerate(rewards):
            pushed = make_transition(-reward, done=(int(-reward) % 2 == 0))
            np.testing.assert_array_equal(states[row], pushed.state)
            np.testing.assert_array_equal(next_states[row], pushed.next_state)
            assert actions[row] == pushed.action
            assert dones[row] == float(pushed.done)


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
        buf.push(make_transition(float(i)))
    return buf.sample_batch(n, np.random.default_rng(0))


class TestTdTrainStep:
    def test_empty_batch_rejected(self):
        net = mlp_init((4, 4), seed=0)
        empty = column_batch(0)
        with pytest.raises(ValueError, match="non-empty"):
            _train_step_arrays(net, net.clone(), empty, 0.99, AdamState.for_params(net.flat), 1e-3)

    def test_updates_only_online_network(self):
        net = mlp_init((4, 4), seed=0)
        target = mlp_init((4, 4), seed=1)
        target_before = target.flat.copy()
        net_before = net.flat.copy()
        _train_step_arrays(net, target, column_batch(4), 0.99, AdamState.for_params(net.flat), 1e-3)
        assert not np.array_equal(net_before, net.flat)
        np.testing.assert_array_equal(target_before, target.flat)


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

    def test_disabled_target_network(self):
        # interval 0 bootstraps from the live network; training still runs
        # deterministically but follows a different trajectory
        env = tiny_env_cfg()
        net_live, log_live = train_agent(env, tiny_train_cfg(target_sync_interval=0))
        net_live2, log_live2 = train_agent(env, tiny_train_cfg(target_sync_interval=0))
        assert log_live == log_live2
        for pa, pb in zip(net_live.params, net_live2.params):
            np.testing.assert_array_equal(pa, pb)
        _, log_frozen = train_agent(env, tiny_train_cfg(target_sync_interval=1))
        assert log_live != log_frozen


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
    @pytest.mark.parametrize("sync", [0, 1, 10])
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
