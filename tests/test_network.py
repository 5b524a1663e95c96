"""MLP numerics: init, forward, analytic gradients vs finite differences, Adam."""

import numpy as np
import pytest

from testscope.network import (
    AdamState,
    QNetwork,
    adam_update,
    mlp_forward,
    mlp_init,
    td_loss_and_grads,
)
from testscope.persist import load_policy, save_policy

DEPTHS = [(), (32,), (16, 16), (16, 16, 16)]


def tiny_net(seed=1) -> QNetwork:
    return mlp_init((4, 4), seed=seed, input_dim=10, output_dim=3)


def random_batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.random((n, 10))
    actions = rng.integers(0, 3, n)
    rewards = rng.uniform(-10, 0, n)
    next_states = rng.random((n, 10))
    dones = (rng.random(n) < 0.3).astype(float)
    return states, actions, rewards, next_states, dones


class TestInit:
    def test_deterministic_given_seed(self):
        a, b = mlp_init((64, 64), seed=5), mlp_init((64, 64), seed=5)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a, b = mlp_init((8, 8), seed=5), mlp_init((8, 8), seed=6)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a.params, b.params))

    def test_biases_start_at_zero(self):
        net = mlp_init((64, 64), seed=0)
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError):
            mlp_init((0, 4), seed=0)

    def test_fresh_net_outputs_stay_small(self):
        # scaled-uniform init keeps early Q-values near zero
        net = mlp_init((64, 64), seed=3)
        states = np.random.default_rng(4).random((1000, 10))
        q = mlp_forward(net, states)
        assert np.max(np.abs(q)) <= 10.0

    def test_geometry(self):
        net = tiny_net()
        assert net.input_dim == 10
        assert net.output_dim == 3
        assert net.hidden_sizes == (4, 4)

    @pytest.mark.parametrize("hidden", DEPTHS)
    def test_any_depth_gives_one_q_value_per_action(self, hidden):
        net = mlp_init(hidden, seed=0)
        assert net.hidden_sizes == hidden
        assert mlp_forward(net, np.ones(10)).shape == (3,)
        assert mlp_forward(net, np.ones((5, 10))).shape == (5, 3)

    def test_arrays_are_views_into_one_vector(self):
        net = tiny_net()
        assert net.flat.size == sum(p.size for p in net.params)
        np.testing.assert_array_equal(net.flat, np.concatenate([p.ravel() for p in net.params]))
        net.flat[:] = np.arange(net.flat.size)
        assert net.weights[0][0, 1] == 1.0
        net.biases[-1][...] = -1.0
        assert net.flat[-1] == -1.0

    def test_constructor_and_clone_copy(self):
        net = tiny_net()
        weights = [w.copy() for w in net.weights]
        rebuilt = QNetwork(weights, net.biases)
        twin = net.clone()
        weights[0][...] = 9.0
        twin.flat[:] = 7.0
        np.testing.assert_array_equal(rebuilt.flat, net.flat)
        assert not np.shares_memory(twin.flat, net.flat)

    def test_layers_that_do_not_chain_rejected(self):
        with pytest.raises(ValueError):
            QNetwork([np.zeros((10, 4)), np.zeros((5, 3))], [np.zeros(4), np.zeros(3)])


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = tiny_net()
        for p in net.params:
            p[...] = 0.0
        np.testing.assert_array_equal(mlp_forward(net, np.ones(10)), np.zeros(3))

    def test_output_bias_passthrough(self):
        net = tiny_net()
        for w in net.weights:
            w[...] = 0.0
        net.biases[2][...] = (1.0, 2.0, 3.0)
        np.testing.assert_array_equal(mlp_forward(net, np.ones(10)), [1.0, 2.0, 3.0])

    def test_batch_shape(self):
        net = tiny_net()
        states = np.random.default_rng(0).random((7, 10))
        q = mlp_forward(net, states)
        assert q.shape == (7, 3)
        # batched and single-row BLAS paths may differ in the last ulp
        np.testing.assert_allclose(q[2], mlp_forward(net, states[2]), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mlp_forward(tiny_net(), np.ones(9))

    def test_adding_constant_to_output_biases_keeps_argmax(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            net = mlp_init((4, 4), seed=trial)
            state = rng.random(10)
            before = int(np.argmax(mlp_forward(net, state)))
            net.biases[2][...] += 123.456
            after = int(np.argmax(mlp_forward(net, state)))
            assert before == after


def assert_gradients_match_central_differences(net, target, batch, discount=0.99, h=1e-5):
    """Independent oracle: (L(p+h) - L(p-h)) / 2h over every parameter.

    For a stack, agent k's loss is differentiated w.r.t. agent k's parameters.
    """
    _, grad = td_loss_and_grads(net, target, *batch, discount=discount)
    assert grad.shape == net.flat.shape
    p = net.flat
    worst = 0.0
    for i in np.ndindex(p.shape):
        agent = i[:-1]
        original = p[i]
        p[i] = original + h
        up, _ = td_loss_and_grads(net, target, *batch, discount=discount)
        p[i] = original - h
        down, _ = td_loss_and_grads(net, target, *batch, discount=discount)
        p[i] = original
        fd = (up[agent] - down[agent]) / (2 * h)
        scale = max(abs(fd), abs(grad[i]))
        if scale > 1e-6:
            worst = max(worst, abs(fd - grad[i]) / scale)
        else:
            assert abs(fd - grad[i]) <= 1e-8, net.hidden_sizes
    assert worst <= 1e-4, net.hidden_sizes


def stack_of(nets) -> QNetwork:
    """A (K, P) stack holding the given single networks' parameters."""
    weights = [np.stack(layer) for layer in zip(*(n.weights for n in nets))]
    biases = [np.stack(layer) for layer in zip(*(n.biases for n in nets))]
    return QNetwork(weights, biases)


def stacked_batch(k, n=8, seed=0):
    """One independent random batch per agent, stacked along a leading axis."""
    batches = [random_batch(n=n, seed=seed + a) for a in range(k)]
    return tuple(np.stack(column) for column in zip(*batches))


class TestGradients:
    def test_td_gradients_match_central_differences(self):
        nets = [(tiny_net(seed=2), mlp_init((4, 4), seed=7))]
        nets += [(mlp_init(h, seed=2), mlp_init(h, seed=7)) for h in DEPTHS]
        batch = random_batch(n=8, seed=3)
        for net, target in nets:
            assert_gradients_match_central_differences(net, target, batch)

    @pytest.mark.parametrize("hidden", [(4, 4), *DEPTHS])
    def test_stacked_td_gradients_match_central_differences(self, hidden):
        net = stack_of([mlp_init(hidden, seed=s) for s in (2, 3, 4)])
        target = stack_of([mlp_init(hidden, seed=s) for s in (7, 8, 9)])
        assert_gradients_match_central_differences(net, target, stacked_batch(3, seed=3))

    def test_terminal_targets_equal_rewards(self):
        net, target = tiny_net(seed=2), tiny_net(seed=2)
        states, actions, rewards, next_states, _ = random_batch(seed=5)
        dones = np.ones_like(rewards)
        q = mlp_forward(net, states)
        expected = float(np.mean((q[np.arange(len(actions)), actions] - rewards) ** 2))
        loss, _ = td_loss_and_grads(
            net, target, states, actions, rewards, next_states, dones, discount=0.99
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_zero_discount_ignores_bootstrap(self):
        net, target = tiny_net(seed=2), tiny_net(seed=9)
        states, actions, rewards, next_states, dones = random_batch(seed=6)
        loss_a, _ = td_loss_and_grads(
            net, target, states, actions, rewards, next_states, dones, discount=0.0
        )
        loss_b, _ = td_loss_and_grads(
            net, target, states, actions, rewards, next_states, np.ones_like(dones), discount=0.0
        )
        assert loss_a == loss_b

    def test_empty_batch_rejected(self):
        empty = (np.empty((0, 10)), np.empty(0, int), np.empty(0), np.empty((0, 10)), np.empty(0))
        with pytest.raises(ValueError):
            td_loss_and_grads(tiny_net(), tiny_net(), *empty, discount=0.99)

    def test_one_point_regression_converges(self):
        # fixed terminal transition: loss must fall monotonically below 1e-3
        net = tiny_net(seed=1)
        target = net.clone()
        adam = AdamState.for_params(net.flat)
        rng = np.random.default_rng(0)
        batch = (
            rng.random((1, 10)),
            np.array([1]),
            np.array([-0.5]),
            rng.random((1, 10)),
            np.array([1.0]),
        )
        losses = []
        for _ in range(2000):
            loss, grad = td_loss_and_grads(net, target, *batch, discount=0.99)
            adam_update(net.flat, grad, adam, lr=1e-3)
            losses.append(loss)
        losses = np.array(losses)
        below = np.nonzero(losses < 1e-3)[0]
        assert below.size, "loss never reached 1e-3 within 2000 steps"
        first = int(below[0])
        assert np.all(np.diff(losses[10 : first + 1]) <= 0.0), "non-monotone descent"

    def test_target_network_untouched_by_training(self):
        net = tiny_net(seed=1)
        target = tiny_net(seed=4)
        frozen = target.flat.copy()
        adam = AdamState.for_params(net.flat)
        batch = random_batch(seed=8)
        for _ in range(25):
            _, grad = td_loss_and_grads(net, target, *batch, discount=0.99)
            adam_update(net.flat, grad, adam, lr=1e-3)
        np.testing.assert_array_equal(frozen, target.flat)


class TestStack:
    def test_stacked_copies_and_unstack_round_trips(self):
        net = tiny_net()
        stacked = net.stacked(3)
        assert stacked.stack == (3,) and net.stack == ()
        assert stacked.flat.shape == (3, net.flat.size)
        assert stacked.weights[1].shape == (3, 4, 4) and stacked.biases[2].shape == (3, 3)
        stacked.weights[0][1] += 1.0  # a view into agent 1's row of the stack
        assert stacked.flat[1, 0] == net.flat[0] + 1.0
        first, second, third = stacked.unstack()
        assert first.flat.tobytes() == third.flat.tobytes() == net.flat.tobytes()
        assert second.flat.tobytes() != net.flat.tobytes()
        assert not np.shares_memory(first.flat, stacked.flat)

    def test_constructor_takes_stacked_layers(self):
        nets = [mlp_init((8,), seed=s) for s in range(3)]
        stacked = stack_of(nets)
        for agent, single in zip(stacked.unstack(), nets):
            assert agent.flat.tobytes() == single.flat.tobytes()

    def test_stacked_states_must_match_the_stack(self):
        stacked = tiny_net().stacked(2)
        assert mlp_forward(stacked, np.ones((2, 10))).shape == (2, 3)
        assert mlp_forward(stacked, np.ones((2, 5, 10))).shape == (2, 5, 3)
        for bad in (np.ones(10), np.ones((3, 10)), np.ones((3, 5, 10)), np.ones((2, 9))):
            with pytest.raises(ValueError):
                mlp_forward(stacked, bad)

    @pytest.mark.parametrize("hidden", DEPTHS)
    def test_each_slice_equals_its_single_network_bit_for_bit(self, hidden):
        rng = np.random.default_rng(5)
        nets = [mlp_init(hidden, seed=s) for s in range(4)]
        targets = [mlp_init(hidden, seed=s) for s in range(10, 14)]
        for n in nets + targets:  # distinct, non-zero biases
            n.flat += rng.normal(scale=0.1, size=n.flat.size)
        batch = stacked_batch(4, n=64, seed=20)
        loss, grad = td_loss_and_grads(stack_of(nets), stack_of(targets), *batch, discount=0.99)
        q = mlp_forward(stack_of(nets), batch[0][:, 0])
        assert loss.shape == (4,) and grad.shape == (4, nets[0].flat.size)
        for k in range(4):
            single = tuple(column[k] for column in batch)
            loss_k, grad_k = td_loss_and_grads(nets[k], targets[k], *single, discount=0.99)
            assert grad[k].tobytes() == grad_k.tobytes()
            assert loss[k] == loss_k
            assert q[k].tobytes() == mlp_forward(nets[k], single[0][0]).tobytes()

    def test_stacked_adam_equals_per_agent_adam(self):
        rng = np.random.default_rng(6)
        params = rng.normal(size=(3, 50))
        singles = [row.copy() for row in params]
        state = AdamState.for_params(params)
        single_states = [AdamState.for_params(p) for p in singles]
        for _ in range(5):
            grads = rng.normal(size=params.shape)
            adam_update(params, grads, state, lr=1e-2)
            for p, g, s in zip(singles, grads, single_states):
                adam_update(p, g, s, lr=1e-2)
        assert params.tobytes() == np.stack(singles).tobytes()


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        net = tiny_net()
        before = net.flat.copy()
        state = AdamState.for_params(net.flat)
        adam_update(net.flat, np.zeros_like(net.flat), state, lr=0.1)
        np.testing.assert_array_equal(before, net.flat)

    def test_first_step_moves_by_lr_times_sign(self):
        # closed form: mhat/sqrt(vhat) = sign(g) on step one for constant g
        lr = 0.01
        for g in (1.0, -3.0, 250.0, -1e-3):
            params = np.array([1.0])
            state = AdamState.for_params(params)
            adam_update(params, np.array([g]), state, lr=lr)
            assert params[0] == pytest.approx(1.0 - lr * np.sign(g), abs=1e-6)

    def test_first_step_scale_invariance(self):
        lr = 0.1
        params = np.array([0.0, 0.0])
        state = AdamState.for_params(params)
        adam_update(params, np.array([1.0, 100.0]), state, lr=lr)
        assert abs(params[0]) == pytest.approx(abs(params[1]), abs=1e-8)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(4)
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_update(params, np.zeros(3), state, lr=0.1)

    def test_step_counter_and_bias_correction(self):
        # two identical steps move the parameter roughly twice as far
        params = np.array([0.0])
        state = AdamState.for_params(params)
        adam_update(params, np.array([2.0]), state, lr=0.05)
        after_one = params[0]
        adam_update(params, np.array([2.0]), state, lr=0.05)
        assert state.t == 2
        assert params[0] == pytest.approx(2 * after_one, rel=1e-3)


class TestDepthRoundTrip:
    def test_save_load_at_depth_three_is_bit_exact(self, tmp_path):
        net = mlp_init((16, 16, 16), seed=4)
        net.flat += np.random.default_rng(2).normal(scale=0.3, size=net.flat.size)
        path = tmp_path / "deep.json"
        save_policy(path, net)
        loaded = load_policy(path, expect_kind="q_network")
        assert loaded.hidden_sizes == (16, 16, 16)
        assert loaded.flat.tobytes() == net.flat.tobytes()


# Reference for bit-identity: the per-array three-layer TD pass and the
# per-array Adam loop that the flat-buffer code replaced, kept verbatim in
# their arithmetic. Every elementwise operation and matmul runs in the same
# order, so the flat code must reproduce these parameters exactly.
def reference_td_grads(weights, biases, target_weights, target_biases, batch, discount):
    states, actions, rewards, next_states, dones = batch
    n = states.shape[0]
    not_done = 1.0 - dones

    def forward(ws, bs, x):
        z1 = x @ ws[0] + bs[0]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ ws[1] + bs[1]
        a2 = np.maximum(z2, 0.0)
        return a2 @ ws[2] + bs[2], (z1, a1, z2, a2)

    q, (z1, a1, z2, a2) = forward(weights, biases, states)
    next_q, _ = forward(target_weights, target_biases, next_states)
    targets = rewards + discount * next_q.max(axis=1) * not_done
    idx = np.arange(n)
    err = q[idx, actions] - targets
    dq = np.zeros_like(q)
    dq[idx, actions] = 2.0 * err / n
    dw3 = a2.T @ dq
    db3 = dq.sum(axis=0)
    dz2 = (dq @ weights[2].T) * (z2 > 0.0)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ weights[1].T) * (z1 > 0.0)
    dw1 = states.T @ dz1
    db1 = dz1.sum(axis=0)
    return [dw1, db1, dw2, db2, dw3, db3]


def reference_adam(params, grads, m_list, v_list, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestBitIdentity:
    def test_flat_training_matches_per_array_reference(self):
        net = mlp_init((64, 64), seed=11)
        target = net.clone()
        ref = [p.copy() for p in net.params]
        ref_target = [p.copy() for p in target.params]
        m_list = [np.zeros_like(p) for p in ref]
        v_list = [np.zeros_like(p) for p in ref]
        adam = AdamState.for_params(net.flat)
        rng = np.random.default_rng(12)
        for step in range(1, 201):
            batch = random_batch(n=64, seed=int(rng.integers(2**31)))
            _, grad = td_loss_and_grads(net, target, *batch, discount=0.99)
            adam_update(net.flat, grad, adam, lr=1e-3)
            grads = reference_td_grads(ref[0::2], ref[1::2], ref_target[0::2], ref_target[1::2], batch, 0.99)
            reference_adam(ref, grads, m_list, v_list, step, lr=1e-3)
            if step % 50 == 0:  # target sync
                target = net.clone()
                ref_target = [p.copy() for p in ref]
        assert net.flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
