"""Q-value network: an MLP of any depth with hand-rolled backprop and Adam.

All math is plain NumPy in float64. The network maps a state vector to one
Q-value per action through ReLU hidden layers and a linear output layer.
Every parameter lives in one contiguous vector, ``QNetwork.flat``, laid out
``[W0, b0, W1, b1, ...]`` with each weight matrix row-major; ``weights``,
``biases`` and ``params`` are views into it. Gradients and the Adam moments
are flat vectors with the same layout, so an Adam step is one elementwise
pass and a target-network sync is one copy. Gradients are computed
analytically; the test suite checks them against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QNetwork",
    "mlp_init",
    "mlp_forward",
    "td_loss_and_grads",
    "AdamState",
    "adam_update",
]


def _layer_views(
    flat: np.ndarray, sizes: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a vector laid out like ``QNetwork.flat``."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class QNetwork:
    """MLP parameters in one float64 vector. ``weights[i]`` maps layer i to i+1.

    The constructor copies the given arrays into a new vector, so the network
    never aliases its inputs.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if not weights or len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix and at least one layer")
        sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} shapes {w.shape}, {b.shape} do not chain")
        self.sizes = sizes
        self.flat = np.concatenate(
            [a.ravel() for w, b in zip(weights, biases) for a in (w, b)], dtype=np.float64
        )
        self.weights, self.biases = _layer_views(self.flat, sizes)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return self.sizes[1:-1]

    @property
    def params(self) -> list[np.ndarray]:
        """Parameter arrays [W0, b0, W1, b1, ...] (views into ``flat``, in its order)."""
        return [a for w, b in zip(self.weights, self.biases) for a in (w, b)]

    def clone(self) -> "QNetwork":
        return QNetwork(self.weights, self.biases)


def mlp_init(
    hidden_sizes: tuple[int, ...] = (64, 64),
    seed: int = 0,
    input_dim: int = 10,
    output_dim: int = 3,
) -> QNetwork:
    """Fresh network with uniform Glorot weights and zero biases.

    The +/- sqrt(6 / (fan_in + fan_out)) range keeps initial Q-values near
    zero. Deterministic given ``seed``.
    """
    sizes = (input_dim, *hidden_sizes, output_dim)
    if any(int(s) < 1 for s in sizes):
        raise ValueError(f"layer widths must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(weights=weights, biases=biases)


def _as_batch(net: QNetwork, states: np.ndarray) -> tuple[np.ndarray, bool]:
    states = np.asarray(states, dtype=np.float64)
    single = states.ndim == 1
    if single:
        states = states[None, :]
    if states.ndim != 2 or states.shape[1] != net.input_dim:
        raise ValueError(
            f"expected states with {net.input_dim} features, got shape {states.shape}"
        )
    return states, single


def _forward_cached(
    net: QNetwork, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Q-values, each layer's input activation and each hidden pre-activation."""
    activations, pre_activations = [x], []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = activations[-1] @ w
        z += b
        pre_activations.append(z)
        activations.append(np.maximum(z, 0.0))
    q = activations[-1] @ net.weights[-1]
    q += net.biases[-1]
    return q, activations, pre_activations


def mlp_forward(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Q-values for one state ``(n_actions,)`` or a batch ``(n, n_actions)``."""
    x, single = _as_batch(net, states)
    q, _, _ = _forward_cached(net, x)
    return q[0] if single else q


def td_loss_and_grads(
    net: QNetwork,
    target_net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_states: np.ndarray,
    dones: np.ndarray,
    discount: float,
) -> tuple[float, np.ndarray]:
    """Mean squared one-step TD error and its gradient w.r.t. ``net.flat``.

    Bootstrap targets ``r + discount * max_a Q_target(s', a)`` come from the
    frozen target network; terminal transitions cut the bootstrap term. The
    gradient is a new vector laid out like ``net.flat``.
    """
    x, _ = _as_batch(net, states)
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be non-empty")
    actions = np.asarray(actions, dtype=np.intp)
    rewards = np.asarray(rewards, dtype=np.float64)
    not_done = 1.0 - np.asarray(dones, dtype=np.float64)

    q, activations, pre_activations = _forward_cached(net, x)
    next_q = mlp_forward(target_net, next_states)
    targets = rewards + discount * next_q.max(axis=1) * not_done

    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float(np.mean(err**2))

    delta = np.zeros_like(q)
    delta[idx, actions] = 2.0 * err / n

    grad = np.empty_like(net.flat)
    grad_w, grad_b = _layer_views(grad, net.sizes)
    for i in reversed(range(len(grad_w))):
        np.matmul(activations[i].T, delta, out=grad_w[i])
        np.add.reduce(delta, axis=0, out=grad_b[i])
        if i:
            delta = delta @ net.weights[i].T
            delta *= pre_activations[i - 1] > 0.0
    return loss, grad


@dataclass
class AdamState:
    """First/second moment vectors laid out like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One Adam step with bias correction, applied to ``params`` in place.

    Purely elementwise: one call on a flat vector gives bit for bit what one
    call per parameter array would.
    """
    if params.shape != grads.shape or state.m.shape != params.shape:
        raise ValueError("params, grads and Adam moments must have matching shapes")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads**2
    params -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params
