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

Every forward pass runs one loop, ``_forward``: a matmul, a bias add and an
in-place ReLU per layer. ``mlp_forward`` and ``bootstrap_values`` run it on
the states as ``_as_batch`` shapes them, one state being a batch of one;
``td_loss_and_grads`` runs it with its layer outputs in reused scratch
arrays and keeps each layer's input activation for the backward pass.

``flat`` may also be a ``(K, P)`` stack of K networks of one geometry (see
``QNetwork.stacked``), which lets K agents train in lockstep. Every pass
then runs over the leading agent axis: states, actions, TD targets, losses
and gradients gain the same leading axis. NumPy computes a batched matmul as
one 2-D BLAS product per slice, and every other operation is elementwise or
reduces within one agent, so each agent's slice of a result equals, bit for
bit, what its own ``(P,)`` network gives (``tests/test_network.py`` checks
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QNetwork",
    "mlp_init",
    "mlp_forward",
    "bootstrap_values",
    "td_loss_and_grads",
    "AdamState",
    "adam_update",
]


def _layer_views(
    flat: np.ndarray, sizes: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into an array laid out like ``QNetwork.flat``.

    Leading axes carry over: a ``(K, P)`` stack gives ``(K, fan_in, fan_out)``
    weights and ``(K, fan_out)`` biases.
    """
    lead = flat.shape[:-1]
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_in * fan_out
        weights.append(flat[..., offset:end].reshape(*lead, fan_in, fan_out))
        biases.append(flat[..., end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class QNetwork:
    """MLP parameters in one float64 vector. ``weights[i]`` maps layer i to i+1.

    The constructor copies the given arrays into a new vector, so the network
    never aliases its inputs. Arrays with a leading agent axis (weights
    ``(K, fan_in, fan_out)``, biases ``(K, fan_out)``) give a stack of K
    networks whose ``flat`` is ``(K, P)``.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if not weights or len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix and at least one layer")
        lead = weights[0].shape[:-2]
        sizes = (weights[0].shape[-2], *(w.shape[-1] for w in weights))
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (*lead, sizes[i], sizes[i + 1]) or b.shape != (*lead, sizes[i + 1]):
                raise ValueError(f"layer {i} shapes {w.shape}, {b.shape} do not chain")
        flat = np.concatenate(
            [a.reshape(*lead, -1) for w, b in zip(weights, biases) for a in (w, b)],
            axis=-1,
            dtype=np.float64,
        )
        self._bind(flat, sizes)

    def _bind(self, flat: np.ndarray, sizes: tuple[int, ...]) -> None:
        self.sizes = sizes
        self.flat = flat
        # leading agent axes: () for one network, (K,) for a stack of K
        self.stack = flat.shape[:-1]
        self.weights, self.biases = _layer_views(flat, sizes)
        # biases as added to a batch of activations; the axis for the batch
        # rows lets a stack's (K, fan_out) biases broadcast over (K, n, fan_out)
        self._row_biases = [b[..., None, :] for b in self.biases]
        self._layers = tuple(zip(self.weights, self._row_biases))
        # each weight matrix as the backward pass multiplies by it
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]

    @classmethod
    def _owning(cls, flat: np.ndarray, sizes: tuple[int, ...]) -> "QNetwork":
        """A network whose parameters are ``flat`` itself (no copy)."""
        net = cls.__new__(cls)
        net._bind(flat, sizes)
        return net

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
        return QNetwork._owning(self.flat.copy(), self.sizes)

    def stacked(self, k: int) -> "QNetwork":
        """A stack of ``k`` copies of this single network, ``flat`` ``(k, P)``."""
        if self.stack:
            raise ValueError("network is already a stack")
        return QNetwork._owning(np.tile(self.flat, (k, 1)), self.sizes)

    def unstack(self) -> list["QNetwork"]:
        """One independent single network per agent of a ``(K, P)`` stack."""
        if len(self.stack) != 1:
            raise ValueError(f"expected a (K, P) stack, got flat of shape {self.flat.shape}")
        return [QNetwork._owning(row.copy(), self.sizes) for row in self.flat]


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
    """The states as a float64 batch, and whether one state per agent was given.

    The one shape rule: ``stack + ([n,] input_dim)``, where one state per
    agent becomes a batch of one, and for a single network also a ``(B, 1,
    input_dim)`` stack of one-state batches, which only the forward takes.
    Anything else raises :class:`ValueError`.
    """
    states = np.asarray(states, dtype=np.float64)
    single = states.ndim == net.flat.ndim
    if single:
        states = states[..., None, :]
    shape = states.shape
    rows = len(shape) == net.flat.ndim + 1 and shape[:-2] == net.stack
    one_state_batches = not net.stack and len(shape) == 3 and shape[1] == 1
    if not (rows or one_state_batches) or shape[-1] != net.input_dim:
        also = "" if net.stack else f" or (B, 1, {net.input_dim})"
        raise ValueError(
            f"expected states of shape {net.stack} + ([n,] {net.input_dim}){also}, got {shape}"
        )
    return states, single


class _Scratch:
    """Work arrays reused from call to call, one per key.

    Training passes one to every ``td_loss_and_grads`` call, so an update's
    intermediate arrays and its gradient vector with its per-layer views are
    built once per run; allocated and freed on every call, a stacked
    update's arrays exceed the C allocator's mmap threshold (128 KiB in
    glibc) at 4 agents of width 64 and are faulted in again each time. A
    fresh ``_Scratch`` hands out new arrays; an array handed out under a key
    is overwritten by the next request for it.
    """

    def __init__(self):
        self._arrays: dict = {}

    def __call__(self, key, shape: tuple[int, ...]) -> np.ndarray:
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape:
            arr = self._arrays[key] = np.empty(shape)
        return arr

    def grad(self, net: QNetwork) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """A gradient vector laid out like ``net.flat`` and its weight and bias views."""
        key = ("grad", net.flat.shape, net.sizes)
        if key not in self._arrays:
            grad = np.empty_like(net.flat)
            self._arrays[key] = (grad, *_layer_views(grad, net.sizes))
        return self._arrays[key]

    def flat_rows(self, a: np.ndarray) -> np.ndarray:
        """Flat index of each row's first entry in a C-contiguous array shaped like ``a``."""
        key = ("rows", a.shape)
        if key not in self._arrays:
            self._arrays[key] = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1])
        return self._arrays[key]


def _forward(
    net: QNetwork, x: np.ndarray, scratch: _Scratch | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Q-values of a batch from :func:`_as_batch` and each layer's input activation.

    Each layer is one matmul, a bias add and, for a hidden layer, an in-place
    ReLU, so a hidden activation is > 0 exactly where its pre-activation is.
    With ``scratch`` the layer outputs go into its arrays, which the next
    call with it overwrites; without, they are new arrays.
    """
    activations = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(net._layers):
        out = None if scratch is None else scratch(("z", i), (*x.shape[:-1], w.shape[-1]))
        z = np.matmul(activations[-1], w, out=out)
        z += b
        if i < last:
            activations.append(np.maximum(z, 0.0, out=z))
    return z, activations


def mlp_forward(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Q-values for one state ``(n_actions,)`` or a batch ``(n, n_actions)``.

    Every shape runs through :func:`_forward`, one state as a batch of one.
    A single network also takes a ``(B, 1, d)`` stack of one-state batches
    and returns ``(B, 1, n_actions)``: ``np.matmul`` broadcasts the weights
    over B and runs one ``(1, d)`` product per state, so each row has the
    bits that forwarding its state alone gives (a plain ``(B, d)`` batch
    differs in the last bits). A stack of K networks takes one state or
    batch per agent and returns ``(K, n_actions)`` or ``(K, n, n_actions)``.
    """
    x, single = _as_batch(net, states)
    q, _ = _forward(net, x)
    return q[..., 0, :] if single else q


def bootstrap_values(target_net: QNetwork, next_states: np.ndarray) -> np.ndarray:
    """``max_a Q_target(s', a)`` per state: one value per row of ``next_states``.

    With NumPy's OpenBLAS, a row's value was found not to depend on the
    other rows of a call of the same row count, but to differ in the last
    bits between calls of different row counts (the BLAS kernel changes with
    the shape). So a cache of these values computes them in calls of one
    fixed row count (``tests/test_agent.py`` pins the weights this gives).
    """
    return mlp_forward(target_net, next_states).max(axis=-1)


def td_loss_and_grads(
    net: QNetwork,
    targets: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    scratch: _Scratch | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean squared one-step TD error and its gradient w.r.t. ``net.flat``.

    ``targets`` are the TD targets ``r + discount * max_a Q_target(s', a)``
    (the reward alone for a terminal transition), as ``ReplayBuffer`` caches
    them, and ``actions`` an integer array of the same shape, one entry per
    state. The error of a row is its taken action's Q-value minus its
    target. The gradient is an array laid out like ``net.flat``: a new one,
    or with ``scratch`` one that the next call with it overwrites. For a
    stack of K networks every batch array has a leading agent axis, and the
    loss is one value per agent.
    """
    x, _ = _as_batch(net, states)
    if x.shape[:-2] != net.stack:
        raise ValueError(f"a TD batch is {net.stack} + (n, {net.input_dim}) states, got {x.shape}")
    rows, n = x.shape[:-1], x.shape[-2]
    if n == 0 or targets.shape != rows or actions.shape != rows:
        got = f"got {targets.shape} and {actions.shape}"
        raise ValueError(f"batch must be non-empty, with targets and actions of shape {rows}; {got}")
    scratch = scratch or _Scratch()
    q, activations = _forward(net, x, scratch)

    # gather and scatter the taken actions' entries through flat indices
    # into q, which works for any number of leading axes
    picks = scratch.flat_rows(q) + actions
    err = q.take(picks) - targets
    loss = np.add.reduce(err**2, axis=-1) / n

    delta = scratch("dq", q.shape)
    delta.fill(0.0)
    delta.put(picks, 2.0 * err / n)

    grad, grad_w, grad_b = scratch.grad(net)
    for i in reversed(range(len(grad_w))):
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=grad_w[i])
        np.add.reduce(delta, axis=-2, out=grad_b[i])
        if i:
            out = scratch(("delta", i), activations[i].shape)
            delta = np.matmul(delta, net._weights_t[i], out=out)
            delta *= activations[i] > 0.0
    return loss, grad


@dataclass
class AdamState:
    """First/second moment vectors laid out like the parameter vector.

    ``work`` holds two arrays of the same shape that each step overwrites.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One Adam step with bias correction, applied to ``params`` in place.

    Computes ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g**2``
    and ``params -= lr * (m/bc1) / (sqrt(v/bc2) + eps)`` in that order
    (``beta1`` 0.9, ``beta2`` 0.999, ``eps`` 1e-8), with every intermediate
    written into ``state.work``. Purely elementwise: one
    call on a flat vector gives bit for bit what one call per parameter
    array would, and one call on a ``(K, P)`` stack what one call per agent
    would.
    """
    if params.shape != grads.shape or state.m.shape != params.shape:
        raise ValueError("params, grads and Adam moments must have matching shapes")
    state.t += 1
    bc1 = 1.0 - _BETA1**state.t
    bc2 = 1.0 - _BETA2**state.t
    m, v = state.m, state.v
    step, denom = state.work
    m *= _BETA1
    m += np.multiply(grads, 1.0 - _BETA1, out=step)
    v *= _BETA2
    np.square(grads, out=step)
    step *= 1.0 - _BETA2
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.divide(m, bc1, out=step)
    step *= lr
    step /= denom
    params -= step
    return params
