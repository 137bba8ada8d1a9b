"""Test-only reference: the per-layer Q-network learner that ``rlcc.dqn``
used before its parameters became one flat vector.

Every layer owns its (weight, bias) arrays, every pass allocates its
activations, deltas and gradients, and the SGD update walks the layers.
``tests/test_dqn_differential.py`` trains it side by side with
``rlcc.dqn.QNetwork`` and ``train_step`` and requires equal losses, Q-values
and weights.  Kept as it was, apart from a dtype (float64 by default, as
``rlcc.dqn.QNetwork``) that its layers and every pass hold; only the TD
targets, batch stacking and the divergence error come from the package, so
the replay ring serves both learners its cached TD targets through the same
``td_targets``.

``per_batch_train_step`` is the other update replaced: train_step before
the replay ring cached anything, evaluating the target network on each
batch's own next states.  It updates a package ``rlcc.dqn.QNetwork`` through
the package's ``loss_and_grads``, so a test of the ring's cache compares the
TD targets alone.

``select_action`` is the agent step before it tossed the epsilon coin first:
it runs the Q-forward on every step, then ``act_epsilon_greedy`` draws.
"""

from __future__ import annotations

import numpy as np

from rlcc import dqn
from rlcc.dqn import (INPUT_DIM, OUTPUT_DIM, TrainingDivergedError, as_batch,
                      td_targets)


class QNetwork:
    """MLP with parameters stored as (weight [out, in], bias [out]) pairs.

    `version` counts copy_from calls: a replay ring's TD targets are keyed
    on it.
    """

    def __init__(self, hidden_count: int, hidden_width: int,
                 rng: np.random.Generator,
                 input_dim: int = INPUT_DIM, output_dim: int = OUTPUT_DIM,
                 dtype=np.float64):
        sizes = [input_dim] + [hidden_width] * hidden_count + [output_dim]
        self.layers: list[tuple[np.ndarray, np.ndarray]] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # Glorot-uniform weights drawn in float64, zero biases.
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            b = np.zeros(fan_out, dtype)
            self.layers.append((w.astype(dtype), b))
        self.dtype = np.dtype(dtype)
        self.input_dim = input_dim
        self.version = 0

    @classmethod
    def from_layers(cls, layers, dtype=np.float64) -> "QNetwork":
        """Build directly from (weight, bias) pairs; shapes must chain."""
        net = cls.__new__(cls)
        net.layers = [(np.array(w, dtype=dtype), np.array(b, dtype=dtype))
                      for w, b in layers]
        for (w, b), (w_next, _) in zip(net.layers, net.layers[1:]):
            if w.shape[0] != b.shape[0] or w_next.shape[1] != w.shape[0]:
                raise ValueError("layer shapes do not chain")
        net.dtype = np.dtype(dtype)
        net.input_dim = net.layers[0][0].shape[1]
        net.version = 0
        return net

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """The input batch and every layer's output; the last entry is the
        Q-values, shape (n, output_dim)."""
        a = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        if a.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input dim {self.input_dim}, got {a.shape[1]}")
        acts = [a]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            a = a @ w.T + b
            if i < last:
                a = np.maximum(a, 0.0)
            acts.append(a)
        return acts

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        return self.activations(x)[-1]

    def copy_from(self, other: "QNetwork") -> None:
        if [(w.shape, b.shape) for w, b in self.layers] \
                != [(w.shape, b.shape) for w, b in other.layers]:
            raise ValueError("network shapes do not match")
        self.layers = [(w.copy(), b.copy()) for w, b in other.layers]
        self.version += 1

    def clone(self) -> "QNetwork":
        return QNetwork.from_layers(self.layers, self.dtype)


def loss_and_grads(net: QNetwork, states: np.ndarray, actions: np.ndarray,
                   targets: np.ndarray):
    """MSE loss on the taken actions' Q-values and its analytic gradient,
    with grads shaped like net.layers."""
    n = states.shape[0]
    last = len(net.layers) - 1
    activations = net.activations(states)
    q = activations[-1]
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float(np.mean(err ** 2))

    d_out = np.zeros_like(q)
    d_out[idx, actions] = 2.0 * err / n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for i in range(last, -1, -1):
        w, _ = net.layers[i]
        a_prev = activations[i]
        grads[i] = (d_out.T @ a_prev, d_out.sum(axis=0))
        if i > 0:
            d_out = (d_out @ w) * (activations[i] > 0.0)
    return loss, grads


def train_step(net: QNetwork, target_net: QNetwork, batch, lr: float,
               gamma: float) -> float:
    """One TD(0) gradient-descent update in place; returns the batch loss."""
    batch = as_batch(batch)
    targets = td_targets(batch, target_net, gamma)
    loss, grads = loss_and_grads(net, batch.states, batch.actions, targets)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    for (w, b), (dw, db) in zip(net.layers, grads):
        w -= lr * dw
        b -= lr * db
    return loss


def per_batch_train_step(net: dqn.QNetwork, target_net: dqn.QNetwork,
                         batch: dqn.Batch, lr: float, gamma: float) -> float:
    """train_step with the TD targets from one target-network call on the
    batch's own next states, whatever ring the batch was sampled from."""
    next_max = target_net.activations(batch.next_states)[-1].max(axis=1)
    targets = batch.rewards + gamma * next_max * ~batch.done
    loss, grads = dqn.loss_and_grads(net, batch.states, batch.actions, targets)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    for (w, b), (dw, db) in zip(net.layers, grads):
        w -= lr * dw
        b -= lr * db
    return loss


def act_epsilon_greedy(q: np.ndarray, epsilon: float,
                       rng: np.random.Generator) -> int:
    """Uniform random action with probability epsilon, else lowest-index
    argmax."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(q)))
    return int(np.argmax(q))


def select_action(agent: dqn.DqnAgent, state: np.ndarray) -> int:
    """``agent.select_action`` with the greedy Q-values computed before the
    epsilon coin is tossed."""
    agent.last_epsilon = dqn.epsilon_at(agent.cfg, agent.env_steps)
    agent.env_steps += 1
    q = agent.net.activations(state)[-1][0]
    return act_epsilon_greedy(q, agent.last_epsilon, agent.rng)
