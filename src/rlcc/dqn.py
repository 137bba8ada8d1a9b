"""From-scratch deep Q-learning on numpy.

A fully-connected Q-network (ReLU hidden layers, linear output) maps the six
normalized flow observables to Q-values for the three window actions.
Training is online TD(0): uniform replay ring, epsilon-greedy exploration
with geometric decay, a periodically synced target network, MSE loss on the
taken action's Q-value, and plain gradient descent.  Gradients are computed
by hand with reverse-mode accumulation; correctness is pinned by
finite-difference tests.

The target network is frozen between syncs and a stored next state never
changes, so the replay ring keeps each row's next-state target maximum and
evaluates a row again only after a push over it or a sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

INPUT_DIM = 6
OUTPUT_DIM = 3
ALLOWED_HIDDEN_COUNTS = (2, 4, 8)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the caller aborts and records the run."""


class InsufficientDataError(RuntimeError):
    """Replay buffer holds fewer transitions than the requested sample."""


@dataclass(frozen=True)
class Transition:
    state: np.ndarray       # six normalized reals
    action_index: int       # 0 decrease, 1 hold, 2 increase
    reward: float
    next_state: np.ndarray
    done: bool


class Batch(NamedTuple):
    """Transitions as row arrays, one row each: a sampled batch, or the
    replay ring's storage.  A batch sampled from a ring also names the ring
    and the drawn row indices, so td_targets can read the rows' target
    maxima from the ring; it reads the rows as they are then, so train on
    a sampled batch before the next push."""
    states: np.ndarray        # [n, INPUT_DIM] float64
    actions: np.ndarray       # [n] int64
    rewards: np.ndarray       # [n] float64
    next_states: np.ndarray   # [n, INPUT_DIM] float64
    done: np.ndarray          # [n] bool
    ring: "ReplayBuffer | None" = None
    rows: np.ndarray | None = None   # [n] int64 row indices into ring


def as_batch(batch: Batch | Sequence[Transition]) -> Batch:
    """A Batch as is, or a sequence of Transitions stacked into one."""
    if isinstance(batch, Batch):
        if len(batch.rewards) == 0:
            raise ValueError("batch must be non-empty")
        return batch
    if not batch:
        raise ValueError("batch must be non-empty")
    return Batch(np.stack([t.state for t in batch]),
                 np.array([t.action_index for t in batch]),
                 np.array([t.reward for t in batch]),
                 np.stack([t.next_state for t in batch]),
                 np.array([t.done for t in batch]))


@dataclass(frozen=True)
class DqnConfig:
    hidden_count: int = 2
    hidden_width: int = 64
    learning_rate: float = 0.01
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.99
    batch_size: int = 32
    buffer_capacity: int = 5000
    target_sync_every: int = 50
    # Replay updates per environment step; >1 compensates for the short
    # 200-step online episode.
    train_updates_per_step: int = 4
    seed: int = 0

    def validate(self) -> None:
        if self.hidden_count not in ALLOWED_HIDDEN_COUNTS:
            raise ValueError(f"hidden_count must be one of {ALLOWED_HIDDEN_COUNTS}")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_min"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_min > self.epsilon_start:
            raise ValueError("epsilon_min must be <= epsilon_start")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("need 1 <= batch_size <= buffer_capacity")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.train_updates_per_step < 1:
            raise ValueError("train_updates_per_step must be >= 1")


class QNetwork:
    """MLP with parameters stored as (weight [out, in], bias [out]) pairs.

    Any positive hidden depth is accepted here; the {2, 4, 8} restriction is
    a DqnConfig concern.  `version` counts copy_from calls: a replay ring's
    target maxima are keyed on it, so a target network's weights change
    only through copy_from (sync_target).
    """

    def __init__(self, hidden_count: int, hidden_width: int,
                 rng: np.random.Generator,
                 input_dim: int = INPUT_DIM, output_dim: int = OUTPUT_DIM):
        sizes = [input_dim] + [hidden_width] * hidden_count + [output_dim]
        self.layers: list[tuple[np.ndarray, np.ndarray]] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # Glorot-uniform weights, zero biases.
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            b = np.zeros(fan_out)
            self.layers.append((w, b))
        self.hidden_count = hidden_count
        self.hidden_width = hidden_width
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.version = 0

    @classmethod
    def from_layers(cls, layers) -> "QNetwork":
        """Build directly from (weight, bias) pairs; shapes must chain."""
        net = cls.__new__(cls)
        net.layers = [(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64))
                      for w, b in layers]
        for (w, b), (w_next, _) in zip(net.layers, net.layers[1:]):
            if w.shape[0] != b.shape[0] or w_next.shape[1] != w.shape[0]:
                raise ValueError("layer shapes do not chain")
        net.hidden_count = len(net.layers) - 1
        net.hidden_width = net.layers[0][0].shape[0] if net.hidden_count else 0
        net.input_dim = net.layers[0][0].shape[1]
        net.output_dim = net.layers[-1][0].shape[0]
        net.version = 0
        return net

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """The input batch and every layer's output; the last entry is the
        Q-values, shape (n, output_dim)."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
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
        """Q-values for a batch of states, shape (n, output_dim)."""
        return self.activations(x)[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_batch(x)[0]

    def copy_from(self, other: "QNetwork") -> None:
        if [(w.shape, b.shape) for w, b in self.layers] \
                != [(w.shape, b.shape) for w, b in other.layers]:
            raise ValueError("network shapes do not match")
        self.layers = [(w.copy(), b.copy()) for w, b in other.layers]
        self.version += 1

    def clone(self) -> "QNetwork":
        return QNetwork.from_layers(self.layers)


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Make the target a value copy of the online network."""
    target_net.copy_from(net)


def act_epsilon_greedy(q: np.ndarray, epsilon: float,
                       rng: np.random.Generator) -> int:
    """Uniform random action with probability epsilon, else lowest-index
    argmax."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(q)))
    return int(np.argmax(q))


def epsilon_at(cfg: DqnConfig, step: int) -> float:
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay ** step)


def next_state_maxima(target_net: QNetwork,
                      next_states: np.ndarray) -> np.ndarray:
    """max_a' Q_target(s', a') per row, from one forward call."""
    return target_net.forward_batch(next_states).max(axis=1)


def td_targets(batch: Batch | Sequence[Transition], target_net: QNetwork,
               gamma: float) -> np.ndarray:
    """Bellman backups: r, or r + gamma * max_a' Q_target(s', a').

    A batch sampled from a ReplayBuffer reads its maxima from the ring's
    per-row column, evaluating the ring's stale rows first; any other batch
    is evaluated in one call on its own rows.
    """
    batch = as_batch(batch)
    if batch.ring is None:
        next_max = next_state_maxima(target_net, batch.next_states)
    else:
        next_max = batch.ring.target_maxima(target_net, batch.rows)
    return batch.rewards + gamma * next_max * ~batch.done


def loss_and_grads(net: QNetwork, states: np.ndarray, actions: np.ndarray,
                   targets: np.ndarray):
    """MSE loss on the taken actions' Q-values and its analytic gradient.

    Only the taken action's output contributes to each sample's gradient.
    Returns (loss, grads) with grads shaped like net.layers.
    """
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


def train_step(net: QNetwork, target_net: QNetwork,
               batch: Batch | Sequence[Transition], lr: float,
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


class ReplayBuffer:
    """Uniform FIFO replay ring of preallocated row arrays; sampling is
    without replacement.  Push k (counting from 0) writes row k % capacity,
    so the oldest transition is the one overwritten.

    Each row also has a cached next-state target maximum and a mark saying
    whether it is fresh.  A push marks its row stale; a change of target
    network, of its version (a sync) or of the batch size marks every row
    stale.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = Batch(np.empty((capacity, INPUT_DIM)),
                           np.empty(capacity, dtype=np.int64),
                           np.empty(capacity),
                           np.empty((capacity, INPUT_DIM)),
                           np.empty(capacity, dtype=bool))
        self._pushed = 0
        self._next_max = np.empty(capacity)
        self._fresh = np.zeros(capacity, dtype=bool)
        self._maxima_key = None   # (target net, its version, chunk rows)

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, tr: Transition) -> None:
        # Row assignment would broadcast a wrongly shaped state silently.
        if np.shape(tr.state) != (INPUT_DIM,) \
                or np.shape(tr.next_state) != (INPUT_DIM,):
            raise ValueError(f"states must have shape ({INPUT_DIM},)")
        row = self._pushed % self.capacity
        rows = self._rows
        rows.states[row] = tr.state
        rows.actions[row] = tr.action_index
        rows.rewards[row] = tr.reward
        rows.next_states[row] = tr.next_state
        rows.done[row] = tr.done
        self._fresh[row] = False
        self._pushed += 1

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        if n > len(self):
            raise InsufficientDataError(
                f"buffer holds {len(self)} < {n} transitions")
        idx = rng.choice(len(self), size=n, replace=False)
        rows = self._rows
        return Batch(rows.states[idx], rows.actions[idx], rows.rewards[idx],
                     rows.next_states[idx], rows.done[idx], self, idx)

    def target_maxima(self, target_net: QNetwork,
                      idx: np.ndarray) -> np.ndarray:
        """Next-state target maxima of rows idx, read from the column.

        When a drawn row is stale, every stale row is evaluated first, so
        rows pushed since the last evaluation share its calls.  Each call
        has exactly len(idx) rows, the last one zero-padded, because a BLAS
        gemm row's bits can depend on the call's row count.  Where they do
        not also depend on the row's position in the call (OpenBLAS's
        Haswell dgemm at width 64: 1-4 rows or a multiple of 4, the default
        32 included), each maximum equals the one a sampled batch evaluates
        itself; at other sizes the two may differ in their last bits.
        """
        chunk = len(idx)
        key = (target_net, target_net.version, chunk)
        if key != self._maxima_key:
            self._fresh[:] = False
            self._maxima_key = key
        if not self._fresh[idx].all():
            stale = np.flatnonzero(~self._fresh[:len(self)])
            padded = np.zeros((-(-stale.size // chunk) * chunk, INPUT_DIM))
            padded[:stale.size] = self._rows.next_states[stale]
            maxima = [next_state_maxima(target_net, padded[i:i + chunk])
                      for i in range(0, len(padded), chunk)]
            self._next_max[stale] = np.concatenate(maxima)[:stale.size]
            self._fresh[stale] = True
        return self._next_max[idx]


class DqnAgent:
    """Online DQN loop state: policy/target nets, buffer, epsilon schedule.

    One train_step per environment step once the buffer can fill a batch;
    the target network re-syncs every target_sync_every train steps.
    """

    def __init__(self, cfg: DqnConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.net = QNetwork(cfg.hidden_count, cfg.hidden_width, self.rng)
        self.target_net = self.net.clone()
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.env_steps = 0
        self.train_steps = 0
        self.last_epsilon = cfg.epsilon_start

    def select_action(self, state: np.ndarray) -> int:
        self.last_epsilon = epsilon_at(self.cfg, self.env_steps)
        self.env_steps += 1
        q = self.net.forward(state)
        return act_epsilon_greedy(q, self.last_epsilon, self.rng)

    def observe(self, tr: Transition) -> None:
        self.buffer.push(tr)

    def learn(self) -> float | None:
        """Train on one sampled batch if enough data; returns the loss."""
        if len(self.buffer) < self.cfg.batch_size:
            return None
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        loss = train_step(self.net, self.target_net, batch,
                          self.cfg.learning_rate, self.cfg.gamma)
        self.train_steps += 1
        if self.train_steps % self.cfg.target_sync_every == 0:
            sync_target(self.net, self.target_net)
        return loss
