"""From-scratch deep Q-learning on numpy.

A fully-connected Q-network (ReLU hidden layers, linear output) maps the six
normalized flow observables to Q-values for the three window actions.
Training is online TD(0): uniform replay ring, epsilon-greedy exploration
with geometric decay, a periodically synced target network, MSE loss on the
taken action's Q-value, and plain gradient descent.  Gradients are computed
by hand with reverse-mode accumulation; correctness is pinned by
finite-difference tests.  A network's parameters are one flat vector, so an
update or a target sync is one vector operation, and its passes write into
buffers it keeps per row count (see QNetwork for how long results live).
The agent keeps its networks and replay ring in float32 (DqnAgent.dtype);
a network or ring built on its own is float64 unless given a dtype.
Every product is an np.dot with the row-major activations or deltas on the
left: the one orientation measured bit-equal at every row count.

The target network is frozen between syncs and a stored row never changes,
so the replay ring keeps each row's TD target and evaluates a row again only
after a push over it, a sync or a new gamma.  The agent runs its Q-forward
only on the steps its epsilon coin exploits.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .schema import DqnConfig

INPUT_DIM = 6
OUTPUT_DIM = 3


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the caller aborts and records the run."""


class Transition(NamedTuple):
    """One replay row in push's order; a caller's batch is a list of these."""
    state: np.ndarray       # six normalized reals
    action_index: int       # 0 decrease, 1 hold, 2 increase
    reward: float
    next_state: np.ndarray
    done: bool


class Batch(NamedTuple):
    """Transitions as row arrays, one row each: a sampled batch, or the
    replay ring's storage.  A batch sampled from a ring also names the ring
    and the drawn row indices, so td_targets can read the rows' TD targets
    from the ring; it reads the rows as they are then, so train on
    a sampled batch before the next push."""
    states: np.ndarray        # [n, INPUT_DIM] float (a ring's dtype)
    actions: np.ndarray       # [n] int64
    rewards: np.ndarray       # [n] float
    next_states: np.ndarray   # [n, INPUT_DIM] float
    done: np.ndarray          # [n] bool
    ring: "ReplayBuffer | None" = None
    rows: np.ndarray | None = None   # [n] int64 row indices into ring


def check_actions(actions) -> None:
    """Reject action indices that are not integers in 0..OUTPUT_DIM-1: the
    flat gather of the taken Q-values would read a neighbouring row's."""
    actions = np.asarray(actions)
    if actions.dtype.kind not in "iu" or actions.size and not \
            0 <= actions.min() <= actions.max() < OUTPUT_DIM:
        raise ValueError(f"actions must be integers in 0..{OUTPUT_DIM - 1}")


def as_batch(batch: Batch | Sequence[Transition]) -> Batch:
    """A Batch as is, or a sequence of Transitions stacked field by field
    into one.  A batch not sampled from a ring has its actions checked here;
    a ring checks each action at push."""
    if not isinstance(batch, Batch):
        if not batch:
            raise ValueError("batch must be non-empty")
        batch = Batch(*map(np.array, zip(*batch)))
    if len(batch.rewards) == 0:
        raise ValueError("batch must be non-empty")
    if batch.ring is None:
        check_actions(batch.actions)
    return batch


class QNetwork:
    """MLP with every weight and bias in one vector `theta` of `dtype`, and
    `layers` its (weight [out, in], bias [out]) views; `grad`, laid out the
    same, takes train_step's gradient.  Passes run on buffers kept per row
    count (a run uses 1 and the batch size): the list `activations` returns
    is valid only until the next call on this network at that row count.
    Its hidden outputs are views of one block, so one call takes every ReLU
    mask, held as 0/1 in the network's dtype.  theta is only written in
    place, so cached views of it stay valid.

    Any hidden depth is accepted here; the {2, 4, 8} restriction is a
    DqnConfig concern.  `version` counts copy_from calls: a replay ring's
    TD targets are keyed on it, so a target network's weights change only
    through copy_from.
    """

    def __init__(self, hidden_count: int, hidden_width: int,
                 rng: np.random.Generator | None, dtype=np.float64):
        self.sizes = (INPUT_DIM,) + (hidden_width,) * hidden_count \
            + (OUTPUT_DIM,)
        self.dtype = np.dtype(dtype)
        size = sum((fan_in + 1) * fan_out
                   for fan_in, fan_out in zip(self.sizes, self.sizes[1:]))
        # numpy raises ValueError for an array of more bytes than intp holds
        if size * self.dtype.itemsize > np.iinfo(np.intp).max:
            raise MemoryError(f"network of {size} parameters")
        self.theta = np.zeros(size, self.dtype)
        self._zero = np.zeros((), self.dtype)   # ReLU's floor, cast once
        self.grad = np.empty_like(self.theta)
        self.layers = self._views(self.theta)
        self._forward_layers = [(w.T, b) for w, b in self.layers]
        self._grad_layers = self._views(self.grad)
        self._work: dict[int, dict] = {}
        self.version = 0
        for w, _ in self.layers if rng is not None else ():
            # Glorot-uniform weights, zero biases (all zeros without rng);
            # drawn in float64 whatever the dtype, so the rng's stream is too.
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into a vector laid out like theta."""
        views, at = [], 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            end = at + fan_out * fan_in
            views.append((flat[at:end].reshape(fan_out, fan_in),
                          flat[end:end + fan_out]))
            at = end + fan_out
        return views

    @classmethod
    def from_layers(cls, layers, dtype=np.float64) -> "QNetwork":
        """A network of dtype holding copies of (weight [out, in], bias
        [out]) pairs, every hidden layer of one width; every shape must
        chain."""
        layers = [(np.asarray(w, dtype), np.asarray(b, dtype))
                  for w, b in layers]
        if not layers or any(w.ndim != 2 for w, _ in layers):
            raise ValueError("need at least one layer, each weight 2-D")
        net = cls(len(layers) - 1, layers[0][0].shape[0], None, dtype)
        for (w, b), (view_w, view_b) in zip(layers, net.layers):
            if w.shape != view_w.shape or b.shape != view_b.shape:
                raise ValueError("layer shapes must chain, one hidden width")
            view_w[...] = w
            view_b[...] = b
        return net

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """The input batch and every layer's output; the last entry is the
        Q-values, shape (n, output width), all of the network's dtype."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim < 2:
            a = a.reshape(1, -1)
        if a.shape[1] != INPUT_DIM:
            raise ValueError(
                f"expected input dim {INPUT_DIM}, got {a.shape[1]}")
        n = a.shape[0]
        if n not in self._work:   # this network's buffers for n rows
            hidden = np.empty((len(self.sizes) - 2, n, self.sizes[1]),
                              self.dtype)
            self._work[n] = dict(
                acts=[None, *hidden, np.empty((n, OUTPUT_DIM), self.dtype)],
                hidden=hidden,   # acts[1:-1] are views of this block
                deltas=[np.empty((n, k), self.dtype) for k in self.sizes[1:]],
                masks=np.empty(hidden.shape, self.dtype),
                row_starts=np.arange(n) * OUTPUT_DIM,   # flat index of Q[i, 0]
                taken=np.empty(n, dtype=np.int64))
        acts = self._work[n]["acts"]
        acts[0] = a
        last = len(self.layers) - 1
        for i, (w_t, b) in enumerate(self._forward_layers):
            a = np.dot(a, w_t, out=acts[i + 1])
            a += b
            if i < last:
                np.maximum(a, self._zero, out=a)
        return acts

    def copy_from(self, other: "QNetwork") -> None:
        if other.sizes != self.sizes:
            raise ValueError("network shapes do not match")
        self.theta[:] = other.theta
        self.version += 1

    def clone(self) -> "QNetwork":
        return QNetwork.from_layers(self.layers, self.dtype)


def epsilon_at(cfg: DqnConfig, step: int) -> float:
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay ** step)


def td_targets(batch: Batch | Sequence[Transition], target_net: QNetwork,
               gamma: float) -> np.ndarray:
    """Bellman backups: r, or r + gamma * max_a' Q_target(s', a').

    A batch sampled from a ReplayBuffer reads its targets from the ring's
    per-row column, evaluating the ring's stale rows first; any other batch
    is evaluated in one call on its own rows.
    """
    batch = as_batch(batch)
    if batch.ring is not None:
        return batch.ring.td_targets(target_net, gamma, batch.rows)
    next_max = target_net.activations(batch.next_states)[-1].max(axis=1)
    return batch.rewards + gamma * next_max * ~batch.done


def loss_and_grads(net: QNetwork, states: np.ndarray, actions: np.ndarray,
                   targets: np.ndarray, in_place: bool = False):
    """MSE loss on the taken actions' Q-values and its analytic gradient.

    Only the taken action's output contributes to each sample's gradient.
    Returns (loss, grads), grads being (weight, bias) views like net.layers
    into a fresh vector laid out like net.theta.  in_place writes net.grad
    instead, which later calls overwrite; only train_step passes it, with
    actions its batch has checked.
    """
    if in_place:
        grads = net._grad_layers
    else:
        check_actions(actions)
        grads = net._views(np.empty_like(net.theta))
    acts = net.activations(states)
    n = acts[0].shape[0]
    work = net._work[n]
    taken = np.add(work["row_starts"], actions, out=work["taken"])
    err = acts[-1].take(taken)
    err -= targets
    loss = float((err * err).sum() / n)   # np.mean(err ** 2), bit for bit
    err *= 2.0
    err /= n

    d_out = work["deltas"][-1]
    d_out.fill(0.0)
    np.put(d_out, taken, err)
    masks = np.greater(work["hidden"], net._zero, out=work["masks"])
    for i in range(len(net.layers) - 1, -1, -1):
        dw, db = grads[i]
        np.dot(d_out.T, acts[i], out=dw)
        np.add.reduce(d_out, 0, None, db)
        if i > 0:
            d_out = np.dot(d_out, net.layers[i][0], out=work["deltas"][i - 1])
            d_out *= masks[i - 1]
    return loss, grads


def train_step(net: QNetwork, target_net: QNetwork,
               batch: Batch | Sequence[Transition], lr: float,
               gamma: float) -> float:
    """One TD(0) gradient-descent update in place; returns the batch loss."""
    batch = as_batch(batch)
    targets = td_targets(batch, target_net, gamma)
    loss, _ = loss_and_grads(net, batch.states, batch.actions, targets,
                             in_place=True)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    net.grad *= lr
    net.theta -= net.grad
    return loss


class ReplayBuffer:
    """Uniform FIFO replay ring of preallocated row arrays, the float ones
    of `dtype`; sampling is without replacement.  Push k (counting from 0)
    writes row k % capacity, so the oldest transition is the one
    overwritten.

    Each row also has a cached TD target, r + gamma * max_a' Q_target(s',
    a') * (not done), and a mark saying whether it is fresh.  A push marks
    its row stale; a change of target network, of its version (a sync), of
    the batch size or of gamma marks every row stale.
    """

    def __init__(self, capacity: int, dtype=np.float64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.dtype = np.dtype(dtype)
        if capacity * INPUT_DIM * self.dtype.itemsize \
                > np.iinfo(np.intp).max:   # as QNetwork
            raise MemoryError(f"replay ring of {capacity} rows")
        self.capacity = capacity
        self._rows = Batch(np.empty((capacity, INPUT_DIM), self.dtype),
                           np.empty(capacity, dtype=np.int64),
                           np.empty(capacity, self.dtype),
                           np.empty((capacity, INPUT_DIM), self.dtype),
                           np.empty(capacity, dtype=bool))
        self._pushed = 0
        self._targets = np.empty(capacity, self.dtype)
        self._fresh = np.zeros(capacity, dtype=bool)
        self._targets_key = None   # (target net, its version, chunk, gamma)

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, state: np.ndarray, action_index: int, reward: float,
             next_state: np.ndarray, done: bool) -> None:
        # Row assignment would silently broadcast a bad shape or cast 1.7 to 1.
        if np.shape(state) != (INPUT_DIM,) \
                or np.shape(next_state) != (INPUT_DIM,):
            raise ValueError(f"states must have shape ({INPUT_DIM},)")
        if isinstance(action_index, bool) \
                or not isinstance(action_index, (int, np.integer)) \
                or not 0 <= action_index < OUTPUT_DIM:
            raise ValueError(
                f"action_index must be an integer in 0..{OUTPUT_DIM - 1}")
        row = self._pushed % self.capacity
        rows = self._rows
        rows.states[row] = state
        rows.actions[row] = action_index
        rows.rewards[row] = reward
        rows.next_states[row] = next_state
        rows.done[row] = done
        self._fresh[row] = False
        self._pushed += 1

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        if n > len(self):
            raise RuntimeError(f"buffer holds {len(self)} < {n} transitions")
        idx = rng.choice(len(self), size=n, replace=False)
        rows = self._rows
        return Batch(rows.states.take(idx, 0), rows.actions.take(idx, 0),
                     rows.rewards.take(idx, 0), rows.next_states.take(idx, 0),
                     rows.done.take(idx, 0), self, idx)

    def td_targets(self, target_net: QNetwork, gamma: float,
                   idx: np.ndarray) -> np.ndarray:
        """TD targets of rows idx, read from the column.

        When a drawn row is stale, every stale row is evaluated first, so
        rows pushed since the last evaluation share its calls; a target is
        td_targets' elementwise expression on the row's maximum, so it has
        the same bits.  Each call has exactly len(idx) rows, the last one
        zero-padded, because a BLAS gemm row's bits can depend on the call's
        row count: on the sgemm and the dgemm OpenBLAS ran at width 64
        (runtime core SkylakeX; Haswell is only the build target numpy
        reports), a row in a k-row call matched the same row in a 32-row
        call only for k = 20, 24, 28 and 32, so less padding would change
        training's last bits.  Where a row's bits do not also depend on its
        position in the call (there, at both precisions: 1-4 rows or a
        multiple of 4, measured up to 40, the default 32 included), each
        target equals the one a sampled batch evaluates itself; at other
        sizes the two may differ in their last bits.
        """
        chunk = len(idx)
        key = (target_net, target_net.version, chunk, gamma)
        if key != self._targets_key:
            self._fresh[:] = False
            self._targets_key = key
        if not self._fresh[idx].all():
            rows, stale = self._rows, np.flatnonzero(~self._fresh[:len(self)])
            padded = np.zeros((-(-stale.size // chunk) * chunk, INPUT_DIM),
                              self.dtype)
            padded[:stale.size] = rows.next_states[stale]
            next_max = np.concatenate([
                target_net.activations(padded[i:i + chunk])[-1].max(axis=1)
                for i in range(0, len(padded), chunk)])[:stale.size]
            self._targets[stale] = \
                rows.rewards[stale] + gamma * next_max * ~rows.done[stale]
            self._fresh[stale] = True
        return self._targets.take(idx)


class DqnAgent:
    """Online DQN loop state: policy/target nets, buffer, epsilon schedule.

    One train_step per environment step once the buffer can fill a batch;
    the target network re-syncs every target_sync_every train steps.  Both
    networks and the ring hold `dtype`: float32 runs a learn in about 80 %
    of float64's time, and the default grid's regression table is the same.
    """

    dtype = np.float32

    def __init__(self, cfg: DqnConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.net = QNetwork(cfg.hidden_count, cfg.hidden_width, self.rng,
                            self.dtype)
        self.target_net = self.net.clone()
        self.buffer = ReplayBuffer(cfg.buffer_capacity, self.dtype)
        self.env_steps = 0
        self.train_steps = 0
        self.last_epsilon = cfg.epsilon_start

    def select_action(self, state: np.ndarray) -> int:
        """A uniform random action with probability epsilon, else the
        lowest-index argmax Q; the coin (not tossed at epsilon 0) comes
        first, so an exploratory step runs no Q-forward."""
        if np.shape(state) != (INPUT_DIM,):
            raise ValueError(f"state must have shape ({INPUT_DIM},)")
        self.last_epsilon = epsilon = epsilon_at(self.cfg, self.env_steps)
        self.env_steps += 1
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return int(self.rng.integers(OUTPUT_DIM))
        return int(np.argmax(self.net.activations(state)[-1][0]))

    def learn(self) -> float | None:
        """Train on one sampled batch if enough data; returns the loss."""
        if len(self.buffer) < self.cfg.batch_size:
            return None
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        loss = train_step(self.net, self.target_net, batch,
                          self.cfg.learning_rate, self.cfg.gamma)
        self.train_steps += 1
        if self.train_steps % self.cfg.target_sync_every == 0:
            self.target_net.copy_from(self.net)
        return loss
