"""Differential tests of the learner against the code it replaced.

The replay ring's cached TD targets are checked against the per-batch
update that evaluated the target network on every sampled batch,
``reference_dqn.per_batch_train_step``, the flat-parameter QNetwork and
train_step against the per-layer learner in ``tests/reference_dqn.py``, and
the agent's coin-first epsilon-greedy step against the forward-first one,
``reference_dqn.select_action``.  Each comparison runs at float64 and at the
agent's float32.

`ReferenceAgent` is DqnAgent with the per-batch update.  Both agents are
driven through buffer.push/learn on the same transitions and seeds, so they
draw the same samples.  The draws cover ring wrap (capacity below the
number of pushes), syncs from every update to rarely, and batch sizes 1-32.

Every comparison is bit for bit but one.  The flat and the per-layer
learner run the same gemm calls on the same rows, so they agree at every
row count.  The ring evaluates a row in a call of batch-size rows at some
position, the per-batch update at its sampled position; the two agree only
where BLAS gives a row the same bits at every position of a call of that
size.  At width 64 the dgemm and the sgemm OpenBLAS runs do so for 1-4 rows
and the multiples of 4 up to 40, the default 32 included; at other sizes
they compute the last rows with a narrower kernel.  So the cached-targets
test at float64, which draws every batch size 1-32, holds losses and
weights to 1e-9 relative at the other sizes, and at float32 draws only
these sizes.  A row in a k-row call also gets the bits of a 32-row call for
the same k, 20, 24, 28 and 32.  This was measured on the SkylakeX core
OpenBLAS 0.3.31 picked at run time; the "Haswell" numpy's show_config
reports is its DYNAMIC_ARCH build target, not the kernel that ran.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_dqn
from rlcc import cli, dqn
from rlcc.dqn import (DqnAgent, QNetwork, ReplayBuffer, Transition,
                      TrainingDivergedError, loss_and_grads)
from rlcc.experiments import FactorLevels, enumerate_runs, execute_run
from rlcc.schema import ALLOWED_HIDDEN_COUNTS, DqnConfig

DTYPES = pytest.mark.parametrize("dtype", ["float64", "float32"])


def assert_bitwise(got, want):
    # NaNs must sit at the same places
    assert np.array_equal(got, want, equal_nan=True)


def rows_independent_of_position(net, n):
    """Whether a forward call on n rows gives each row the same bits at
    every position; rotations move each row through all of them."""
    x = np.random.default_rng(n).normal(size=(n, 6))
    q = net.activations(x)[-1].copy()
    return all(np.array_equal(np.roll(q, shift, axis=0),
                              net.activations(np.roll(x, shift, axis=0))[-1])
               for shift in range(1, n))


@pytest.mark.parametrize("depth", ALLOWED_HIDDEN_COUNTS)
@DTYPES
def test_default_batch_is_position_independent(dtype, depth):
    """The premise under which default runs are byte-identical to the
    per-batch evaluation."""
    cfg = DqnConfig(hidden_count=depth)
    net = QNetwork(depth, cfg.hidden_width, np.random.default_rng(depth),
                   dtype)
    assert rows_independent_of_position(net, cfg.batch_size)


class ReferenceAgent(DqnAgent):
    def learn(self):
        if len(self.buffer) < self.cfg.batch_size:
            return None
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        loss = reference_dqn.per_batch_train_step(
            self.net, self.target_net, batch, self.cfg.learning_rate,
            self.cfg.gamma)
        self.train_steps += 1
        if self.train_steps % self.cfg.target_sync_every == 0:
            self.target_net.copy_from(self.net)
        return loss


class Float64Agent(DqnAgent):
    dtype = np.float64


class Float64ReferenceAgent(ReferenceAgent):
    dtype = np.float64


def cached_maxima_draws(batch_sizes):
    """The draws of a cached-maxima test, its batch sizes from batch_sizes."""
    def draws(test):
        # a batch of one that diverges on the last of its 92 updates (float64)
        test = example(depth=4, batch_size=1, capacity_extra=6, pushes=23,
                       sync_every=1, updates=4, seed=49)(test)
        # the ring wraps many times between syncs
        test = example(depth=4, batch_size=8, capacity_extra=12, pushes=60,
                       sync_every=60, updates=4, seed=2)(test)
        # the default batch and a sync every 7 updates, without wrap
        test = example(depth=2, batch_size=32, capacity_extra=60, pushes=60,
                       sync_every=7, updates=4, seed=1)(test)
        return settings(max_examples=60, deadline=None)(given(
            depth=st.sampled_from(ALLOWED_HIDDEN_COUNTS),
            batch_size=batch_sizes,
            capacity_extra=st.integers(0, 80), pushes=st.integers(1, 70),
            sync_every=st.integers(1, 60), updates=st.integers(1, 4),
            seed=st.integers(0, 2**32 - 1))(test))
    return draws


#: dtype -> the agent, its per-batch reference and the batch sizes drawn;
#: at float32 only those at which sgemm gives each row the same bits anywhere
CACHED_MAXIMA_CASES = {
    "float64": (Float64Agent, Float64ReferenceAgent, st.integers(1, 32)),
    "float32": (DqnAgent, ReferenceAgent,
                st.sampled_from([1, 2, 3, 4, 8, 12, 16, 20, 24, 28, 32])),
}


@DTYPES
def test_cached_maxima_match_per_batch_evaluation(dtype):
    agent_cls, reference_cls, batch_sizes = CACHED_MAXIMA_CASES[dtype]

    @cached_maxima_draws(batch_sizes)
    def check(**draws):
        check_cached_maxima(agent_cls, reference_cls, **draws)
    check()


# a diverging learner overflows, and its loss check flags it, as in a run
@np.errstate(over="ignore", invalid="ignore")
def check_cached_maxima(agent_cls, reference_cls, depth, batch_size,
                        capacity_extra, pushes, sync_every, updates, seed):
    cfg = DqnConfig(hidden_count=depth, batch_size=batch_size,
                    buffer_capacity=batch_size + capacity_extra,
                    target_sync_every=sync_every, seed=seed)
    agent, reference = agent_cls(cfg), reference_cls(cfg)
    exact = rows_independent_of_position(agent.target_net, batch_size)
    # the tolerances below are float64's
    assert exact or agent.dtype == np.float64
    source = np.random.default_rng(seed)
    diverged = False
    for _ in range(pushes):
        tr = Transition(source.normal(size=6), int(source.integers(3)),
                        float(source.normal()), source.normal(size=6),
                        bool(source.random() < 0.2))
        agent.buffer.push(*tr)
        reference.buffer.push(*tr)
        for _ in range(updates):
            try:
                loss = agent.learn()
            except TrainingDivergedError:
                # training may diverge; the reference must, on the same update
                with pytest.raises(TrainingDivergedError):
                    reference.learn()
                diverged = True
                break
            ref_loss = reference.learn()
            if exact or ref_loss is None:
                assert loss == ref_loss
            else:
                assert loss == pytest.approx(ref_loss, rel=1e-9)
        if diverged:
            break
    assert agent.train_steps == reference.train_steps
    for got, want in zip(agent.net.layers, reference.net.layers):
        for array, ref_array in zip(got, want):
            # NaNs must sit at the same places, as assert_allclose requires
            if exact:
                assert_bitwise(array, ref_array)
            else:
                np.testing.assert_allclose(array, ref_array, rtol=1e-9,
                                           atol=1e-12)


EPSILON_SCHEDULES = {
    "decaying": dict(epsilon_decay=0.97),   # under epsilon_min by step 99
    "zero": dict(epsilon_start=0.0, epsilon_min=0.0),
    "one": dict(epsilon_min=1.0),
}


@DTYPES
@pytest.mark.parametrize("schedule", EPSILON_SCHEDULES)
def test_coin_first_action_matches_forward_first_reference(dtype, schedule):
    """select_action tosses the epsilon coin before any Q-forward; after
    every call its action, epsilon and agent rng state equal those of the
    step that ran the forward first."""
    agent_cls = Float64Agent if dtype == "float64" else DqnAgent
    cfg = DqnConfig(seed=11, **EPSILON_SCHEDULES[schedule])
    agent, reference = agent_cls(cfg), agent_cls(cfg)
    for state in np.random.default_rng(3).normal(size=(300, 6)):
        action = agent.select_action(state)
        assert action == reference_dqn.select_action(reference, state)
        assert agent.last_epsilon == reference.last_epsilon
        assert agent.rng.bit_generator.state \
            == reference.rng.bit_generator.state
    assert agent.env_steps == reference.env_steps == 300


def test_target_forwards_are_inside_td_targets_and_few(monkeypatch):
    """One default depth-8 run: every target-network evaluation happens in
    a td_targets call, and there are at most a third as many as updates."""
    agents = []
    init = DqnAgent.__init__

    def recording_init(self, cfg):
        init(self, cfg)
        agents.append(self)

    open_td_calls = [0]
    td_targets = dqn.td_targets

    def counting_td_targets(*args, **kwargs):
        open_td_calls[0] += 1
        try:
            return td_targets(*args, **kwargs)
        finally:
            open_td_calls[0] -= 1

    target_forwards = []   # per call: was a td_targets call open
    activations = dqn.QNetwork.activations

    def recording_activations(self, x):
        if self is agents[0].target_net:
            target_forwards.append(open_td_calls[0] > 0)
        return activations(self, x)

    monkeypatch.setattr(DqnAgent, "__init__", recording_init)
    monkeypatch.setattr(dqn, "td_targets", counting_td_targets)
    monkeypatch.setattr(dqn.QNetwork, "activations", recording_activations)
    _, env_cfg, dqn_cfg = cli.build_configs({})
    spec = next(s for s in enumerate_runs(FactorLevels(), reps=1)
                if s.layers == 8)
    record, _ = execute_run(spec, env_cfg, dqn_cfg)

    assert not record.diverged and len(agents) == 1
    updates = agents[0].train_steps
    assert updates > 0 and target_forwards
    assert all(target_forwards)
    assert len(target_forwards) <= updates / 3


def reference_theta(net):
    return np.concatenate([np.concatenate([w.ravel(), b])
                           for w, b in net.layers])


@DTYPES
# a narrow net at an odd batch size
@example(depth=3, width=7, batch_size=5, capacity_extra=3, pushes=40,
         sync_every=4, lr=0.02, seed=3)
# the default network and batch; the ring wraps and the target syncs often
@example(depth=8, width=64, batch_size=32, capacity_extra=0, pushes=50,
         sync_every=5, lr=0.001, seed=2)
@example(depth=2, width=64, batch_size=32, capacity_extra=8, pushes=60,
         sync_every=3, lr=0.01, seed=1)
@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 8), width=st.sampled_from([1, 7, 64]),
       batch_size=st.integers(1, 40), capacity_extra=st.integers(0, 30),
       pushes=st.integers(1, 60), sync_every=st.integers(1, 12),
       lr=st.floats(1e-4, 0.05), seed=st.integers(0, 2**32 - 1))
def test_flat_learner_matches_per_layer_reference(
        dtype, depth, width, batch_size, capacity_extra, pushes, sync_every,
        lr, seed):
    """Both learners take the same updates and syncs from two rings fed the
    same pushes and sampled with the same seed.  A gradient an outside
    caller gets from loss_and_grads is held across each update.  Losses,
    held gradients, Q-values and weights must be bitwise equal at every
    batch size: the two learners run the same gemm calls on the same rows.
    A run that diverges must diverge on the same update in both."""
    net = QNetwork(depth, width, np.random.default_rng(seed), dtype)
    ref = reference_dqn.QNetwork(depth, width, np.random.default_rng(seed),
                                 dtype=dtype)
    assert_bitwise(net.theta, reference_theta(ref))
    target, ref_target = net.clone(), ref.clone()
    capacity = batch_size + capacity_extra
    ring = ReplayBuffer(capacity, dtype)
    ref_ring = ReplayBuffer(capacity, dtype)
    rng, ref_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    source = np.random.default_rng(seed)
    probe = source.normal(size=(batch_size, 6))
    updates = 0
    for _ in range(pushes):
        tr = Transition(source.normal(size=6), int(source.integers(3)),
                        float(source.normal()), source.normal(size=6),
                        bool(source.random() < 0.2))
        ring.push(*tr)
        ref_ring.push(*tr)
        if len(ring) < batch_size:
            continue
        batch = ring.sample(batch_size, rng)
        ref_batch = ref_ring.sample(batch_size, ref_rng)
        held = loss_and_grads(net, batch.states, batch.actions, batch.rewards)
        ref_held = reference_dqn.loss_and_grads(
            ref, ref_batch.states, ref_batch.actions, ref_batch.rewards)
        try:
            loss = dqn.train_step(net, target, batch, lr, 0.95)
        except TrainingDivergedError:
            # a large lr may diverge; the reference must, on the same update
            with pytest.raises(TrainingDivergedError):
                reference_dqn.train_step(ref, ref_target, ref_batch, lr, 0.95)
            break
        ref_loss = reference_dqn.train_step(ref, ref_target, ref_batch, lr,
                                            0.95)
        assert_bitwise(loss, ref_loss)
        assert_bitwise(held[0], ref_held[0])
        for got, want in zip(held[1], ref_held[1]):
            assert_bitwise(got[0], want[0])
            assert_bitwise(got[1], want[1])
        updates += 1
        if updates % sync_every == 0:
            target.copy_from(net)
            ref_target.copy_from(ref)
        assert_bitwise(net.activations(probe)[-1], ref.forward_batch(probe))
    assert target.version == ref_target.version
    assert_bitwise(net.theta, reference_theta(ref))
    assert_bitwise(target.theta, reference_theta(ref_target))


@DTYPES
def test_every_row_count_matches_reference_bitwise(dtype):
    """The flat learner's forward pass, loss and gradients equal the
    per-layer reference bit for bit at every row count, not only at
    position-stable ones: both run the same products in the same
    orientation on the same rows.  Computing a layer as W @ A.T into a
    transposed buffer instead of A @ W.T changes the last bits at some row
    counts; depth 0 checks a network without hidden layers."""
    rng = np.random.default_rng(19)
    for depth in range(9):
        for width in (1, 7, 16, 64):
            net = QNetwork(depth, width, rng, dtype)
            for _, b in net.layers:
                b[...] = rng.normal(scale=0.1, size=b.shape)
            ref = reference_dqn.QNetwork.from_layers(net.layers, dtype)
            for n in range(1, 41):
                x = rng.normal(size=(n, 6))
                actions = rng.integers(3, size=n)
                # of the network's dtype, as a ring's rewards are
                targets = rng.normal(size=n).astype(dtype)
                where = (depth, width, n)
                assert np.array_equal(net.activations(x)[-1],
                                      ref.activations(x)[-1]), where
                loss, grads = loss_and_grads(net, x, actions, targets)
                ref_loss, ref_grads = reference_dqn.loss_and_grads(
                    ref, x, actions, targets)
                assert loss == ref_loss, where
                for got, want in zip(grads, ref_grads):
                    assert np.array_equal(got[0], want[0]), where
                    assert np.array_equal(got[1], want[1]), where
