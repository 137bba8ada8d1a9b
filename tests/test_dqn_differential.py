"""Differential test: the replay ring's cached target maxima against the
TD-target chain that evaluated the target network on every sampled batch.

`ReferenceAgent` is DqnAgent with the old learn step: each update runs the
frozen target network on the batch's own next states.  Both agents are
driven through observe/learn on the same transitions and seeds, so they
draw the same samples.  The draws cover ring wrap (capacity below the
number of pushes), syncs from every update to rarely, and batch sizes 1-32.

The ring evaluates a row in a call of batch-size rows at some position;
the old chain evaluated it at its sampled position.  Where BLAS gives a
row the same bits at every position of a call of that size, every loss and
the final weights must be bitwise equal.  OpenBLAS's Haswell dgemm at width
64 does so for 1-4 rows and multiples of 4, the default 32 included; at
other sizes it computes the last rows with a narrower kernel, and the two
chains may differ in their last bits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rlcc import cli, dqn
from rlcc.dqn import (ALLOWED_HIDDEN_COUNTS, DqnAgent, DqnConfig, QNetwork,
                      Transition, TrainingDivergedError, loss_and_grads,
                      sync_target)
from rlcc.experiments import FactorLevels, enumerate_runs, execute_run


def td_targets_reference(batch, target_net, gamma):
    next_max = target_net.forward_batch(batch.next_states).max(axis=1)
    return batch.rewards + gamma * next_max * ~batch.done


def train_step_reference(net, target_net, batch, lr, gamma):
    targets = td_targets_reference(batch, target_net, gamma)
    loss, grads = loss_and_grads(net, batch.states, batch.actions, targets)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")
    for (w, b), (dw, db) in zip(net.layers, grads):
        w -= lr * dw
        b -= lr * db
    return loss


def rows_independent_of_position(net, n):
    """Whether a forward call on n rows gives each row the same bits at
    every position; rotations move each row through all of them."""
    x = np.random.default_rng(n).normal(size=(n, 6))
    q = net.forward_batch(x)
    return all(np.array_equal(np.roll(q, shift, axis=0),
                              net.forward_batch(np.roll(x, shift, axis=0)))
               for shift in range(1, n))


@pytest.mark.parametrize("depth", ALLOWED_HIDDEN_COUNTS)
def test_default_batch_is_position_independent(depth):
    """The premise under which default runs are byte-identical to the
    per-batch evaluation."""
    cfg = DqnConfig(hidden_count=depth)
    net = QNetwork(depth, cfg.hidden_width, np.random.default_rng(depth))
    assert rows_independent_of_position(net, cfg.batch_size)


class ReferenceAgent(DqnAgent):
    def learn(self):
        if len(self.buffer) < self.cfg.batch_size:
            return None
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        loss = train_step_reference(self.net, self.target_net, batch,
                                    self.cfg.learning_rate, self.cfg.gamma)
        self.train_steps += 1
        if self.train_steps % self.cfg.target_sync_every == 0:
            sync_target(self.net, self.target_net)
        return loss


@settings(max_examples=60, deadline=None)
@given(depth=st.sampled_from(ALLOWED_HIDDEN_COUNTS),
       batch_size=st.integers(1, 32),
       capacity_extra=st.integers(0, 80), pushes=st.integers(1, 70),
       sync_every=st.integers(1, 60), updates=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
# the default batch and a sync every 7 updates, without wrap
@example(depth=2, batch_size=32, capacity_extra=60, pushes=60, sync_every=7,
         updates=4, seed=1)
# the ring wraps many times between syncs
@example(depth=4, batch_size=8, capacity_extra=12, pushes=60, sync_every=60,
         updates=4, seed=2)
def test_cached_maxima_match_per_batch_evaluation(depth, batch_size,
                                                  capacity_extra, pushes,
                                                  sync_every, updates, seed):
    cfg = DqnConfig(hidden_count=depth, batch_size=batch_size,
                    buffer_capacity=batch_size + capacity_extra,
                    target_sync_every=sync_every, seed=seed)
    agent, reference = DqnAgent(cfg), ReferenceAgent(cfg)
    exact = rows_independent_of_position(agent.target_net, batch_size)
    source = np.random.default_rng(seed)
    for _ in range(pushes):
        tr = Transition(source.normal(size=6), int(source.integers(3)),
                        float(source.normal()), source.normal(size=6),
                        bool(source.random() < 0.2))
        agent.observe(tr)
        reference.observe(tr)
        for _ in range(updates):
            loss, ref_loss = agent.learn(), reference.learn()
            if exact or ref_loss is None:
                assert loss == ref_loss
            else:
                assert loss == pytest.approx(ref_loss, rel=1e-9)
    assert agent.train_steps == reference.train_steps
    for got, want in zip(agent.net.layers, reference.net.layers):
        for array, ref_array in zip(got, want):
            if exact:
                assert np.array_equal(array, ref_array)
            else:
                np.testing.assert_allclose(array, ref_array, rtol=1e-9,
                                           atol=1e-12)


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
