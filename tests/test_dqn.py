from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_dqn import per_batch_train_step
from rlcc.dqn import (Batch, DqnAgent, QNetwork, ReplayBuffer, Transition,
                      TrainingDivergedError, as_batch, epsilon_at,
                      loss_and_grads, td_targets, train_step)
from rlcc.schema import ALLOWED_HIDDEN_COUNTS, DqnConfig


def small_net(hidden_count=2, width=8, seed=0):
    return QNetwork(hidden_count, width, np.random.default_rng(seed))


def random_batch(rng, n=16):
    batch = []
    for _ in range(n):
        batch.append(Transition(
            state=rng.normal(size=6),
            action_index=int(rng.integers(3)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=6),
            done=bool(rng.random() < 0.2),
        ))
    return batch


class TestQNetwork:
    @pytest.mark.parametrize("hidden", [2, 4, 8])
    def test_layer_shapes(self, hidden):
        net = small_net(hidden_count=hidden, width=64)
        shapes = [(w.shape, b.shape) for w, b in net.layers]
        assert shapes[0] == ((64, 6), (64,))
        assert shapes[-1] == ((3, 64), (3,))
        assert all(s == ((64, 64), (64,)) for s in shapes[1:-1])
        assert len(shapes) == hidden + 1

    def test_glorot_bounds_and_zero_bias(self):
        net = small_net(hidden_count=2, width=64)
        (w0, b0) = net.layers[0]
        limit = np.sqrt(6.0 / (6 + 64))
        assert np.abs(w0).max() <= limit
        assert np.all(b0 == 0.0)

    def test_forward_oracle_hand_network(self):
        # One hidden layer computed by hand:
        # h = relu(W1 x + b1), q = W2 h + b2
        w1 = np.zeros((2, 6))
        w1[0, 0] = 1.0   # h0 pre-act = x0 + 1
        w1[1, 1] = -1.0  # h1 pre-act = -x1
        b1 = np.array([1.0, 0.0])
        w2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b2 = np.array([0.0, 0.5, -1.0])
        net = QNetwork.from_layers([(w1, b1), (w2, b2)])
        x = np.array([2.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        # h = relu([3, -3]) = [3, 0] -> q = [3, 0.5, 2]
        np.testing.assert_allclose(net.activations(x)[-1][0], [3.0, 0.5, 2.0])

    def test_relu_only_on_hidden(self):
        w1 = np.eye(6)[:2]
        net = QNetwork.from_layers(
            [(w1, np.zeros(2)), (-np.ones((3, 2)), np.zeros(3))])
        q = net.activations(np.array([1.0, 1.0, 0, 0, 0, 0]))[-1][0]
        assert np.all(q < 0.0)  # linear output may go negative

    def test_forward_batch_matches_single(self):
        net = small_net()
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(5, 6))
        batch = net.activations(xs)[-1]   # one-row calls use other buffers
        for i in range(5):
            np.testing.assert_allclose(batch[i], net.activations(xs[i])[-1][0])

    def test_determinism_by_seed(self):
        a, b = small_net(seed=7), small_net(seed=7)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_clone_is_value_copy(self):
        net = small_net()
        copy = net.clone()
        assert not np.shares_memory(copy.theta, net.theta)
        net.layers[0][0][0, 0] += 1.0
        assert copy.layers[0][0][0, 0] != net.layers[0][0][0, 0]

    def test_copy_from_is_value_copy(self):
        net, copy = small_net(seed=1), small_net(seed=2)
        copy.copy_from(net)
        assert copy.version == 1
        assert not np.shares_memory(copy.theta, net.theta)
        assert np.array_equal(copy.theta, net.theta)
        net.layers[-1][1][0] += 1.0
        assert copy.layers[-1][1][0] != net.layers[-1][1][0]

    @pytest.mark.parametrize("other", [small_net(width=9),
                                       small_net(hidden_count=4)])
    def test_copy_from_rejects_other_shape(self, other):
        net = small_net()
        with pytest.raises(ValueError, match="shapes"):
            net.copy_from(other)
        assert net.version == 0

    def test_layers_view_theta(self):
        net = small_net(width=5)
        w, b = net.layers[1]
        w[0, 0], b[-1] = 7.0, 8.0
        assert net.theta[6 * 5 + 5] == 7.0
        assert net.theta[6 * 5 + 5 + 5 * 5 + 4] == 8.0
        assert net.theta.size == sum(w.size + b.size for w, b in net.layers)

    def test_gradients_survive_later_calls(self):
        net = small_net()
        rng = np.random.default_rng(6)
        states = rng.normal(size=(2, 5, 6))
        actions = rng.integers(3, size=(2, 5))
        targets = rng.normal(size=(2, 5))
        _, grads = loss_and_grads(net, states[0], actions[0], targets[0])
        want = [(w.copy(), b.copy()) for w, b in grads]
        loss_and_grads(net, states[1], actions[1], targets[1])
        train_step(net, net.clone(), random_batch(rng, n=5), 0.01, 0.95)
        for (w, b), (want_w, want_b) in zip(grads, want):
            assert np.array_equal(w, want_w) and np.array_equal(b, want_b)

    @pytest.mark.parametrize("layers", [
        [],
        # the last bias has 1 entry for 3 outputs
        [(np.ones((4, 6)), np.zeros(4)), (np.ones((3, 4)), np.zeros(1))],
        [(np.ones((4, 6)), np.zeros(5)), (np.ones((3, 4)), np.zeros(3))],
        [(np.ones((4, 6)), np.zeros(4)), (np.ones((3, 5)), np.zeros(3))],
        [(np.ones(6), np.zeros(1))],
    ])
    def test_from_layers_rejects_bad_shapes(self, layers):
        with pytest.raises(ValueError):
            QNetwork.from_layers(layers)


def agent_with_q(q, epsilon):
    """A float32 agent at a fixed epsilon whose Q-values are q in every
    state: zero weights and q as the output bias."""
    agent = DqnAgent(DqnConfig(epsilon_start=epsilon, epsilon_min=epsilon))
    agent.net.theta[:] = 0.0
    agent.net.layers[-1][1][:] = q
    return agent


class TestEpsilon:
    def test_schedule_values(self):
        cfg = DqnConfig(epsilon_start=1.0, epsilon_min=0.05, epsilon_decay=0.99)
        assert epsilon_at(cfg, 0) == 1.0
        assert epsilon_at(cfg, 10) == pytest.approx(0.99 ** 10)
        assert epsilon_at(cfg, 10_000) == 0.05

    def test_epsilon_one_is_uniform(self):
        agent = agent_with_q([0.0, 10.0, 0.0], 1.0)
        n = 100_000
        counts = np.bincount(
            [agent.select_action(np.zeros(6)) for _ in range(n)], minlength=3)
        # each arm ~ Binomial(n, 1/3); 3 sigma ~ 0.0045
        np.testing.assert_allclose(counts / n, 1 / 3, atol=0.0045 * 3)

    def test_epsilon_zero_is_greedy(self):
        agent = agent_with_q([0.0, 10.0, 0.0], 0.0)
        assert all(agent.select_action(np.zeros(6)) == 1 for _ in range(100))

    def test_greedy_tie_breaks_to_lowest_index(self):
        agent = agent_with_q([5.0, 5.0, 5.0], 0.0)
        assert agent.select_action(np.zeros(6)) == 0

    @pytest.mark.parametrize("state", [np.zeros(7), np.zeros((1, 6)), 0.5])
    def test_exploratory_step_rejects_misshaped_state(self, state):
        # at epsilon 1 no step reaches the Q-forward's own input check
        agent = agent_with_q([0.0, 0.0, 0.0], 1.0)
        rng_state = agent.rng.bit_generator.state
        with pytest.raises(ValueError, match="shape"):
            agent.select_action(state)
        assert agent.env_steps == 0
        assert agent.rng.bit_generator.state == rng_state


class TestTdTargets:
    def test_terminal_drops_bootstrap(self):
        net = small_net()
        tr = Transition(np.zeros(6), 0, 1.5, np.ones(6), done=True)
        np.testing.assert_allclose(td_targets([tr], net, 0.95), [1.5])

    def test_nonterminal_bootstraps_max(self):
        net = small_net()
        s2 = np.ones(6)
        tr = Transition(np.zeros(6), 0, 1.5, s2, done=False)
        expected = 1.5 + 0.95 * net.activations(s2)[-1].max()
        np.testing.assert_allclose(td_targets([tr], net, 0.95), [expected])

    def test_ring_targets_follow_gamma_between_syncs(self):
        ring = ReplayBuffer(8)
        for tr in random_batch(np.random.default_rng(7), 8):
            ring.push(*tr)
        assert not ring._rows.done.all()
        net = small_net()
        batch = ring.sample(8, np.random.default_rng(0))
        for gamma in (0.9, 0.5, 0.9):
            # the same ring, target network and batch size at each gamma
            want = td_targets(Batch(*batch[:5]), net, gamma)
            np.testing.assert_allclose(td_targets(batch, net, gamma), want,
                                       rtol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            td_targets([], small_net(), 0.95)

    @pytest.mark.parametrize("action", [-1, 3, 5, 1.5])
    def test_caller_batch_action_out_of_range_rejected(self, action):
        trs = random_batch(np.random.default_rng(4), n=3)
        trs[1] = Transition(np.zeros(6), action, 0.0, np.zeros(6), False)
        net = small_net()
        stacked = stack_reference(trs)
        for batch in (trs, stacked):
            with pytest.raises(ValueError, match="actions"):
                train_step(net, net.clone(), batch, lr=0.01, gamma=0.95)
        with pytest.raises(ValueError, match="actions"):
            loss_and_grads(net, stacked.states, stacked.actions,
                           stacked.rewards)


class TestGradients:
    @pytest.mark.parametrize("hidden", ALLOWED_HIDDEN_COUNTS)
    def test_finite_difference_check(self, hidden):
        rng = np.random.default_rng(hidden)
        net = small_net(hidden_count=hidden, width=8, seed=hidden)
        states = rng.normal(size=(12, 6))
        actions = rng.integers(3, size=12)
        targets = rng.normal(size=12)
        loss, grads = loss_and_grads(net, states, actions, targets)

        h = 1e-5
        checked = 0
        for li, (w, b) in enumerate(net.layers):
            for arr, grad in ((w, grads[li][0]), (b, grads[li][1])):
                flat = arr.reshape(-1)
                picks = rng.choice(flat.size, size=min(20, flat.size),
                                   replace=False)
                for k in picks:
                    orig = flat[k]
                    flat[k] = orig + h
                    lp, _ = loss_and_grads(net, states, actions, targets)
                    flat[k] = orig - h
                    lm, _ = loss_and_grads(net, states, actions, targets)
                    flat[k] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grad.reshape(-1)[k]
                    denom = max(abs(fd), abs(an), 1e-8)
                    assert abs(fd - an) / denom < 1e-4, \
                        f"layer {li} index {k}: fd={fd} analytic={an}"
                    checked += 1
        assert checked >= 40

    def test_gradient_zero_for_untaken_actions(self):
        net = small_net()
        states = np.ones((1, 6))
        _, grads = loss_and_grads(net, states, np.array([1]), np.array([0.0]))
        w_last, b_last = grads[-1]
        assert np.all(w_last[[0, 2]] == 0.0)
        assert b_last[0] == 0.0 and b_last[2] == 0.0

    def test_loss_is_mse_on_taken_actions(self):
        net = small_net()
        states = np.stack([np.ones(6), -np.ones(6)])
        actions = np.array([0, 2])
        q = net.activations(states)[-1]
        targets = np.array([q[0, 0] + 2.0, q[1, 2] - 1.0])
        loss, _ = loss_and_grads(net, states, actions, targets)
        assert loss == pytest.approx((4.0 + 1.0) / 2)


class TestTrainStep:
    def test_descends_loss_on_fixed_batch(self):
        rng = np.random.default_rng(3)
        net = small_net(width=16)
        target = net.clone()
        batch = random_batch(rng)
        losses = [train_step(net, target, batch, lr=0.01, gamma=0.95)
                  for _ in range(60)]
        assert losses[-1] < losses[0] * 0.5

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises(self):
        net = small_net()
        net.layers[0][0][:] = np.inf
        batch = random_batch(np.random.default_rng(0), n=4)
        with pytest.raises(TrainingDivergedError):
            train_step(net, net.clone(), batch, lr=0.01, gamma=0.95)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_float32_overflow_raises(self):
        # Q = 6e19 on a terminal zero-reward row: a loss of 3.6e39, past
        # float32's largest value (3.4e38) but finite in float64
        layers = [(np.full((3, 6), 1e19), np.zeros(3))]
        batch = [Transition(np.ones(6), 0, 0.0, np.zeros(6), True)]
        net = QNetwork.from_layers(layers)
        loss = train_step(net, net.clone(), batch, lr=0.01, gamma=0.95)
        assert loss == pytest.approx(3.6e39)
        net = QNetwork.from_layers(layers, np.float32)
        with pytest.raises(TrainingDivergedError):
            train_step(net, net.clone(), batch, lr=0.01, gamma=0.95)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(3)
        trs = [Transition(np.full(6, i), 0, float(i), np.zeros(6), False)
               for i in range(5)]
        for tr in trs:
            buf.push(*tr)
        everything = buf.sample(len(buf), np.random.default_rng(0))
        rewards = sorted(everything.rewards)
        assert rewards == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10)
        for i in range(10):
            buf.push(np.zeros(6), 0, float(i), np.zeros(6), False)
        rng = np.random.default_rng(0)
        for _ in range(50):
            rewards = list(buf.sample(10, rng).rewards)
            assert sorted(rewards) == [float(i) for i in range(10)]

    def test_insufficient_data(self):
        buf = ReplayBuffer(10)
        buf.push(np.zeros(6), 0, 0.0, np.zeros(6), False)
        with pytest.raises(RuntimeError,
                           match="^buffer holds 1 < 2 transitions$"):
            buf.sample(2, np.random.default_rng(0))

    @pytest.mark.parametrize("state, next_state", [
        (np.zeros(1), np.zeros(6)), (0.5, np.zeros(6)),
        (np.zeros(6), np.zeros(7)), (np.zeros((1, 6)), np.zeros(6))])
    def test_rejects_misshaped_states(self, state, next_state):
        buf = ReplayBuffer(4)
        with pytest.raises(ValueError, match="shape"):
            buf.push(state, 0, 0.0, next_state, False)
        assert len(buf) == 0

    @pytest.mark.parametrize("action", [-1, 3, 5, 1.7, True, np.float64(1.0)])
    def test_rejects_action_out_of_range(self, action):
        buf = ReplayBuffer(4)
        with pytest.raises(ValueError, match="action"):
            buf.push(np.zeros(6), action, 0.0, np.zeros(6), False)
        assert len(buf) == 0

    def test_accepts_numpy_integer_action(self):
        buf = ReplayBuffer(4)
        buf.push(np.zeros(6), np.int64(2), 0.0, np.zeros(6), False)
        assert buf.sample(1, np.random.default_rng(0)).actions[0] == 2

    def test_sampling_is_uniform(self):
        buf = ReplayBuffer(100)
        for i in range(100):
            buf.push(np.zeros(6), 0, float(i), np.zeros(6), False)
        rng = np.random.default_rng(1)
        hits = np.zeros(100)
        draws = 2000
        for _ in range(draws):
            for reward in buf.sample(32, rng).rewards:
                hits[int(reward)] += 1
        freq = hits / (draws * 32)
        # each slot ~ hypergeometric mean 0.01; loose 5-sigma band
        assert np.all(np.abs(freq - 0.01) < 0.0025)


class ListReplayBuffer:
    """Reference: the replay buffer as a list of Transitions, overwritten
    oldest-first once full, and sampled batches stacked from it."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._storage = []
        self._next = 0

    def __len__(self):
        return len(self._storage)

    def push(self, tr):
        if len(self._storage) < self.capacity:
            self._storage.append(tr)
        else:
            self._storage[self._next] = tr
            self._next = (self._next + 1) % self.capacity

    def sample(self, n, rng):
        idx = rng.choice(len(self._storage), size=n, replace=False)
        return [self._storage[i] for i in idx]


def stack_reference(transitions):
    """The arrays td_targets and train_step built from a Transition list."""
    return Batch(states=np.stack([t.state for t in transitions]),
                 actions=np.array([t.action_index for t in transitions]),
                 rewards=np.array([t.reward for t in transitions]),
                 next_states=np.stack([t.next_state for t in transitions]),
                 done=np.array([t.done for t in transitions]))


class TestReplayRingMatchesList:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 50), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_samples_and_training_are_bitwise_equal(self, capacity, data,
                                                    seed):
        pushes = data.draw(st.integers(1, 3 * capacity), label="pushes")
        sizes = data.draw(st.lists(st.integers(1, min(pushes, capacity)),
                                   min_size=1, max_size=8), label="sizes")
        source = np.random.default_rng(seed)
        ring, reference = ReplayBuffer(capacity), ListReplayBuffer(capacity)
        for _ in range(pushes):
            tr = Transition(source.normal(size=6), int(source.integers(3)),
                            float(source.normal()), source.normal(size=6),
                            bool(source.random() < 0.3))
            ring.push(*tr)
            reference.push(tr)
        assert len(ring) == len(reference)

        net = small_net(width=16, seed=seed % 1000)
        ref_net, target = net.clone(), net.clone()
        ring_rng = np.random.default_rng(seed + 1)
        ref_rng = np.random.default_rng(seed + 1)
        for n in sizes:
            batch = ring.sample(n, ring_rng)
            expected = reference.sample(n, ref_rng)
            ref_batch = stack_reference(expected)
            for got, want in zip(batch[:5], ref_batch):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            for got, want in zip(as_batch(expected)[:5], ref_batch):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            loss = train_step(net, target, batch, lr=0.01, gamma=0.95)
            ref_loss = per_batch_train_step(ref_net, target, ref_batch,
                                            lr=0.01, gamma=0.95)
            assert loss == ref_loss
        for (w, b), (rw, rb) in zip(net.layers, ref_net.layers):
            assert np.array_equal(w, rw) and np.array_equal(b, rb)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(hidden_count=3),
        dict(hidden_width=0),
        dict(learning_rate=0.0),
        dict(gamma=1.0),
        dict(epsilon_start=1.5),
        dict(epsilon_min=0.5, epsilon_start=0.1),
        dict(epsilon_decay=0.0),
        dict(batch_size=0),
        dict(buffer_capacity=8, batch_size=32),
        dict(target_sync_every=0),
        dict(train_updates_per_step=0),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            replace(DqnConfig(), **kw).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_learning_rate(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            replace(DqnConfig(), learning_rate=value).validate()

    def test_defaults_valid(self):
        DqnConfig().validate()


class TestAgent:
    def test_trains_in_float32(self):
        # a greedy step, so the policy net has its 1-row buffers too
        agent = DqnAgent(DqnConfig(seed=0, batch_size=4, epsilon_start=0.0,
                                   epsilon_min=0.0))
        for tr in random_batch(np.random.default_rng(5), 4):
            agent.buffer.push(*tr)
        agent.select_action(np.zeros(6))
        assert agent.learn() is not None
        ring = agent.buffer
        arrays = [*ring._rows[:5], ring._targets]
        for net in (agent.net, agent.target_net):
            arrays += [net.theta, net.grad]
            for work in net._work.values():
                for buffers in work.values():
                    arrays += buffers if isinstance(buffers, list) else \
                        [buffers]
        floats = {a.dtype for a in arrays if a.dtype.kind == "f"}
        assert floats == {np.dtype(np.float32)}
        assert agent.net._work.keys() == {1, 4}
        assert agent.target_net._work.keys() == {4}
        assert small_net().clone().theta.dtype == np.float64

    def test_learn_waits_for_full_batch(self):
        agent = DqnAgent(DqnConfig(seed=0, batch_size=8))
        for i in range(7):
            agent.buffer.push(np.zeros(6), 0, 0.0, np.zeros(6), False)
            assert agent.learn() is None
        agent.buffer.push(np.zeros(6), 0, 0.0, np.zeros(6), False)
        assert agent.learn() is not None

    def test_target_sync_cadence(self):
        agent = DqnAgent(DqnConfig(seed=0, batch_size=4, target_sync_every=5))
        rng = np.random.default_rng(2)
        for tr in random_batch(rng, 4):
            agent.buffer.push(*tr)
        for step in range(1, 11):
            agent.learn()
            synced = all(
                np.array_equal(w1, w2) and np.array_equal(b1, b2)
                for (w1, b1), (w2, b2)
                in zip(agent.net.layers, agent.target_net.layers))
            assert synced == (step % 5 == 0)

    def test_bandit_learns_state_dependent_policy(self):
        # Contextual bandit: reward 1 for INCREASE when s0 > 0.5, for
        # DECREASE otherwise.  The full agent loop should find this.
        agent = DqnAgent(DqnConfig(seed=0))
        rng = np.random.default_rng(123)
        for _ in range(1500):
            s = np.zeros(6)
            s[0] = rng.random()
            a = agent.select_action(s)
            optimal = 2 if s[0] > 0.5 else 0
            agent.buffer.push(s, a, float(a == optimal), s, True)
            agent.learn()
        correct = 0
        for _ in range(300):
            s = np.zeros(6)
            s[0] = rng.random()
            q = agent.net.activations(s)[-1][0]
            correct += int(np.argmax(q)) == (2 if s[0] > 0.5 else 0)
        assert correct / 300 >= 0.9
