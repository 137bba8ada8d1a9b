from dataclasses import replace

import numpy as np
import pytest

from rlcc.env import (DEFAULT_SCALES, Action, Env, Observation,
                      compute_reward, normalize)
from rlcc.netsim import BottleneckSpec, SimConfig
from rlcc.schema import EnvConfig


class TestAction:
    def test_indices(self):
        assert int(Action.DECREASE) == 0
        assert int(Action.HOLD) == 1
        assert int(Action.INCREASE) == 2

    def test_deltas(self):
        assert Action.DECREASE.delta == -1
        assert Action.HOLD.delta == 0
        assert Action.INCREASE.delta == 1


class TestReward:
    def test_half_capacity(self):
        assert compute_reward(125_000.0, 2_000_000) == pytest.approx(0.5)

    def test_clamped_to_one(self):
        assert compute_reward(300_000.0, 2_000_000) == 1.0

    def test_zero_floor(self):
        assert compute_reward(0.0, 2_000_000) == 0.0


class TestNormalization:
    def test_fixed_scales(self):
        assert DEFAULT_SCALES == (200.0, 1500.0, 1e7, 1000.0, 1e4, 250000.0)

    def test_normalize_elementwise(self):
        obs = Observation(cwnd_segments=100, segment_bytes=1500,
                          bytes_sent_total=5_000_000, avg_rtt_ms=250.0,
                          segments_acked_total=5000, throughput_Bps=125_000.0)
        np.testing.assert_allclose(
            normalize(obs), [0.5, 1.0, 0.5, 0.25, 0.5, 0.5])


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(decision_interval_ms=0.0),
        dict(episode_length=0),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            Env(replace(EnvConfig(), **kw))


class TestEpisode:
    def test_reset_observation(self):
        env = Env(EnvConfig())
        obs = env.reset(seed=0)
        assert obs.cwnd_segments == 1
        assert obs.bytes_sent_total == 0
        assert obs.segments_acked_total == 0
        assert obs.throughput_Bps == 0.0

    def test_step_before_reset_raises(self):
        env = Env(EnvConfig())
        with pytest.raises(RuntimeError, match="episode is finished"):
            env.step(Action.HOLD)

    def test_episode_runs_exactly_200_steps(self):
        env = Env(EnvConfig())
        env.reset(seed=1)
        results = [env.step(Action.INCREASE) for _ in range(200)]
        assert [r.step_index for r in results] == list(range(1, 201))
        assert [r.done for r in results] == [False] * 199 + [True]
        with pytest.raises(RuntimeError, match="episode is finished"):
            env.step(Action.HOLD)

    def test_actions_move_cwnd(self):
        env = Env(EnvConfig())
        env.reset(seed=2)
        assert env.step(Action.INCREASE).observation.cwnd_segments == 2
        assert env.step(Action.INCREASE).observation.cwnd_segments == 3
        assert env.step(Action.HOLD).observation.cwnd_segments == 3
        assert env.step(Action.DECREASE).observation.cwnd_segments == 2

    def test_plain_and_numpy_integer_actions(self):
        env = Env(EnvConfig())
        env.reset(seed=2)
        assert env.step(2).observation.cwnd_segments == 2
        assert env.step(np.int64(2)).observation.cwnd_segments == 3

    @pytest.mark.parametrize("action,message", [
        (True, "must be an integer"), (False, "must be an integer"),
        (2.0, "must be an integer"), (1.5, "must be an integer"),
        ("1", "must be an integer"), (np.bool_(True), "must be an integer"),
        (-1, "not a valid Action"), (3, "not a valid Action"),
    ], ids=repr)
    def test_rejects_non_action(self, action, message):
        env = Env(EnvConfig())
        env.reset(seed=2)
        with pytest.raises(ValueError, match=message):
            env.step(action)
        # the rejected action took no step
        result = env.step(Action.INCREASE)
        assert (result.step_index, result.observation.cwnd_segments) == (1, 2)

    def test_cwnd_clamped_at_bounds(self):
        env = Env(EnvConfig())
        env.reset(seed=3)
        assert env.step(Action.DECREASE).observation.cwnd_segments == 1
        env2 = Env(EnvConfig(sim=replace(SimConfig(), cwnd_max=2)))
        env2.reset(seed=3)
        env2.step(Action.INCREASE)
        assert env2.step(Action.INCREASE).observation.cwnd_segments == 2

    def test_reward_in_unit_interval_and_tracks_throughput(self):
        env = Env(EnvConfig())
        env.reset(seed=4)
        for _ in range(50):
            r = env.step(Action.INCREASE)
            assert 0.0 <= r.reward <= 1.0
            assert r.reward == pytest.approx(
                min(1.0, r.observation.throughput_Bps / 250_000.0))

    def test_large_window_reaches_full_reward(self):
        env = Env(EnvConfig())
        env.reset(seed=5)
        for _ in range(120):
            result = env.step(Action.INCREASE)
        assert result.reward > 0.9

    def test_reset_reproducibility(self):
        cfg = EnvConfig(sim=SimConfig(
            bottleneck_link=BottleneckSpec(2_000_000, 5.0, 0.2)))

        def rollout(seed):
            env = Env(cfg)
            env.reset(seed)
            return [env.step(Action((i * 7) % 3)) for i in range(100)]

        assert rollout(9) == rollout(9)
        assert rollout(9) != rollout(10)

    def test_reset_discards_old_flow_state(self):
        env = Env(EnvConfig())
        env.reset(seed=6)
        for _ in range(20):
            env.step(Action.INCREASE)
        obs = env.reset(seed=6)
        assert obs.bytes_sent_total == 0
        assert obs.cwnd_segments == 1
