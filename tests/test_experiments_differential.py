"""Differential tests of the episode loop against the code it replaced.

``reference_experiments.execute_run`` is the loop that asked which policy
runs; the package's ``execute_run`` hands every step to one player object.
Both must give equal records (but for the wall time) and equal traces for
either policy, over depths, error rates, learning rates from a slow learner
to one that diverges at once, updates per step, batch sizes and episode
lengths.  Each draw builds its spec as the grid does.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

import reference_experiments
from rlcc.experiments import execute_run, make_spec
from rlcc.schema import ALLOWED_HIDDEN_COUNTS, DqnConfig, EnvConfig


VERSIONS = (execute_run, reference_experiments.execute_run)


def comparable(result):
    """A run's (record without its wall time, trace)."""
    record, trace = result
    return replace(record, wall_time_ms=0), trace


def both_runs(spec, env_cfg, dqn_cfg, policy="dqn"):
    """(got, want): each version's comparable run."""
    return [comparable(run(spec, env_cfg, dqn_cfg, policy))
            for run in VERSIONS]


def configs(updates, batch_size, episode_length):
    return (EnvConfig(episode_length=episode_length),
            DqnConfig(train_updates_per_step=updates, batch_size=batch_size))


# at step 5 the first update's loss is finite and the second's is not
LATER_UPDATE_DIVERGES = dict(policy="dqn", depth=2, error=0.0, lr=100.0,
                             updates=2, batch_size=4, episode_length=20,
                             rep=0)


@example(**LATER_UPDATE_DIVERGES)
@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from(["dqn", "random"]),
       depth=st.sampled_from(ALLOWED_HIDDEN_COUNTS),
       error=st.sampled_from([0.0, 0.2]),
       lr=st.sampled_from([0.001, 0.01, 100.0, 1e12]),
       updates=st.integers(1, 4), batch_size=st.integers(1, 32),
       episode_length=st.integers(1, 60), rep=st.integers(0, 9))
def test_loop_matches_reference(policy, depth, error, lr, updates,
                                batch_size, episode_length, rep):
    spec = make_spec(depth, lr, error, rep, base_seed=42)
    got, want = both_runs(spec, *configs(updates, batch_size,
                                         episode_length), policy)
    assert got == want


def test_step_diverging_on_a_later_update_keeps_its_last_finite_loss():
    """The pinned example's premise: the run stops at a step whose row
    holds the finite loss of an update before the one that diverged."""
    case = LATER_UPDATE_DIVERGES
    spec = make_spec(case["depth"], case["lr"], case["error"], case["rep"],
                     base_seed=42)
    got, want = both_runs(spec, *configs(
        case["updates"], case["batch_size"], case["episode_length"]))
    assert got == want
    record, trace = got
    assert record.diverged and len(trace) == 5
    assert trace[-1].loss is not None


def test_theta_poisoned_by_the_last_update_matches_reference(
        poison_last_train_step):
    """An update whose loss is finite but leaves theta non-finite, on the
    episode's last step, flags the run in both versions."""
    spec = make_spec(2, 0.01, 0.0, 0, base_seed=42)
    env_cfg, dqn_cfg = configs(1, 32, 40)
    got, want = [comparable(poison_last_train_step(
        lambda: run(spec, env_cfg, dqn_cfg))) for run in VERSIONS]
    assert got == want
    record, trace = got
    assert record.diverged and len(trace) == 40
