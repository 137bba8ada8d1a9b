"""Shared test infrastructure.

The acceptance suite registers one verdict per criterion; the hook below
prints them as a single PASS/FAIL block after the normal pytest output so
the gate can be read at a glance.
"""

import numpy as np
import pytest

from rlcc import dqn

_CRITERIA: list[tuple[str, bool, str]] = []


def report_criterion(name: str, passed: bool, detail: str = "") -> None:
    _CRITERIA.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERIA:
        verdict = "PASS" if passed else "FAIL"
        line = f"{verdict}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def poison_last_train_step(monkeypatch):
    """poison(run) calls run() once to count its dqn.train_step calls, then
    again with the last of them writing nan into the trained network's
    theta after its update, and returns what the second call returned."""
    original = dqn.train_step
    calls = []

    def counting(net, *args, **kwargs):
        calls.append(None)
        return original(net, *args, **kwargs)

    def poison(run):
        monkeypatch.setattr(dqn, "train_step", counting)
        run()
        last = len(calls)
        assert last > 0
        calls.clear()

        def poisoning(net, *args, **kwargs):
            loss = counting(net, *args, **kwargs)
            if len(calls) == last:
                net.theta[0] = np.nan
            return loss

        monkeypatch.setattr(dqn, "train_step", poisoning)
        return run()

    return poison
