import sys

import pytest


@pytest.fixture
def scan_only(monkeypatch):
    """Listed spaces take the exhaustive scan of `estimate_roundness`, the
    probe of every table outside `roundness.spectral_form`, so the scan's
    pinned runs stay pinned."""
    from roundlab import roundness

    monkeypatch.setattr(roundness, "spectral_form", lambda space, index: False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance lines must survive fd-level capture, so they are queued
    # by the criterion decorator and flushed here
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(mod, "RESULTS", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            return
