import sys


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
