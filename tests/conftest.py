import faulthandler
import os
import random
import sys

import pytest

from mcheck import parse_aiger

from fixtures import CNT2_AAG, SAFE1_AAG, UNSAFE1_AAG

# One line per acceptance criterion, echoed after the run summary so the
# PASS/FAIL verdicts survive pytest's output capture.
ACCEPTANCE_REPORT = []


# Seconds one test may take, its setup and teardown included, before the
# run ends with every thread's traceback; the slowest test takes about 3 s,
# so only a test that cannot end reaches it.
TEST_TIME_LIMIT = 120.0
STDERR_COPY = pytest.StashKey[int]()


def pytest_configure(config):
    # sys.stderr is still the terminal's here; output capture takes it later
    config.stash[STDERR_COPY] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_COPY])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True,
                                      file=item.config.stash[STDERR_COPY])
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@pytest.fixture
def safe1():
    return parse_aiger(SAFE1_AAG.encode())


@pytest.fixture
def unsafe1():
    return parse_aiger(UNSAFE1_AAG.encode())


@pytest.fixture
def cnt2():
    return parse_aiger(CNT2_AAG.encode())


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
