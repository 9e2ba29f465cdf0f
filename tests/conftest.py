"""Shared fixtures. Simulation records used by several test modules are
session-scoped because each run integrates tens of thousands of steps."""

from dataclasses import replace

import pytest

from gfmswing import LimiterConfig, Strategy, SystemParams, run_scenario
from gfmswing.cases import build_case


@pytest.fixture(scope="session")
def table1():
    return SystemParams()


@pytest.fixture(scope="session")
def record_e1_variable():
    return run_scenario(replace(build_case("caseE1"), limiter=LimiterConfig(strategy=Strategy.VARIABLE_VI)))


@pytest.fixture(scope="session")
def record_a1():
    return run_scenario(build_case("caseA1"))


@pytest.fixture(scope="session")
def record_b2():
    return run_scenario(build_case("caseB2"))


@pytest.fixture(scope="session")
def record_b3():
    return run_scenario(build_case("caseB3"))


@pytest.fixture(scope="session")
def record_d():
    return run_scenario(build_case("caseD"))
