import pytest
from hypothesis import HealthCheck, settings

from cdvcert import groups, maps
from cdvcert.certify import GENUS10, certify_map

settings.register_profile(
    "exact",
    deadline=None,
    # A failure prints a @reproduce_failure line that replays its example.
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# Pass/fail lines from the acceptance suite; printed after the run so they
# survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def g10_table():
    presentation = groups.gamma10()
    return presentation, groups.coset_enumerate(presentation)


@pytest.fixture(scope="session")
def g10_map(g10_table):
    presentation, table = g10_table
    return maps.genus10_map(presentation, table)


@pytest.fixture(scope="session")
def g10_certificate():
    return certify_map(GENUS10)


@pytest.fixture(scope="session")
def g10_operator(g10_certificate):
    return g10_certificate.operator
