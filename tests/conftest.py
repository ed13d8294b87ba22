import pathlib

import pytest

from jpq.engine import Engine
from jpq.model import DocRegistry, parse_document

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def load_fixture(name: str):
    return parse_document((FIXTURES / name).read_text(encoding="utf-8"))


def pytest_collection_modifyitems(items):
    # a file or socket a test leaves open fails it: its warning, and the
    # unraisable one a finalizer's warning becomes, are errors
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture
def univ():
    return load_fixture("univ.json")


@pytest.fixture
def engine(univ):
    registry = DocRegistry()
    registry.register("univ", univ)
    return Engine(registry)


# -- checklist reporting ------------------------------------------------------
#
# tests/test_acceptance.py is the release gate; print one pass/fail line per
# criterion at the end of the run so the checklist is readable at a glance.

_results: dict[str, bool] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _results[report.nodeid] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance checklist")
    for nodeid in sorted(_results):
        label = nodeid.split("::")[-1]
        status = "PASS" if _results[nodeid] else "FAIL"
        terminalreporter.write_line(f"[{status}] {label}")
