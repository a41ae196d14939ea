"""Leaks fail the offline suite: in every test under this directory an
unclosed socket or file, or an exception that dies on a worker thread, is
an error. (Set per test rather than in the pytest ini options, which would
also cover the benchmark's self-test.)"""

from pathlib import Path

import pytest

_LEAKS_FAIL = [
    pytest.mark.filterwarnings(f"error::{category}")
    for category in (
        "ResourceWarning",
        "pytest.PytestUnraisableExceptionWarning",
        "pytest.PytestUnhandledThreadExceptionWarning",
    )
]


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for mark in _LEAKS_FAIL:
                item.add_marker(mark)


@pytest.fixture
def serve():
    """Start loopback stub servers (``helpers.StubServer``); each is stopped
    after the test."""
    from helpers import StubServer

    servers = []

    def start(reply, **kwargs):
        server = StubServer(reply, **kwargs)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()
