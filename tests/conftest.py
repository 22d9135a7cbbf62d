"""Suite-wide guard: no test may open a network connection.

Gateway traffic in tests goes through the in-process MockGateway, which
answers through a responder (``oracles.replies`` scripts one), or through
HttpGateway over a stubbed ``requests.post``; an attempted AF_INET/AF_INET6
connect anywhere in the run is a bug and fails loudly.

A test that reads what a gateway logged gives it the ``audit_log`` fixture
and reads the file back with ``AuditLog.read``: the file is the log's only
record.
"""

import socket

import pytest

from demoforge.gateway import AuditLog


class NetworkBlocked(RuntimeError):
    pass


_real_connect = socket.socket.connect


def _guarded_connect(self, address):
    if self.family in (socket.AF_INET, socket.AF_INET6):
        raise NetworkBlocked(f"test tried to open a network connection to {address!r}")
    return _real_connect(self, address)


@pytest.fixture(autouse=True, scope="session")
def _no_network():
    socket.socket.connect = _guarded_connect
    try:
        yield
    finally:
        socket.socket.connect = _real_connect


@pytest.fixture
def audit_log(tmp_path):
    return AuditLog(tmp_path / "audit.jsonl")
