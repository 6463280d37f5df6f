"""Fixtures shared by both test paths, ``tests/`` and ``benchmarks/``."""

from __future__ import annotations

import pytest


class RecordedWorkload:
    """A workload whose DNS and flow streams are generated once and then
    replayed, unchanged, to every run; everything else is the workload's.

    The streams are a pure function of the workload's seed, so replaying
    the stored records equals regenerating them.
    """

    def __init__(self, workload):
        self._workload = workload
        self._dns = list(workload.dns_records())
        self._flows = list(workload.flow_records())

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def dns_records(self):
        return iter(self._dns)

    def flow_records(self):
        return iter(self._flows)


@pytest.fixture(scope="session")
def record_workload():
    """``record_workload(workload)`` wraps a workload in a
    :class:`RecordedWorkload`, for fixtures that run several variants
    over one workload."""
    return RecordedWorkload
