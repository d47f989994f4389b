"""Shared fixtures."""

import pytest

from injop.nonlin import KernelBase


@pytest.fixture
def integral_calls(monkeypatch):
    """A list that grows by one entry per call of ``KernelBase.integral``,
    the kernel integral of every ridge kernel."""
    calls = []
    integral = KernelBase.integral

    def counting(self, grid, values):
        calls.append(grid.size)
        return integral(self, grid, values)

    monkeypatch.setattr(KernelBase, "integral", counting)
    return calls
