"""Shared fixtures."""

import pytest

from injop.funcspace import GridFunction
from injop.nonlin import RidgeKernel


@pytest.fixture
def integral_calls(monkeypatch):
    """A list that grows by one entry per call of ``RidgeKernel.integral``,
    the kernel integral of every ridge kernel, whichever route it takes."""
    calls = []
    integral = RidgeKernel.integral

    def counting(self, grid, values):
        calls.append(grid.size)
        return integral(self, grid, values)

    monkeypatch.setattr(RidgeKernel, "integral", counting)
    return calls


@pytest.fixture
def grid_functions_built(monkeypatch):
    """A list of every ``GridFunction`` built while the fixture is active."""
    built = []
    post_init = GridFunction.__post_init__

    def counting(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counting)
    return built
