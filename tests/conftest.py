"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.core.dapper_h
import repro.core.rgc
import repro.crypto.prng
import repro.dram.address
import repro.sim.batch
import repro.sim.experiment
import repro.trackers.structures
from repro.config import baseline_config, reduced_row_config
from repro.dram.address import AddressMapper

#: Every module that uses numpy only when it is importable.
OPTIONAL_NUMPY_MODULES = (
    repro.dram.address,
    repro.crypto.prng,
    repro.trackers.structures,
    repro.core.rgc,
    repro.core.dapper_h,
    repro.sim.batch,
)


@pytest.fixture
def config():
    """The paper's baseline configuration (Table I)."""
    return baseline_config()


@pytest.fixture
def small_config():
    """A reduced-row configuration used by simulation-heavy tests."""
    return reduced_row_config(nrh=500, rows_per_bank=2048)


@pytest.fixture
def mapper(config):
    return AddressMapper(config.dram)


@pytest.fixture
def small_mapper(small_config):
    return AddressMapper(small_config.dram)


@pytest.fixture
def disable_numpy(monkeypatch):
    """Callable that makes the rest of the test run as if numpy were absent.

    It sets ``_np = None`` in every optional-numpy module, and gives the
    patched runs empty tracker and LLC warm-up memos, so nothing warmed with
    numpy earlier in the process leaks into them.  Everything is restored
    when the test ends.
    """

    def disable() -> None:
        for module in OPTIONAL_NUMPY_MODULES:
            monkeypatch.setattr(module, "_np", None)
        monkeypatch.setattr(repro.sim.experiment, "_TRACKER_WARM_CACHE", {})
        monkeypatch.setattr(repro.sim.batch, "_WARM_CACHE", {})

    return disable
