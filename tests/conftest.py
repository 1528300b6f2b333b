"""Shared fixtures for the test suite, plus the runaway-test gate."""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

# Allow running the suite from a fresh checkout without an installed
# package (e.g. offline environments where editable installs fail).
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EngineConfig  # noqa: E402

#: Per-test wall-clock budget in seconds; unset/empty disables the
#: gate.  CI exports it (see .github/workflows/ci.yml) so a single
#: runaway test fails loudly instead of silently dragging the suite.
_MAX_TEST_SECONDS = os.environ.get("PYTEST_MAX_TEST_SECONDS", "")


#: Budget multiplier for tests marked ``process_pool``: spawning (and
#: under the spawn start method, re-importing the interpreter in)
#: worker processes is a fixed startup cost unrelated to the numerics
#: under test, so those tests get extra headroom instead of a global
#: budget raise.
_PROCESS_POOL_BUDGET_FACTOR = 3.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _MAX_TEST_SECONDS:
        yield
        return
    budget = float(_MAX_TEST_SECONDS)
    if item.get_closest_marker("process_pool") is not None:
        budget *= _PROCESS_POOL_BUDGET_FACTOR
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        pytest.fail(
            f"{item.nodeid} took {elapsed:.1f}s, over the "
            f"PYTEST_MAX_TEST_SECONDS={budget:g}s budget",
            pytrace=False,
        )


def float64(config: "EngineConfig | None" = None) -> EngineConfig:
    """``config`` (default ``EngineConfig()``) pinned to the float64
    reference precision.  The default config stores float32 memories;
    a test that holds a path to ``BaselineMemNN`` / a float64 model /
    another path at 1e-10 compares *reference* configs, and says so by
    building them through here — never by widening its tolerance.  The
    float32 cells of the grid live in ``tests/test_float32_grid.py``.
    """
    config = config if config is not None else EngineConfig()
    return config.with_execution(dtype="float64")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_memories(rng):
    """A small (ns=64, ed=8) pair of memory matrices."""
    ns, ed = 64, 8
    return rng.normal(size=(ns, ed)), rng.normal(size=(ns, ed))


@pytest.fixture
def questions(rng):
    """A batch of 5 question state vectors of width 8."""
    return rng.normal(size=(5, 8))
