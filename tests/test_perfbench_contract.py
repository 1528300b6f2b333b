"""What the perfbench harness (``benchmarks/perfbench``, the repo's
benchmark) needs of the program, checked at tier 1 so that a change which
would break a timed or traced run fails here first.  The harness is read,
never changed: its modules are imported from their files.

* Every span boundary resolves as the traced run resolves it:
  ``vars(owner)[attr]``, an attribute of the class itself (a method
  moved to a base class or renamed fails).
* The side configurations ``run.py --trace 1`` builds still construct
  and validate: ``EngineConfig.fused(4)``, its 2-worker process
  config and ``out_of_core(prefetch_depth=2)``.
* ``run.py`` imports cleanly.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import EngineConfig, MnnFastEngine

from .test_differential_paths import _random_problem

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """``load(name)``: a harness module imported from its file, with the
    harness directory on ``sys.path`` as ``run.py`` puts it there."""
    path = list(sys.path)
    sys.path.insert(0, str(HARNESS))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", HARNESS / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    sys.path[:] = path


def test_every_span_boundary_resolves_on_its_class(harness):
    spans = harness("spans")
    assert spans.BOUNDARIES
    for owner, attr, name in spans.BOUNDARIES:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(getattr(owner, attr)), name


def test_the_traced_side_configurations_construct():
    config, weights, story, questions = _random_problem(0)
    serial2 = EngineConfig.sharded(2, threshold=0.1)
    process2 = serial2.with_execution(backend="process", num_workers=2)
    fused4 = EngineConfig.fused(4).with_zero_skip(0.1)
    prefetch2 = EngineConfig.out_of_core(resident_bytes=4 << 20, prefetch_depth=2)
    for engine_config in (serial2, process2, EngineConfig.sharded(4, threshold=0.1)):
        engine_config.validate()
    # The in-process ones answer, too (the process one would start workers).
    for engine_config in (fused4, prefetch2):
        engine = MnnFastEngine(config, weights, engine_config.validate())
        engine.store_story(story)
        assert engine.answer(questions).answer_ids.shape == (len(questions),)
        engine.close()


def test_run_imports_cleanly(harness):
    run = harness("run")
    assert callable(run.main)
