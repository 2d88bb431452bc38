"""The benchmark's tracer (``perfbench/tracer.py``) rebinds detac functions
and methods by name.  The tier-1 run does not run the benchmark, so a
renamed or deleted method that the tracer wraps would otherwise first show
up as a failed benchmark run."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from the source text, so no bytecode cache is written beside it
    module = types.ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def test_tracer_rebinds_existing_attributes_and_restores_them():
    tracer = _load_tracer().Tracer()
    try:
        # install reads each original from its owner's namespace: a missing
        # method or function raises here
        tracer.install()
        bound = list(tracer._restore)
        for owner, attr, original in bound:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert bound
    for owner, attr, original in bound:
        assert vars(owner)[attr] is original, (owner, attr)
