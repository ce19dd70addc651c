"""The benchmark tracer wraps program functions by name; keep those names."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_target_is_a_direct_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        tracer.target_name(owner, attr)
        for owner, attr in tracer.TARGETS
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
