"""The traced benchmark run wraps library functions by name; a rename or a
removal would surface only there, so check the names here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_library_callable():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(f"cantortx.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cantortx.{module_name}.{name}"
