"""The traced benchmark run wraps library functions by name; a rename or a
removal would surface only there, so check the names here."""

import importlib
import importlib.util
import re
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


WORKLOADS = TRACING.parent / "workloads.py"


def test_every_chain_the_workloads_read_resolves():
    # the workloads reach the library as tx.<name> and tx.<module>.<name>
    # after importing cantortx, cantortx.textio and cantortx.verify
    tx = importlib.import_module("cantortx")
    importlib.import_module("cantortx.textio")
    importlib.import_module("cantortx.verify")
    chains = set(re.findall(r"\btx((?:\.[A-Za-z_]\w*)+)", WORKLOADS.read_text(encoding="utf-8")))
    assert len(chains) > 20
    for chain in sorted(chains):
        target = tx
        for part in chain.lstrip(".").split("."):
            target = getattr(target, part, None)
            assert target is not None, f"tx{chain}"
