import importlib
import inspect
import pkgutil
from collections import defaultdict

import pytest

import cantortx


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(names) replaces each named library function, in every
    cantortx module that holds it, by a wrapper that records its calls, and
    returns the record: name -> one {parameter: value} dict per call, with
    defaults filled in."""
    modules = [importlib.import_module(f"cantortx.{info.name}")
               for info in pkgutil.iter_modules(cantortx.__path__)]

    def start(names):
        calls = defaultdict(list)
        for name in names:
            original = next(getattr(m, name) for m in modules if hasattr(m, name))
            signature = inspect.signature(original)

            def recorded(*args, _name=name, _original=original, _sig=signature, **kw):
                bound = _sig.bind(*args, **kw)
                bound.apply_defaults()
                calls[_name].append(bound.arguments)
                return _original(*args, **kw)

            for m in modules:
                if getattr(m, name, None) is original:
                    monkeypatch.setattr(m, name, recorded)
        return calls

    return start
