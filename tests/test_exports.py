"""The names other code binds in ``tubesynth``.

``perfbench/tracing.py`` wraps each (module, attribute) of its BINDINGS
by name when it installs, so each of them must stay defined; and every
name the package exports must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tubesynth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("module, attribute",
                         [(module, attribute) for module, attribute, _ in load_bindings()])
def test_tracer_bindings_exist(module, attribute):
    assert callable(getattr(importlib.import_module("tubesynth." + module), attribute))


def test_package_exports_resolve():
    missing = [name for name in tubesynth.__all__ if not hasattr(tubesynth, name)]
    assert missing == []
    assert len(set(tubesynth.__all__)) == len(tubesynth.__all__)
