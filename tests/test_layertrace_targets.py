"""The benchmark's layer trace must find every entry point it wraps.

`perfbench/layertrace.py` patches package functions and methods by name;
a refactor that renames or removes one makes every traced benchmark run
raise.  This loads the tracer by path, as the benchmark does, and checks
its targets against the package.
"""

import importlib.util
from pathlib import Path

import pytest

import rvqcodec

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_module_exists(layertrace):
    for name in layertrace.MODULES:
        assert hasattr(rvqcodec, name), name


def test_every_traced_function_exists(layertrace):
    missing = [
        f"{home}.{attr}"
        for home, attr in layertrace.FUNCTION_LAYERS
        if not callable(getattr(getattr(rvqcodec, home, None), attr, None))
    ]
    assert not missing


def test_every_traced_method_exists(layertrace):
    missing = [
        f"{home}.{cls}.{attr}"
        for home, cls, attr in layertrace.METHOD_LAYERS
        if not callable(vars(getattr(getattr(rvqcodec, home, None), cls, object)).get(attr))
    ]
    assert not missing


def test_tracer_installs_and_restores_every_target(layertrace):
    originals = {
        (home, attr): getattr(getattr(rvqcodec, home), attr)
        for home, attr in layertrace.FUNCTION_LAYERS
    }
    tracer = layertrace.Tracer()
    tracer.install(rvqcodec)
    try:
        for (home, attr), fn in originals.items():
            assert getattr(getattr(rvqcodec, home), attr) is not fn, f"{home}.{attr}"
    finally:
        tracer.uninstall()
    for (home, attr), fn in originals.items():
        assert getattr(getattr(rvqcodec, home), attr) is fn
