"""The benchmark's coding passes must run against the package as it stands.

`perfbench/run.py` drives the public training, coding and packing API with
its own call signatures; a change to one of them passes the unit suites and
fails only in the benchmark.  This loads the driver by path, as
`test_layertrace_targets.py` loads the tracer, and runs one checked pass of
every operation on two tiny workloads: one C = 1 and one with a hyper grid.
It also runs a traced pass, the path of ``--trace 1``, which wraps the
package's layer entry points by name.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rvqcodec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def run():
    return _load("perfbench_run", PERFBENCH / "run.py")


def _workload(run, **kw):
    base = dict(rho=0.9, holdout=1, mse_holdout=1, ms=(1, 2), deltas=(0.5,),
                iterations=2, train_rounds=1)
    return run.Workload(**(base | kw))


def _tiny(run, hyper):
    if hyper:
        return _workload(run, channels=2, size=16, train=8, stages=(4, 4), hyper=(4, 4))
    return _workload(run, channels=1, size=16, train=4, stages=(4, 4), hyper=None)


@pytest.mark.parametrize("hyper", [False, True], ids=["scalar", "hyper"])
def test_one_pass_of_every_operation_round_trips(run, hyper, tmp_path):
    wl = _tiny(run, hyper)
    bench = run.Bench(rvqcodec, np, wl, seed=1, work_dir=tmp_path)
    bench.train_models()
    bench.run_pass(first=True)
    assert bench.errors == []
    assert bench.failed == 0
    assert bench.attempted == len(list(bench.operations())) == 5
    assert bench.rd_model[0].uses_hyper == hyper
    assert bench.rd_mse() > 0.0


def test_traced_pass_covers_every_layer_root(run, tmp_path):
    tracer = _load("layertrace", PERFBENCH / "layertrace.py").Tracer()
    bench = run.Bench(rvqcodec, np, _tiny(run, hyper=True), seed=1, work_dir=tmp_path)
    out = run.measure(bench, rvqcodec, 0.0, tracer)
    assert bench.errors == []
    assert bench.failed == 0 and bench.attempted == out["ops_per_pass"] == 5
    summary = out["summary"]
    layers = ("grids.partition", "grids.merge", "grids.hyper", "quantizers.reconstruct")
    assert all(summary["layers"][layer]["calls"] > 0 for layer in layers)
    roots = {f"op.{s}_{side}" for s in ("rd", "iq", "cm") for side in ("encode", "decode")}
    assert roots <= set(summary["by_root"])
    metrics = run.layer_metrics(summary, bench, out["ops_per_pass"])
    assert metrics["bench.operations"] == 5
    assert metrics["grids.hyper.self_ms"] > 0.0
    # the tracer put every wrapped entry point back
    assert not hasattr(rvqcodec.schemes.rd_encode, "__wrapped__")
    assert not hasattr(rvqcodec.schemes.partition_quadtree, "__wrapped__")
