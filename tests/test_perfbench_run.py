"""The benchmark's coding passes must run against the package as it stands.

`perfbench/run.py` drives the public training, coding and packing API with
its own call signatures; a change to one of them passes the unit suites and
fails only in the benchmark.  This loads the driver by path, as
`test_layertrace_targets.py` loads the tracer, and runs one checked pass of
every operation on two tiny workloads: one C = 1 and one with a hyper grid.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rvqcodec

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _workload(run, **kw):
    base = dict(rho=0.9, holdout=1, mse_holdout=1, ms=(1, 2), deltas=(0.5,),
                iterations=2, train_rounds=1)
    return run.Workload(**(base | kw))


@pytest.mark.parametrize("hyper", [False, True], ids=["scalar", "hyper"])
def test_one_pass_of_every_operation_round_trips(run, hyper, tmp_path):
    if hyper:
        wl = _workload(run, channels=2, size=16, train=8, stages=(4, 4), hyper=(4, 4))
    else:
        wl = _workload(run, channels=1, size=16, train=4, stages=(4, 4), hyper=None)
    bench = run.Bench(rvqcodec, np, wl, seed=1, work_dir=tmp_path)
    bench.train_models()
    bench.run_pass(first=True)
    assert bench.errors == []
    assert bench.failed == 0
    assert bench.attempted == len(list(bench.operations())) == 5
    assert bench.rd_model[0].uses_hyper == hyper
    assert bench.rd_mse() > 0.0
