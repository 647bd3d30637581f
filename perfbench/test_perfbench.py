"""Repeatability of the benchmark itself.

Two traced runs and one untraced run of the same seed must agree on the
first pass's SHA-256 over payload and reconstruction bytes, on the quality
figures, and on every exact count; no operation may fail.  Without the
package source beside it the benchmark must fail without printing a
result.  Run with:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOAD = "scalar-small"
SEED = 424242

EXACT_COUNTS = (
    "quantizers.distances.calls",
    "quantizers.distances.evals",
    "quantizers.train_codebook.calls",
    "schemes.predict.calls",
    "rans.tables.calls",
    "rans.tables.entries",
    "rans.symbols",
    "bitstream.indices",
    "bench.operations",
    "quantizers.utilization",
    "quantizers.entropy_gap",
    "schemes.cm.clamp_ratio",
    "rans.bits_over_self_info",
)
QUALITY = ("rd_bits_per_elem", "rd_mse", "cm_bits_per_elem")


def run(trace: int, cwd: Path = ROOT, runner: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(trace: int) -> tuple[dict, dict]:
    proc = run(trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / ".perfbench" / "results" / f"{WORKLOAD}-s{SEED}-t{trace}.json"
    return printed, json.loads(path.read_text())


def test_digests_and_counts_repeat():
    first_printed, first = result(1)
    second_printed, second = result(1)
    untraced_printed, untraced = result(0)

    for printed in (first_printed, second_printed, untraced_printed):
        assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] > 0
    assert first["digest"] == second["digest"] == untraced["digest"]
    for name in EXACT_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in QUALITY:
        assert first["end_to_end"][name] == second["end_to_end"][name] == \
            untraced["end_to_end"][name], name
    assert set(untraced_printed["metrics"]) == set(untraced["end_to_end"])
    assert set(first_printed["metrics"]) == set(first["per_layer"])


def test_fails_without_package_source():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(0, cwd=bare, runner=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
