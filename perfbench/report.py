#!/usr/bin/env python3
"""Summarise the result files that run.py leaves in .perfbench/results/.

For each workload it prints, over the untraced runs found, every
end-to-end metric's median and its spread (quartile distance over the
median, the figure BENCHMARK.json's bounds are checked against), whether
the traced and untraced first-pass digests of one seed agree, the tracing
overhead measured inside each traced run, and the traced run's PhaseTimer
cross-check.  It ends with the reference
figures that ROADMAP item 2 quotes.

    python3 perfbench/report.py
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import E2E_UNITS  # noqa: E402


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def load() -> dict:
    runs = defaultdict(lambda: {False: {}, True: {}})
    for path in sorted(RESULTS.glob("*-t[01].json")):
        r = json.loads(path.read_text())
        runs[r["meta"]["workload"]][r["meta"]["trace"]][r["meta"]["seed"]] = r
    return runs


def workload_report(name: str, untraced: dict, traced: dict) -> None:
    print(f"== {name}: {len(untraced)} untraced, {len(traced)} traced runs")
    if untraced:
        print(f"  {'metric':<30} {'median':>12} {'spread':>8}  unit")
        for metric, unit in E2E_UNITS.items():
            values = [r["end_to_end"][metric] for r in untraced.values()]
            print(f"  {metric:<30} {statistics.median(values):>12.6g}"
                  f" {spread(values):>8.4f}  {unit}")
        failed = sum(r["failed"] for r in untraced.values())
        attempted = sum(r["attempted"] for r in untraced.values())
        print(f"  operations: {attempted} attempted, {failed} failed")
    for seed, t in sorted(traced.items()):
        u = untraced.get(seed)
        if u is not None:
            agree = u["digest"] == t["digest"]
            print(f"  seed {seed}: traced and untraced first-pass digests"
                  f" {'agree' if agree else 'DIFFER'}")
        over = ", ".join(f"{k} {v:+.1%}" for k, v in t["tracing_overhead"].items())
        print(f"  seed {seed} tracing overhead (traced over untraced passes): {over}")
    if traced:
        seed, t = min(traced.items())
        print(f"  PhaseTimer cross-check (traced seed {seed}, ms over the first pass):")
        for op, row in t["cross_check"].items():
            phases = row["phase_timer_ms"]
            line = (f"    {op:<10} autoregressive {phases['autoregressive']:9.2f}"
                    f" vs predict spans {row['predict_span_ms']:9.2f}")
            if "glue_ms" in row:
                line += (f" | entropy_code {phases['entropy_code']:9.2f} = tables"
                         f" {row['tables_span_ms']:.2f} + rans {row['rans_span_ms']:.2f}"
                         f" + glue {row['glue_ms']:.2f}")
            else:
                line += (f" | pack phase {phases['pack']:8.2f} vs span"
                         f" {row['pack_span_ms']:8.2f}")
            print(line)


def reference_figures(runs: dict) -> None:
    """ROADMAP item 2's reference numbers, re-measured."""
    print("== ROADMAP item 2 reference figures")
    large = runs.get("scalar-large", {})
    if large.get(False):
        med = {k: statistics.median(r["end_to_end"][k] for r in large[False].values())
               for k in ("rd_decode_ns_per_elem", "cm_decode_ns_per_elem")}
        elems, decodes = 128 * 128, 12
        print(f"  C=1 128^2, 12 decodes: rd {med['rd_decode_ns_per_elem'] * elems * decodes / 1e6:.1f} ms"
              f" vs cm {med['cm_decode_ns_per_elem'] * elems * decodes / 1e6:.1f} ms"
              " (median decode time per element x elements)")
    if large.get(True):
        t = min(large[True].items())[1]
        layers = t["spans"]["by_root"].get("op.cm_decode", {})
        ms = {k: layers.get(k, {}).get("self_ns", 0) / 1e6
              for k in ("rans.decode", "rans.tables", "schemes.cm_decode")}
        print(f"  C=1 128^2 cm decode, 12 decodes traced: rANS loop {ms['rans.decode']:.1f} ms,"
              f" tables {ms['rans.tables']:.1f} ms, cm_decode glue {ms['schemes.cm_decode']:.1f} ms")
    vec = runs.get("vector-hyper", {})
    if vec.get(False):
        med = {k: statistics.median(r["end_to_end"][k] for r in vec[False].values())
               for k in ("rd_encode_ns_per_elem", "rd_decode_ns_per_elem")}
        print(f"  C=16 64^2 rd: encode {med['rd_encode_ns_per_elem']:.0f} ns/elem,"
              f" decode {med['rd_decode_ns_per_elem']:.0f} ns/elem")
    if vec.get(True):
        t = min(vec[True].items())[1]
        layers = t["spans"]["by_root"].get("op.rd_encode", {})
        ms = {k: layers.get(k, {}).get("self_ns", 0) / 1e6
              for k in ("schemes.predict", "quantizers.distances")}
        print(f"  C=16 rd encode, pass 0: predict {ms['schemes.predict']:.1f} ms"
              f" vs distances {ms['quantizers.distances']:.1f} ms")


def main() -> int:
    runs = load()
    if not runs:
        print(f"no results under {RESULTS}", file=sys.stderr)
        return 1
    for name in sorted(runs):
        workload_report(name, runs[name][False], runs[name][True])
    reference_figures(runs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
