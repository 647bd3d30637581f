#!/usr/bin/env python3
"""Closed-loop benchmark of the rd, iq and cm coding schemes.

One process, one operation in flight, no worker threads (BLAS is pinned
to one thread before numpy loads).  A run builds a Gauss-Markov training
corpus and a holdout set drawn from ``--seed``, trains the rd, iq and cm
models through the package's public API, then encodes and decodes every
holdout latent at every operating point, in complete passes, until
``--seconds`` have passed since training started.  Every round trip checks
itself: unpacked indices equal the encoder's, the decoded latent is
byte-identical to the encoder's reconstruction, and from the second pass
on the payload and reconstruction bytes equal the first pass's.  Any
exception or mismatch counts the operation as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps the
layer entry points (see layertrace.py) and prints the per-layer metrics of
the first training round and the first pass, whose counts repeat exactly
for a seed; later passes alternate untraced and traced, which gives the
tracing overhead within one process.  Each run writes a full result (run
metadata, the SHA-256 of the first pass's bytes, tails, and for a traced
run the span totals, PhaseTimer cross-check and tracing overhead) to
``.perfbench/results/<workload>-s<seed>-t<trace>.json``; a traced run also
writes its counted spans beside it as ``...-spans.json``.

    python3 perfbench/run.py --workload scalar-large --seed 1 --seconds 35 --trace 0
"""

from time import perf_counter, perf_counter_ns

_START = perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ.setdefault(_name, "1")

OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# The training corpus and training seed are the same in every run; --seed
# draws the holdout sets.  Which Lloyd optimum a codebook lands in depends on
# the corpus (scalar-small's rd_mse takes one of two values about 30% apart
# across corpora), and the quality metrics exist to expose a change in the
# code's numerics, not in the corpus.
TRAIN_SEED = 0
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark input: latent geometry, corpus sizes and model menu.

    ``holdout`` latents are coded in every pass; ``mse_holdout`` latents
    (the same ones first) are rd-coded once, untimed, after the timed loop
    for ``rd_mse``, whose per-latent variation needs more elements than
    the timed passes can afford.
    """

    channels: int
    size: int
    rho: float
    train: int
    holdout: int
    mse_holdout: int
    stages: tuple[int, ...]
    ms: tuple[int, ...]
    hyper: tuple[int, ...] | None
    deltas: tuple[float, ...]
    iterations: int
    train_rounds: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "scalar-large": Workload(channels=1, size=128, rho=0.9, train=8, holdout=4,
                             mse_holdout=24, stages=(64, 64, 64), ms=(1, 2, 3),
                             hyper=None, deltas=(1.0, 0.5, 0.25), iterations=10,
                             train_rounds=3),
    "vector-hyper": Workload(channels=16, size=64, rho=0.9, train=22, holdout=2,
                             mse_holdout=8, stages=(256, 256), ms=(1, 2),
                             hyper=(256, 256), deltas=(1.0, 0.5), iterations=3,
                             train_rounds=1),
    "scalar-small": Workload(channels=1, size=32, rho=0.9, train=16, holdout=24,
                             mse_holdout=400, stages=(16, 16), ms=(1, 2),
                             hyper=None, deltas=(0.5,), iterations=10, train_rounds=15),
}

E2E_UNITS = {
    "setup_s": "s",
    "train_rd_s": "s", "train_iq_s": "s", "train_cm_s": "s",
    "rd_encode_ns_per_elem": "ns", "iq_encode_ns_per_elem": "ns",
    "cm_encode_ns_per_elem": "ns",
    "rd_decode_ns_per_elem": "ns", "iq_decode_ns_per_elem": "ns",
    "cm_decode_ns_per_elem": "ns",
    "rd_decode_ns_per_elem_tail": "ns", "cm_decode_ns_per_elem_tail": "ns",
    "rd_bits_per_elem": "bit", "rd_mse": "mse", "cm_bits_per_elem": "bit",
    "peak_rss_mb": "MB",
}
OPS = ("rd_encode", "iq_encode", "cm_encode", "rd_decode", "iq_decode", "cm_decode")


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import rvqcodec from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "rvqcodec" / "__init__.py").is_file():
        fail_setup(f"no package source at {src / 'rvqcodec'}")
    sys.path.insert(0, str(src))
    import rvqcodec

    if Path(rvqcodec.__file__).resolve().parent != (src / "rvqcodec").resolve():
        fail_setup(f"rvqcodec imported from {rvqcodec.__file__}, not {src}")
    return rvqcodec


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(rv, np, scipy, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rvqcodec": rv.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Order statistic with max(10, n // 10) samples above it.

    That is the nearest-rank p90 once there are 100 samples, and below that
    the highest percentile with ten samples beyond it.  Higher percentiles
    would rest on the few slowest operations of a run, which on a shared
    machine are set by other tenants more than by the code.  Returns
    (value, percentile, sample count); with ten samples or fewer, the
    maximum at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    beyond = max(TAIL_BEYOND, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when no operation contributed to b."""
    return a / b if b else 0.0


def stacks_equal(np, a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.stages == b.stages and all(
        np.array_equal(u, v) for u, v in zip(a.indices, b.indices))


def untraced_span(name: str):
    return nullcontext()


class Bench:
    """Trains the three schemes for one workload and runs coding passes.

    Operation samples go to ``samples[traced]``; a traced run switches
    ``traced`` per pass so traced and untraced passes are kept apart.
    """

    def __init__(self, rv, np, wl: Workload, seed: int, work_dir: Path):
        self.rv, self.np, self.wl = rv, np, wl
        self.path = work_dir / "stream.efbs"
        train_source, holdout_source = (
            rv.SourceConfig(channels=wl.channels, height=wl.size, width=wl.size,
                            rho=wl.rho, variance=1.0, seed=src_seed)
            for src_seed in (TRAIN_SEED, seed))
        self.train = [rv.gauss_markov_sample(train_source, index=i)
                      for i in range(wl.train)]
        self.mse_holdout = [rv.gauss_markov_sample(holdout_source, index=100_000 + i)
                            for i in range(max(wl.holdout, wl.mse_holdout))]
        self.holdout = self.mse_holdout[:wl.holdout]
        self.timers = {op: rv.PhaseTimer() for op in OPS}
        self.samples = {traced: {op: [] for op in OPS} for traced in (False, True)}
        self.traced = False
        self.span = untraced_span
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_digests: dict[tuple, bytes] = {}
        self.digest = hashlib.sha256()
        self.quality = {"rd_bits": 0, "rd_elems": 0, "cm_bits": 0, "cm_elems": 0,
                        "cm_coded_bits": 0, "cm_self_info": 0.0, "cm_clamps": 0}
        self.rd_top_stacks: list = []

    def train_models(self) -> dict:
        rv, wl, s = self.rv, self.wl, TRAIN_SEED
        schemes = rv.schemes
        per_group = (wl.stages,) * 4
        t0 = perf_counter()
        self.rd_model = schemes.train_rd_model(
            self.train, (), hyper_stage_sizes=wl.hyper, m=None,
            iterations=wl.iterations, seed=s, group_stage_sizes=per_group)
        t1 = perf_counter()
        self.iq_qset = schemes.train_iq_model(
            self.train, (), iterations=wl.iterations, seed=s, group_stage_sizes=per_group)
        t2 = perf_counter()
        self.cm_models = {d: schemes.train_cm_model(self.train, delta=d, seed=s)
                          for d in wl.deltas}
        t3 = perf_counter()
        return {"train_rd_s": t1 - t0, "train_iq_s": t2 - t1, "train_cm_s": t3 - t2}

    def operations(self):
        """Every (scheme, operating point, holdout index) of one pass."""
        for j in range(len(self.holdout)):
            for m in self.wl.ms:
                yield ("rd", m, j)
                yield ("iq", m, j)
            for d in self.wl.deltas:
                yield ("cm", d, j)

    def run_pass(self, first: bool) -> None:
        for key in self.operations():
            self.attempted += 1
            try:
                ok = self.round_trip(key, first)
            except Exception as exc:  # a failed operation, counted and reported
                ok = False
                self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            if not ok:
                self.failed += 1

    def round_trip(self, key, first: bool) -> bool:
        scheme, point, j = key
        x = self.holdout[j]
        if scheme == "cm":
            t0, t1, t2, payload, recon, coded = self.cm_round_trip(x, point)
        else:
            t0, t1, t2, payload, recon, coded, same = self.fixed_round_trip(scheme, x, point)
            if not same:
                self.errors.append(f"{key}: unpack(pack(stacks)) != encoder stacks")
                return False
        rebuilt = recon.data.tobytes()
        if rebuilt != coded.reconstruction.data.tobytes():
            self.errors.append(f"{key}: decoded latent differs from encoder reconstruction")
            return False
        op_digest = hashlib.sha256(payload + rebuilt).digest()
        if first:
            self.op_digests[key] = op_digest
            self.digest.update(op_digest)
            self.account(scheme, point, x, payload, coded)
        elif self.op_digests.get(key) != op_digest:
            self.errors.append(f"{key}: bytes differ from the first pass")
            return False
        elems = x.data.size
        samples = self.samples[self.traced]
        samples[f"{scheme}_encode"].append((t1 - t0) / elems)
        samples[f"{scheme}_decode"].append((t2 - t1) / elems)
        return True

    def fixed_round_trip(self, scheme: str, x, m: int):
        rv = self.rv
        schemes, bitstream = rv.schemes, rv.bitstream
        qset = self.rd_model[1] if scheme == "rd" else self.iq_qset
        enc, dec = self.timers[f"{scheme}_encode"], self.timers[f"{scheme}_decode"]
        header = rv.StreamHeader(height=x.height * rv.grids.LATENT_DOWNSAMPLE,
                                 width=x.width * rv.grids.LATENT_DOWNSAMPLE, q=m)
        t0 = perf_counter_ns()
        with self.span(f"op.{scheme}_encode"):
            if scheme == "rd":
                coded = schemes.rd_encode(x, self.rd_model[0], qset, m, timer=enc)
            else:
                coded = schemes.iq_encode(x, qset, m, timer=enc)
            with enc.phase("pack"):
                stream = bitstream.pack(header, coded.hyper_stack, coded.group_stacks, qset)
            bitstream.write_bitstream_file(self.path, stream)
        t1 = perf_counter_ns()
        with self.span(f"op.{scheme}_decode"):
            received = bitstream.read_bitstream_file(self.path)
            with dec.phase("pack"):
                got_header, hyper_stack, group_stacks = bitstream.unpack(received, qset)
            f = rv.grids.LATENT_DOWNSAMPLE
            rebuilt = rv.CodedLatent(
                scheme=scheme, m=got_header.q, rate_bits=8 * len(received.payload),
                shape=(qset.groups[0].dim, got_header.height // f, got_header.width // f),
                reconstruction=None, group_stacks=group_stacks, hyper_stack=hyper_stack)
            if scheme == "rd":
                recon = schemes.rd_decode(rebuilt, self.rd_model[0], qset, timer=dec)
            else:
                recon = schemes.iq_decode(rebuilt, qset, timer=dec)
        t2 = perf_counter_ns()
        same = (stacks_equal(self.np, hyper_stack, coded.hyper_stack)
                and all(stacks_equal(self.np, a, b)
                        for a, b in zip(group_stacks, coded.group_stacks, strict=True)))
        return t0, t1, t2, stream.header.to_bytes() + stream.payload, recon, coded, same

    def cm_round_trip(self, x, delta: float):
        rv = self.rv
        schemes = rv.schemes
        predictor = self.cm_models[delta]
        config = rv.SchemeConfig(scheme="cm", delta=delta)
        t0 = perf_counter_ns()
        with self.span("op.cm_encode"):
            coded = schemes.cm_encode(x, predictor, config, timer=self.timers["cm_encode"])
            blobs = [s.to_bytes() for s in coded.group_streams]
        t1 = perf_counter_ns()
        with self.span("op.cm_decode"):
            streams = tuple(rv.RansStream.from_bytes(b) for b in blobs)
            rebuilt = rv.CodedLatent(scheme="cm", shape=coded.shape, reconstruction=None,
                                     rate_bits=coded.rate_bits, delta=delta,
                                     group_streams=streams)
            recon = schemes.cm_decode(rebuilt, predictor, config,
                                      timer=self.timers["cm_decode"])
        t2 = perf_counter_ns()
        return t0, t1, t2, b"".join(blobs), recon, coded

    def account(self, scheme: str, point, x, payload: bytes, coded) -> None:
        """Rate and waste figures of the first pass (they repeat exactly)."""
        q = self.quality
        if scheme == "rd":
            q["rd_bits"] += 8 * len(payload)  # 32-bit header + padded payload
            q["rd_elems"] += x.data.size
            if point == self.wl.ms[-1]:
                self.rd_top_stacks.append(coded.group_stacks)
        elif scheme == "cm":
            q["cm_bits"] += 8 * len(payload)
            q["cm_elems"] += x.data.size
            q["cm_coded_bits"] += sum(s.bits for s in coded.group_streams)
            q["cm_self_info"] += coded.self_information_bits
            q["cm_clamps"] += coded.clamp_count

    def rd_mse(self) -> float:
        """Pooled rd MSE over the mse holdout at every m; untimed."""
        predictor, qset = self.rd_model
        sse, elems = 0.0, 0
        for x in self.mse_holdout:
            for m in self.wl.ms:
                coded = self.rv.schemes.rd_encode(x, predictor, qset, m)
                diff = coded.reconstruction.data - x.data
                sse += float((diff * diff).sum())
                elems += diff.size
        return sse / elems

    def end_to_end(self, traced: bool, setup_s: float, train: dict,
                   rd_mse: float) -> tuple[dict, dict]:
        q, samples = self.quality, self.samples[traced]
        metrics = {"setup_s": setup_s, **train}
        for op in OPS:
            metrics[f"{op}_ns_per_elem"] = statistics.median(samples[op] or [0.0])
        tails = {}
        for op in ("rd_decode", "cm_decode"):
            value, pct, n = tail(samples[op])
            metrics[f"{op}_ns_per_elem_tail"] = value
            tails[op] = {"percentile": pct, "samples": n}
        metrics["rd_bits_per_elem"] = ratio(q["rd_bits"], q["rd_elems"])
        metrics["rd_mse"] = rd_mse
        metrics["cm_bits_per_elem"] = ratio(q["cm_bits"], q["cm_elems"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, tails

    def index_statistics(self) -> dict:
        """Codeword utilization and worst entropy gap of rd's holdout indices."""
        np, analysis = self.np, self.rv.analysis
        used, gaps = [], []
        if not self.rd_top_stacks:  # every rd operation of the first pass failed
            return {"utilization": 0.0, "entropy_gap": 0.0}
        for g, rvq in enumerate(self.rd_model[1].groups):
            for t, cb in enumerate(rvq.stage_codebooks):
                idx = np.concatenate([stacks[g].indices[t] for stacks in self.rd_top_stacks])
                hist = analysis.IndexHistogram.from_indices(idx, cb.size)
                used.append(np.count_nonzero(hist.counts) / cb.size)
                gaps.append(analysis.entropy_gap(hist))
        return {"utilization": float(np.mean(used)), "entropy_gap": max(gaps)}


def layer_metrics(summary: dict, bench: Bench, ops_per_pass: int) -> dict:
    layers = summary["layers"]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0)

    def self_ms(layer):
        return get(layer, "self_ns") / 1e6

    def per_work(layer):
        return ratio(get(layer, "self_ns"), get(layer, "work"))

    q = bench.quality
    stats = bench.index_statistics()
    out = {
        "grids.partition.self_ms": self_ms("grids.partition"),
        "grids.merge.self_ms": self_ms("grids.merge"),
        "grids.hyper.self_ms": self_ms("grids.hyper"),
        "quantizers.distances.calls": get("quantizers.distances", "calls"),
        "quantizers.distances.evals": get("quantizers.distances", "work"),
        "quantizers.distances.self_ms": self_ms("quantizers.distances"),
        "quantizers.distances.ns_per_eval": per_work("quantizers.distances"),
        "quantizers.nn_quantize.self_ms": self_ms("quantizers.nn_quantize"),
        "quantizers.rvq_quantize.self_ms": self_ms("quantizers.rvq_quantize"),
        "quantizers.train_codebook.calls": get("quantizers.train_codebook", "calls"),
        "quantizers.train_codebook.self_ms": self_ms("quantizers.train_codebook"),
        "quantizers.train_rvq.self_ms": self_ms("quantizers.train_rvq"),
        "quantizers.reconstruct.self_ms": self_ms("quantizers.reconstruct"),
        "quantizers.utilization": stats["utilization"],
        "quantizers.entropy_gap": stats["entropy_gap"],
        "schemes.predict.calls": get("schemes.predict", "calls"),
        "schemes.predict.self_ms": self_ms("schemes.predict"),
        "schemes.predict.ns_per_elem": per_work("schemes.predict"),
        "schemes.predict_fit.self_ms": self_ms("schemes.predict_fit"),
        "schemes.fit_heads.self_ms": self_ms("schemes.fit_heads"),
    }
    for scheme in ("rd", "iq", "cm"):
        for side in ("encode", "decode"):
            out[f"schemes.{scheme}_{side}.self_ms"] = self_ms(f"schemes.{scheme}_{side}")
        out[f"schemes.train_{scheme}.self_ms"] = self_ms(f"schemes.train_{scheme}")
    out.update({
        "schemes.cm.clamp_ratio": ratio(q["cm_clamps"], get("rans.encode", "work")),
        "bitstream.pack.self_ms": self_ms("bitstream.pack"),
        "bitstream.pack.ns_per_index": per_work("bitstream.pack"),
        "bitstream.unpack.self_ms": self_ms("bitstream.unpack"),
        "bitstream.unpack.ns_per_index": per_work("bitstream.unpack"),
        "bitstream.indices": get("bitstream.pack", "work"),
        "bitstream.container.self_ms": self_ms("bitstream.container"),
        "rans.tables.calls": get("rans.tables", "calls"),
        "rans.tables.entries": get("rans.tables", "work"),
        "rans.tables.self_ms": self_ms("rans.tables"),
        "rans.encode.self_ms": self_ms("rans.encode"),
        "rans.encode.ns_per_symbol": per_work("rans.encode"),
        "rans.decode.self_ms": self_ms("rans.decode"),
        "rans.decode.ns_per_symbol": per_work("rans.decode"),
        "rans.symbols": get("rans.encode", "work"),
        "rans.bits_over_self_info": ratio(q["cm_coded_bits"], q["cm_self_info"]),
        "bench.operations": ops_per_pass,
    })
    return out


LAYER_UNITS = {"calls": "count", "evals": "count", "entries": "count",
               "indices": "count", "symbols": "count", "operations": "count",
               "utilization": "ratio", "entropy_gap": "ratio", "clamp_ratio": "ratio",
               "bits_over_self_info": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    return "ms" if last.endswith("_ms") else "ns"


def cross_check(summary: dict, phases_by_op: dict) -> dict:
    """PhaseTimer totals beside the spans of the same operations.

    ``autoregressive`` also times building the context (a concatenation),
    so it exceeds the predict spans by that glue; cm's ``entropy_code``
    also times the sigma grid, symbol/table selection, ``tolist`` and the
    self-information sum, reported as ``glue_ms``.
    """
    by_root = summary["by_root"]

    def total_ms(root, layer):
        return by_root.get(root, {}).get(layer, {}).get("total_ns", 0) / 1e6

    out = {}
    for op, phases in phases_by_op.items():
        scheme, side = op.split("_")
        root = f"op.{op}"
        row = {"phase_timer_ms": phases,
               "predict_span_ms": total_ms(root, "schemes.predict")}
        row["autoregressive_minus_predict_ms"] = (
            phases["autoregressive"] - row["predict_span_ms"])
        if scheme == "cm":
            tables = total_ms(root, "rans.tables")
            coder = total_ms(root, f"rans.{side}")
            row.update({"tables_span_ms": tables, "rans_span_ms": coder,
                        "glue_ms": phases["entropy_code"] - tables - coder})
        else:
            row["pack_span_ms"] = total_ms(root, "bitstream.pack" if side == "encode"
                                           else "bitstream.unpack")
        out[op] = row
    return out


def measure(bench: Bench, rv, seconds: float, tracer) -> dict:
    """Train and code until ``seconds`` have passed; see the module docstring.

    The run is split into ``train_rounds`` equal slots, each starting with a
    (deterministic, so identical) retraining, which spreads the training
    samples over the run.  With a tracer, the first training and the first
    pass are traced and summarised (a fixed amount of work, so the counts
    repeat exactly); after that, training rounds and passes alternate
    untraced and traced.
    """

    def set_traced(on: bool) -> None:
        if tracer is None or on == bench.traced:
            return
        if on:
            tracer.install(rv)
        else:
            tracer.uninstall()
            tracer.clear()
        bench.traced = on
        bench.span = tracer.span if on else untraced_span

    wl = bench.wl
    train_runs = {False: [], True: []}
    out = {}
    start = perf_counter()
    n_pass = 0
    try:
        for r in range(wl.train_rounds):
            set_traced(r % 2 == 0)
            train_runs[bench.traced].append(bench.train_models())
            if r == 0:
                bench.run_pass(first=True)
                out["ops_per_pass"] = bench.attempted
                if tracer is not None:
                    out["summary"] = tracer.summary()
                    out["spans"] = list(tracer.spans)
                    out["phases"] = {op: t.as_dict() for op, t in bench.timers.items()}
                    tracer.clear()
            slot_end = seconds * (r + 1) / wl.train_rounds
            while perf_counter() - start < slot_end:
                n_pass += 1
                set_traced(n_pass % 2 == 0)
                bench.run_pass(first=False)
                if tracer is not None:
                    tracer.clear()
    finally:
        set_traced(False)
    out["measured_s"] = perf_counter() - start
    out["passes"] = n_pass + 1
    out["train_runs"] = train_runs
    return out


def median_training(runs: list[dict]) -> dict:
    return {k: statistics.median(t[k] for t in runs) for k in runs[0]}


def result_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT_DIR / "results" / f"{workload}-s{seed}-t{int(trace)}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    wl = WORKLOADS[args.workload]

    rv = import_package()
    import numpy as np
    import scipy
    import_s = perf_counter() - _START

    work_dir = OUT_DIR / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    synth_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        bench = Bench(rv, np, wl, args.seed, work_dir)
        synth_s.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(synth_s)

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    run = measure(bench, rv, args.seconds, tracer)
    rd_mse = bench.rd_mse()

    train_runs = run["train_runs"]
    untraced_train = median_training(train_runs[False] or train_runs[True])
    metrics, tails = bench.end_to_end(False, setup_s, untraced_train, rd_mse)
    result = {
        "meta": metadata(rv, np, scipy, args.workload, args.seed, trace),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors[:20],
        "measured_s": run["measured_s"],
        "passes": run["passes"],
        "setup": {"import_s": import_s, "synthesis_s": synth_s},
        "train_rounds": train_runs,
        "digest": bench.digest.hexdigest(),
        "tails": tails,
        "end_to_end": metrics,
        "samples": {op: len(v) for op, v in bench.samples[False].items()},
    }
    if trace:
        summary = run["summary"]
        layers = layer_metrics(summary, bench, run["ops_per_pass"])
        traced_metrics, _ = bench.end_to_end(
            True, setup_s, median_training(train_runs[True]), rd_mse)
        # Traced over untraced, from the same process's alternating passes and
        # rounds; training has an untraced round only when train_rounds > 1.
        result["tracing_overhead"] = {
            k: ratio(traced_metrics[k] - metrics[k], metrics[k]) for k in metrics
            if k.endswith(("_ns_per_elem", "_tail"))
            or (k.startswith("train_") and train_runs[False])}
        result.update(per_layer=layers, traced_end_to_end=traced_metrics, spans=summary,
                      cross_check=cross_check(summary, run["phases"]))
        printed = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        printed = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    path = result_path(args.workload, args.seed, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    if trace:
        # (layer, start_ns, end_ns, parent index, work) per span.
        path.with_name(path.stem + "-spans.json").write_text(json.dumps(run["spans"]))

    correct = bench.failed == 0 and bench.attempted > 0
    for err in bench.errors[:5]:
        print(f"error: {err}")
    for op, t in tails.items():
        print(f"{op} tail: p{t['percentile']:.2f} of {t['samples']} samples")
    for k, v in result.get("tracing_overhead", {}).items():
        print(f"tracing overhead {k}: {v:+.1%}")
    for k, v in printed.items():
        print(f"{k:<40} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
