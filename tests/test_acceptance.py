"""Acceptance battery: the ten headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to read the lines as a
report.  The heavy experiments (codebook shaping, the two scheme
comparisons, the pipeline entropy estimate, the latency fixture) run once
per session via module-scoped fixtures; everything asserts the stated
tolerances, so a red test here means the claim itself failed, not an
infrastructure problem.
"""

import time

import numpy as np
import pytest

from rvqcodec.analysis import (
    RDCurve,
    RDPoint,
    bd_rate,
    decorrelation_gain_experiment,
    density_law_experiment,
    index_shaping_experiment,
    pchip_interpolate,
    pipeline_entropy_experiment,
    rate_dominance_experiment,
)
from rvqcodec.bitstream import StreamHeader, fixed_length_bits, pack, unpack
from rvqcodec.grids import (
    LATENT_DOWNSAMPLE,
    SourceConfig,
    gauss_markov_sample,
    rng_for,
)
from rvqcodec.quantizers import Codebook, IndexStack, QuantizerSet, ResidualVQ
from rvqcodec.rans import RansStream, _decode_core, _encode_core, decode_rows
from rvqcodec.schemes import (
    CodedLatent,
    SchemeConfig,
    cm_decode,
    cm_encode,
    rd_decode,
    rd_encode,
    train_cm_model,
    train_rd_model,
)
from rvqcodec.timing import PhaseTimer


def _report(n: int, ok: bool, detail: str):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy fixtures.


@pytest.fixture(scope="module")
def shaping():
    start = time.perf_counter()
    report = index_shaping_experiment(seed=1)
    report["elapsed_s"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def decorrelation():
    start = time.perf_counter()
    report = decorrelation_gain_experiment(seed=5)
    report["elapsed_s"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def dominance():
    return rate_dominance_experiment(seed=5)


@pytest.fixture(scope="module")
def pipeline_entropy():
    return pipeline_entropy_experiment(seed=5)


# Timed decodes per operating point; criterion 10 compares the sums of the
# per-point medians, so one stall of the box moves no point's figure.
_LATENCY_REPEATS = 5


def _median_time(decode) -> float:
    times = []
    for _ in range(_LATENCY_REPEATS):
        start = time.perf_counter()
        decode()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@pytest.fixture(scope="module")
def latency():
    """Equal-point-count decode timing: three stage counts against three
    step sizes on the same holdout latents, each decode timed
    ``_LATENCY_REPEATS`` times."""
    source = SourceConfig(channels=1, height=64, width=64, rho=0.9, variance=1.0, seed=33)
    train = [gauss_markov_sample(source, index=i) for i in range(8)]
    hold = [gauss_markov_sample(source, index=1000 + i) for i in range(2)]

    pred_rd, qset = train_rd_model(
        train, (), m=None, iterations=8, seed=7, group_stage_sizes=((32, 32, 32),) * 4
    )
    rd_timer = PhaseTimer()
    rd_decode_s = 0.0
    for m in (1, 2, 3):
        for x in hold:
            coded = rd_encode(x, pred_rd, qset, m, timer=rd_timer)
            header = StreamHeader(
                height=x.height * LATENT_DOWNSAMPLE,
                width=x.width * LATENT_DOWNSAMPLE,
                q=m,
            )
            stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)

            def decode():
                with rd_timer.phase("pack"):
                    _, hyper_stack, group_stacks = unpack(stream, qset)
                rebuilt = CodedLatent(
                    scheme="rd", shape=coded.shape, reconstruction=None,
                    rate_bits=coded.rate_bits, m=m,
                    group_stacks=group_stacks, hyper_stack=hyper_stack,
                )
                rd_decode(rebuilt, pred_rd, qset, timer=rd_timer)

            rd_decode_s += _median_time(decode)

    cm_timer = PhaseTimer()
    cm_decode_s = 0.0
    for delta in (1.0, 0.5, 0.25):
        pred_cm = train_cm_model(train, delta=delta, seed=7)
        config = SchemeConfig(scheme="cm", delta=delta)
        for x in hold:
            coded = cm_encode(x, pred_cm, config, timer=cm_timer)
            cm_decode_s += _median_time(lambda: cm_decode(coded, pred_cm, config, timer=cm_timer))

    return {
        "rd_phases": rd_timer.as_dict(),
        "cm_phases": cm_timer.as_dict(),
        "rd_decode_s": rd_decode_s,
        "cm_decode_s": cm_decode_s,
    }


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_1_index_shaping(shaping):
    ok = (
        shaping["final_gap"] <= 0.05
        and shaping["final_gap"] <= shaping["initial_gap"]
        and shaping["elapsed_s"] < 60.0
    )
    _report(
        1, ok,
        f"entropy gap {shaping['initial_gap']:.4f} -> {shaping['final_gap']:.4f}"
        f" (threshold 0.05) in {shaping['elapsed_s']:.1f}s",
    )


def test_criterion_2_density_law(shaping):
    report = density_law_experiment(shaping["codebook"], n_samples=1_000_000, seed=2)
    ok = report["tv_distance"] <= 0.1
    _report(
        2, ok,
        f"TV(empirical, predicted pmf) = {report['tv_distance']:.4f} (tolerance 0.1)",
    )


def test_criterion_3_decorrelation_gain(decorrelation):
    rows = decorrelation["rows"]
    within = all(r["within_tolerance"] for r in rows)
    strict = any(r["strict_gain"] for r in rows)
    ok = within and strict and decorrelation["elapsed_s"] < 300.0
    ratios = ", ".join(f"m={r['m']}: {r['ratio']:.3f}" for r in rows)
    _report(
        3, ok,
        f"holdout MSE ratios ({ratios}); all <= 1.02, min <= 0.95,"
        f" {decorrelation['elapsed_s']:.0f}s",
    )


def test_criterion_4_rate_dominance(dominance):
    print("criterion  4: per-point table (rates in bits per element)")
    for r in dominance["rows"]:
        matched = (
            f"sizes={r['sizes']} rate={r['rd_rate']:.3f} mse={r['rd_mse']:.4f}"
            f" slack={r['slack']:.4f}"
            if r["sizes"] is not None else "no point under the rate cap"
        )
        assert r["slack"] == (None if r["sizes"] is None else r["rate_cap"] - r["rd_rate"])
        print(
            f"  delta={r['delta']:<6} cm rate={r['cm_rate']:.3f}"
            f" mse={r['cm_mse']:.4f} | fixed-length {matched}"
            f" | {'pass' if r['passed'] else 'FAIL'}"
        )
    _report(4, dominance["passed"], f"{len(dominance['rows'])} operating points matched")


def test_criterion_5_pipeline_entropy(pipeline_entropy):
    ok = pipeline_entropy["gap"] <= 0.05
    note = " (sparse-context warning)" if pipeline_entropy["sparse_warning"] else ""
    _report(
        5, ok,
        f"conditional entropy gap {pipeline_entropy['gap']:.4f} <= 0.05{note}",
    )


def _zero_rvq(stage_sizes, dim=1):
    return ResidualVQ(
        stage_codebooks=tuple(Codebook(np.zeros((k, dim))) for k in stage_sizes)
    )


def test_criterion_6_bitstream_exactness():
    rng = rng_for(606, stream=0)
    trials = 1000
    max_pad = 0
    for _ in range(trials):
        use_hyper = bool(rng.integers(0, 2))
        unit = 64 if use_hyper else 32
        height = unit * int(rng.integers(1, 5))
        width = unit * int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        sizes = tuple(int(2 ** rng.integers(0, 6)) for _ in range(4))
        hyper_k = int(2 ** rng.integers(0, 6)) if use_hyper else None
        qset = QuantizerSet(
            groups=tuple(_zero_rvq((k,) * m) for k in sizes),
            hyper=_zero_rvq((hyper_k,) * m) if use_hyper else None,
        )
        n_group = (height // 32) * (width // 32)
        groups = tuple(
            IndexStack(indices=tuple(rng.integers(0, k, size=n_group) for _ in range(m)))
            for k in sizes
        )
        n_hyper = (height // 64) * (width // 64) if use_hyper else None
        hyper = None
        if use_hyper:
            hyper = IndexStack(
                indices=tuple(rng.integers(0, hyper_k, size=n_hyper) for _ in range(m))
            )

        header = StreamHeader(height=height, width=width, q=m)
        stream = pack(header, hyper, groups, qset)
        got_header, got_hyper, got_groups = unpack(stream, qset)

        assert got_header == header
        assert (got_hyper is None) == (hyper is None)
        if hyper is not None:
            for a, b in zip(hyper.indices, got_hyper.indices):
                assert np.array_equal(a, b)
        for ga, gb in zip(groups, got_groups):
            for a, b in zip(ga.indices, gb.indices):
                assert np.array_equal(a, b)
        repacked = pack(got_header, got_hyper, got_groups, qset)
        assert repacked.payload == stream.payload

        shape = (1, height // LATENT_DOWNSAMPLE, width // LATENT_DOWNSAMPLE)
        pad = 8 * len(stream.payload) - fixed_length_bits(qset, m, shape)
        assert 0.0 <= pad <= 7.0
        max_pad = max(max_pad, pad)

    golden = StreamHeader(height=512, width=768, q=5).to_bytes()
    assert golden == bytes([0x08, 0x00, 0x30, 0x05])
    _report(
        6, True,
        f"{trials} randomized round trips byte-exact, payload = fixed-length rate"
        f" (max padding {max_pad:.0f} bits), header layout matches hand bytes",
    )


def test_criterion_7_bpp_hand_values():
    # 1024x1024 pixels: 64x64 latent, 32x32 per group, 16x16 hyper grid
    qset = QuantizerSet(
        groups=tuple(_zero_rvq((k,) * 5) for k in (1024, 512, 256, 128)),
        hyper=_zero_rvq((1024,) * 5),
    )
    one, five = (fixed_length_bits(qset, m, (1, 64, 64)) / 1024**2 for m in (1, 5))
    ok = one == 0.03564453125 and five == 0.17822265625
    _report(7, ok, f"bpp(m=1) = {one:.11f}, bpp(m=5) = {five:.11f}")


def _rans_round_trip(symbols, freq, row_of, precision) -> tuple[RansStream, list]:
    """Encode and decode under the full rows of ``freq``, as cm does."""
    cum = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cum[:, 1:])
    s = np.asarray(symbols, dtype=np.int64)
    r = np.asarray(row_of, dtype=np.int64)
    state, payload = _encode_core(freq[r, s].tolist(), cum[r, s].tolist(), precision)
    stream = RansStream(count=s.size, state=state, payload=payload)
    tables = decode_rows(freq, cum, precision)
    decoded = _decode_core(RansStream.from_bytes(stream.to_bytes()), tables, r.tolist(), precision)
    return stream, decoded


def _bisect_only(freq, precision) -> np.ndarray:
    """Per row, the symbols lying inside one 256-entry start-row bucket
    without starting it: the decoder finds every slot of theirs by its
    bisect fallback."""
    shift = precision - 8
    cum = np.cumsum(freq, axis=1)
    first, last = (cum - freq) >> shift, (cum - 1) >> shift
    return (first == last) & ((cum - freq) & ((1 << shift) - 1) != 0)


def test_criterion_8_rans():
    rng = rng_for(808, stream=0)
    trials = 1000
    fallbacks = 0
    for _ in range(trials):
        k = int(rng.integers(2, 33))
        precision = int(rng.integers(8, 17))
        rows = int(rng.integers(1, 5))
        freq = 1 + np.stack([
            rng.multinomial((1 << precision) - k, rng.dirichlet(np.ones(k))) for _ in range(rows)
        ])
        n = int(rng.integers(0, 301))
        symbols = rng.integers(0, k, size=n)
        row_of = rng.integers(0, rows, size=n)
        _, decoded = _rans_round_trip(symbols, freq, row_of, precision)
        assert decoded == symbols.tolist()
        fallbacks += int(_bisect_only(freq, precision)[row_of, symbols].sum())

    # Rate tracks the cross-entropy of the data under the coding table.
    precision = 14
    freq = np.array([[12288, 4096]])
    n = 10_000
    symbols = (rng.random(n) > 0.75).astype(np.int64)
    stream, decoded = _rans_round_trip(symbols, freq, np.zeros(n, dtype=np.int64), precision)
    assert decoded == symbols.tolist()
    q = freq[0] / float(1 << precision)
    cross_entropy = float(-np.sum(np.log2(q[symbols])))
    ok = abs(stream.bits - cross_entropy) <= 0.01 * cross_entropy + 32 and fallbacks > 0
    per_symbol = stream.bits / n
    _report(
        8, ok,
        f"{trials} round trips lossless ({fallbacks} symbols by bisect fallback);"
        f" {stream.bits} bits vs cross-entropy"
        f" {cross_entropy:.0f} ({per_symbol:.4f} b/sym, analytic 0.8113)",
    )


def test_criterion_9_bd_rate():
    rates = (100.0, 200.0, 400.0, 800.0)
    mses = (1.0, 0.5, 0.25, 0.125)
    anchor = RDCurve(
        "rd", tuple(RDPoint(float(i), r, r / 1e4, d) for i, (r, d) in enumerate(zip(rates, mses)))
    )
    halved = RDCurve(
        "rd", tuple(RDPoint(float(i), r / 2, r / 2e4, d) for i, (r, d) in enumerate(zip(rates, mses)))
    )
    same = bd_rate(anchor, anchor)
    half = bd_rate(anchor, halved)
    ok = same == 0.0 and abs(half + 50.0) <= 0.1

    # The interpolant must not invent wiggles between monotone knots.
    x = np.array([0.0, 0.7, 1.1, 2.4, 3.0])
    y = np.array([0.0, 0.3, 1.5, 1.7, 4.0])
    grid = np.linspace(0.0, 3.0, 1000)
    out = pchip_interpolate(x, y, grid)
    monotone = bool(np.all(np.diff(out) >= -1e-12))
    ok = ok and monotone
    _report(
        9, ok,
        f"self = {same:.2f}%, half-rate = {half:.2f}%,"
        f" 1000-point grid monotone = {monotone}",
    )


def test_criterion_10_latency_structure(latency):
    rd_ec = latency["rd_phases"]["entropy_code"]
    cm_ec = latency["cm_phases"]["entropy_code"]
    cm_tables = latency["cm_phases"]["tables"]
    ok = cm_ec > rd_ec == 0.0 and latency["rd_decode_s"] < latency["cm_decode_s"]
    _report(
        10, ok,
        f"entropy-coding phase: cm {cm_ec:.1f}ms > rd {rd_ec:.1f}ms"
        f" (cm tables {cm_tables:.1f}ms, {cm_tables / cm_ec:.0%} of it);"
        f" decode wall time: rd {latency['rd_decode_s'] * 1e3:.1f}ms"
        f" < cm {latency['cm_decode_s'] * 1e3:.1f}ms, summed medians of"
        f" {_LATENCY_REPEATS} decodes at 6 points each",
    )
