"""Range coder: table normalization, losslessness, coded-size efficiency,
and the pinned Gaussian CDF used by the conditional model."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from rvqcodec.grids import rng_for
from rvqcodec.rans import (
    FrequencyTable,
    RansStream,
    discretized_gaussian_table,
    gaussian_cdf,
    gaussian_table_batch,
    normalize_frequencies,
    rans_decode,
    rans_encode,
)
from rvqcodec.rans import _encode_core


def test_frequency_table_validation():
    with pytest.raises(ValueError, match="precision"):
        FrequencyTable(frequencies=np.array([128, 128]), precision=7)
    with pytest.raises(ValueError, match="sum to"):
        FrequencyTable(frequencies=np.array([100, 100]), precision=8)
    with pytest.raises(ValueError, match="frequency >= 1"):
        FrequencyTable(frequencies=np.array([256, 0]), precision=8)
    t = FrequencyTable(frequencies=np.array([192, 64]), precision=8)
    assert t.size == 2
    assert np.array_equal(t.cumulative(), np.array([0, 192, 256]))


def test_normalize_frequencies_hand_case():
    f = normalize_frequencies([3.0, 1.0], 8)
    assert f.tolist() == [192, 64]
    assert f.sum() == 256
    # totals for which 2**precision / total over- or underflows
    assert normalize_frequencies([2.2250738585e-313], 8).tolist() == [256]
    assert normalize_frequencies([3e-310, 1e-310], 8).tolist() == [192, 64]
    assert normalize_frequencies([1e308, 1e308], 8).tolist() == [128, 128]


def test_normalize_frequencies_protects_rare_symbols():
    f = normalize_frequencies([1e9, 1e-12, 1e-12], 8)
    assert f.sum() == 256
    assert f.min() >= 1
    # 200 promoted bins against a largest bin of exactly 200: it can give
    # only 199, so the last unit comes from the next largest bin
    f = normalize_frequencies([200.0, 56.0] + [0.0] * 200, 8)
    assert f.tolist() == [1, 55] + [1] * 200


def test_normalize_frequencies_validation():
    with pytest.raises(ValueError, match="precision"):
        normalize_frequencies([1.0], 17)
    with pytest.raises(ValueError, match="non-negative"):
        normalize_frequencies([1.0, -1.0], 8)
    with pytest.raises(ValueError, match="positive total"):
        normalize_frequencies([0.0, 0.0], 8)
    with pytest.raises(ValueError, match="cannot all get"):
        normalize_frequencies(np.ones(300), 8)
    with pytest.raises(ValueError, match="1-D"):
        normalize_frequencies(np.ones((2, 2)), 8)


@given(
    weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200),
    precision=st.integers(8, 16),
)
def test_normalize_frequencies_exact_mass(weights, precision):
    w = np.asarray(weights)
    if w.sum() <= 0 or w.size > (1 << precision):
        return
    f = normalize_frequencies(w, precision)
    assert int(f.sum()) == 1 << precision
    assert f.min() >= 1


@given(data=st.data())
def test_rans_round_trip_randomized_tables(data):
    k = data.draw(st.integers(2, 40))
    precision = data.draw(st.integers(8, 16))
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(0, 400))
    rng = rng_for(seed)
    freq = normalize_frequencies(rng.random(k) + 1e-9, precision)
    table = FrequencyTable(frequencies=freq, precision=precision)
    symbols = rng.integers(0, k, size=n).tolist()
    stream = rans_encode(symbols, table)
    assert rans_decode(stream, table) == symbols


def test_rans_round_trip_per_symbol_tables():
    rng = rng_for(51)
    tables = [
        FrequencyTable(frequencies=normalize_frequencies(rng.random(8) + 0.01, 12), precision=12)
        for _ in range(200)
    ]
    symbols = rng.integers(0, 8, size=200).tolist()
    stream = rans_encode(symbols, tables)
    assert rans_decode(stream, tables) == symbols


def test_rans_shared_table_decodes_like_per_symbol_tables():
    """One shared table, the same table object repeated, and distinct equal
    tables per symbol decode alike; so do two tables interleaved."""
    rng = rng_for(53)
    n = 2000
    freqs, _ = gaussian_table_batch(
        np.zeros(2), np.array([4.0, 40.0]), 1.0, support_radius=255, precision=16
    )
    narrow, wide = (FrequencyTable(frequencies=f, precision=16) for f in freqs)
    symbols = (255 + np.rint(rng.normal(0, 4, n))).astype(int).tolist()
    stream = rans_encode(symbols, narrow)
    copies = [FrequencyTable(frequencies=narrow.frequencies, precision=16) for _ in range(n)]
    assert rans_decode(stream, narrow) == symbols
    assert rans_decode(stream, [narrow] * n) == symbols
    assert rans_decode(stream, copies) == symbols

    mixed = [narrow if i % 3 else wide for i in range(n)]
    stream = rans_encode(symbols, mixed)
    listed = [copies[i] if i % 3 else FrequencyTable(wide.frequencies, 16) for i in range(n)]
    assert rans_decode(stream, mixed) == rans_decode(stream, listed) == symbols

    cut = RansStream(count=stream.count, state=stream.state, payload=stream.payload[:-3])
    for tables in (mixed, listed):
        with pytest.raises(ValueError):
            rans_decode(cut, tables)


def test_rans_shared_table_encodes_like_per_symbol_tables():
    """One shared table, the same table object repeated, distinct equal
    tables per symbol and two tables interleaved all encode to the bytes of
    a per-symbol (frequency, cumulative) lookup."""
    rng = rng_for(59)
    n = 2000
    freqs, _ = gaussian_table_batch(
        np.zeros(2), np.array([4.0, 40.0]), 1.0, support_radius=255, precision=16
    )
    narrow, wide = (FrequencyTable(frequencies=f, precision=16) for f in freqs)
    symbols = (255 + np.rint(rng.normal(0, 4, n))).astype(int).tolist()

    def per_symbol(tables):
        f = [int(t.frequencies[s]) for s, t in zip(symbols, tables)]
        c = [int(t.cumulative()[s]) for s, t in zip(symbols, tables)]
        state, payload = _encode_core(f, c, 16)
        return RansStream(count=n, state=state, payload=payload).to_bytes()

    want = per_symbol([narrow] * n)
    copies = [FrequencyTable(frequencies=narrow.frequencies, precision=16) for _ in range(n)]
    for tables in (narrow, [narrow] * n, copies):
        assert rans_encode(symbols, tables).to_bytes() == want

    mixed = [narrow if i % 3 else wide for i in range(n)]
    listed = [copies[i] if i % 3 else FrequencyTable(wide.frequencies, 16) for i in range(n)]
    want = per_symbol(mixed)
    assert rans_encode(symbols, mixed).to_bytes() == want
    assert rans_encode(symbols, listed).to_bytes() == want

    with pytest.raises(ValueError, match="outside table"):
        rans_encode(symbols[:5] + [511], narrow)


def test_rans_empty_stream():
    table = FrequencyTable(frequencies=np.array([128, 128]), precision=8)
    stream = rans_encode([], table)
    assert stream.count == 0
    assert rans_decode(stream, table) == []


def test_rans_table_count_and_precision_mismatch():
    t8 = FrequencyTable(frequencies=np.array([128, 128]), precision=8)
    t9 = FrequencyTable(frequencies=np.array([256, 256]), precision=9)
    with pytest.raises(ValueError, match="one table per symbol"):
        rans_encode([0, 1, 0], [t8, t8])
    with pytest.raises(ValueError, match="one precision"):
        rans_encode([0, 1], [t8, t9])


def test_rans_stream_serialization():
    table = FrequencyTable(frequencies=np.array([200, 56]), precision=8)
    stream = rans_encode([0, 1, 0, 0, 1], table)
    back = RansStream.from_bytes(stream.to_bytes())
    assert back == stream
    assert back.bits == 8 * len(stream.payload) + 32
    with pytest.raises(ValueError, match="8-byte header"):
        RansStream.from_bytes(b"\x00\x01")


def test_rans_payload_tracks_cross_entropy():
    # Bernoulli(0.25) source, true entropy 0.811278 bits/symbol
    precision = 16
    freq = normalize_frequencies([0.75, 0.25], precision)
    table = FrequencyTable(frequencies=freq, precision=precision)
    rng = rng_for(88)
    symbols = (rng.random(10_000) < 0.25).astype(np.int64)
    stream = rans_encode(symbols.tolist(), table)
    probs = freq / float(1 << precision)
    cross_entropy = float(-np.log2(probs[symbols]).sum())
    assert abs(stream.bits - cross_entropy) <= 0.01 * cross_entropy + 32
    per_symbol = stream.bits / symbols.size
    assert abs(per_symbol - 0.8113) < 0.02


def test_gaussian_cdf_matches_reference():
    t = np.linspace(-30.0, 30.0, 4001)
    ours = gaussian_cdf(t)
    ref = scipy.special.ndtr(t)
    assert float(np.max(np.abs(ours - ref))) < 1e-12
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_discretized_gaussian_table_mass_and_symmetry():
    table = discretized_gaussian_table(0.0, 1.0, 0.5, support_radius=255, precision=16)
    f = table.frequencies
    assert int(f.sum()) == 1 << 16
    assert f.size == 511
    assert np.array_equal(f, f[::-1])  # zero offset: symmetric bins
    # mass concentrates where the density is
    assert f[255] == f.max()


def test_discretized_gaussian_table_tiny_sigma_concentrates():
    table = discretized_gaussian_table(0.0, 1e-3, 1.0, support_radius=31, precision=12)
    f = table.frequencies
    assert int(f.sum()) == 1 << 12
    # every off-center bin holds only the floor mass of 1
    assert f[31] == (1 << 12) - 62
    assert f[0] == 1 and f[62] == 1


def test_gaussian_table_batch_matches_scalar_rows():
    mu = np.array([-0.3, 0.0, 1.7])
    sigma = np.array([0.5, 1.0, 2.5])
    freqs, cums = gaussian_table_batch(mu, sigma, 0.25, support_radius=63, precision=14)
    assert freqs.shape == (3, 127)
    assert cums.shape == (3, 128)
    for i in range(3):
        single = discretized_gaussian_table(
            float(mu[i]), float(sigma[i]), 0.25, support_radius=63, precision=14
        )
        assert np.array_equal(freqs[i], single.frequencies)
        assert np.array_equal(cums[i], single.cumulative())


def _full_width_tables(mu_offset, sigma, delta, support_radius, precision):
    """Reference: every table step on all 2S+1 columns, window zero-padded."""
    n = sigma.shape[0]
    size = 2 * support_radius + 1
    budget = 1 << precision
    reach = 8.0 * sigma.max() / delta + np.abs(mu_offset).max() + 2.0
    half = int(min(support_radius, np.ceil(reach)))
    width = 2 * half + 1
    edges_k = np.arange(-half, half, dtype=np.float64) + 0.5
    cdf = gaussian_cdf((edges_k[None, :] - mu_offset[:, None]) * (delta / sigma[:, None]))
    window = np.empty((n, width), dtype=np.float64)
    window[:, 0] = cdf[:, 0]
    window[:, 1:-1] = np.diff(cdf, axis=1)
    window[:, -1] = 1.0 - cdf[:, -1]
    np.clip(window, 0.0, None, out=window)

    masses = np.zeros((n, size), dtype=np.float64)
    lo = support_radius - half
    masses[:, lo : lo + width] = window
    target = masses * (budget / masses.sum(axis=1))[:, None]
    freq = np.floor(target).astype(np.int64)
    remainder = budget - freq.sum(axis=1)
    frac = target - freq
    order = np.lexsort((np.broadcast_to(np.arange(size), (n, size)), -frac), axis=1)
    take = np.arange(size)[None, :] < remainder[:, None]
    rows = np.broadcast_to(np.arange(n)[:, None], (n, size))
    np.add.at(freq, (rows[take], order[take]), 1)

    zeros = freq == 0
    deficit = zeros.sum(axis=1)
    freq[zeros] = 1
    for i in np.nonzero(deficit > 0)[0]:
        d = int(deficit[i])
        while d > 0:
            j = int(np.argmax(freq[i]))
            t = min(d, int(freq[i, j]) - 1)
            freq[i, j] -= t
            d -= t
    cums = np.zeros((n, size + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cums[:, 1:])
    return freq, cums


@given(
    n=st.integers(1, 12),
    mu_scale=st.sampled_from([0.0, 0.5, 3.0, 40.0]),
    log_sigma_lo=st.floats(-4.0, 1.0),
    log_sigma_span=st.floats(0.0, 2.5),
    log_delta=st.floats(-2.0, 1.0),
    support_radius=st.integers(1, 300),
    precision=st.integers(8, 16),
    seed=st.integers(0, 2**31),
)
def test_gaussian_table_batch_equals_full_width_reference(
    n, mu_scale, log_sigma_lo, log_sigma_span, log_delta, support_radius, precision, seed
):
    support_radius = min(support_radius, ((1 << precision) - 1) // 2)
    rng = rng_for(seed)
    mu = rng.uniform(-mu_scale, mu_scale, n)
    if seed % 3 == 0:
        mu = np.round(2.0 * mu) / 2.0  # bin edges exactly at the mean
    sigma = 10.0 ** rng.uniform(log_sigma_lo, log_sigma_lo + log_sigma_span, n)
    delta = 10.0**log_delta
    freqs, cums = gaussian_table_batch(mu, sigma, delta, support_radius, precision)
    ref_freqs, ref_cums = _full_width_tables(mu, sigma, delta, support_radius, precision)
    assert np.array_equal(freqs, ref_freqs)
    assert np.array_equal(cums, ref_cums)


def test_gaussian_table_validation():
    with pytest.raises(ValueError, match="sigma"):
        discretized_gaussian_table(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="delta"):
        discretized_gaussian_table(0.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="support"):
        gaussian_table_batch(np.zeros(1), np.ones(1), 1.0, support_radius=0)
    with pytest.raises(ValueError, match="matching shapes"):
        gaussian_table_batch(np.zeros(2), np.ones(3), 1.0)


def test_rans_round_trip_with_gaussian_tables():
    rng = rng_for(52)
    n = 300
    mu = rng.normal(0, 0.3, n)
    sigma = np.exp(rng.normal(0, 0.5, n))
    freqs, _ = gaussian_table_batch(mu, sigma, 0.5, support_radius=255, precision=16)
    tables = [FrequencyTable(frequencies=freqs[i], precision=16) for i in range(n)]
    # symbols concentrated near the center of each table's support
    symbols = (255 + rng.integers(-4, 5, size=n)).tolist()
    stream = rans_encode(symbols, tables)
    assert rans_decode(stream, tables) == symbols
