"""Range coder: table normalization, losslessness, coded-size efficiency,
and the pinned Gaussian CDF used by the conditional model.

Tables are ``(freq, cum)`` integer rows; symbols are coded through
``_encode_core`` and decoded through ``_decode_core``."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from rvqcodec.grids import rng_for
from rvqcodec.rans import (
    RANS_LOWER_BOUND,
    RansStream,
    _decode_core,
    _encode_core,
    _largest_remainder,
    decode_rows,
    gaussian_cdf,
    gaussian_table_batch,
)


def _cums(freq: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of each row of ``freq``."""
    cum = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cum[:, 1:])
    return cum


def _encode(symbols, freq, cum, row_of, precision) -> RansStream:
    """Encode ``symbols[i]`` under row ``row_of[i]`` of the full tables."""
    s = np.asarray(symbols, dtype=np.int64)
    r = np.asarray(row_of, dtype=np.int64)
    state, payload = _encode_core(freq[r, s].tolist(), cum[r, s].tolist(), precision)
    return RansStream(count=s.size, state=state, payload=payload)


def _decode(stream, freq, cum, row_of, precision) -> list[int]:
    return _decode_core(stream, decode_rows(freq, cum, precision), list(row_of), precision)


def test_normalize_frequencies_hand_case():
    # 3:1 onto 256
    assert _largest_remainder(np.array([[192.0, 64.0]]), 256).tolist() == [[192, 64]]
    # equal remainders go to the lowest column; a bin left at zero is
    # promoted to 1 and paid for by the largest bin
    third = 256.0 / 3.0
    f = _largest_remainder(np.array([[third] * 3, [0.5, 255.5, 0.0]]), 256)
    assert f.tolist() == [[86, 85, 85], [1, 254, 1]]


def test_normalize_frequencies_protects_rare_symbols():
    w = np.array([1e9, 1e-12, 1e-12])
    f = _largest_remainder((w * (256 / w.sum()))[None, :], 256)[0]
    assert f.tolist() == [254, 1, 1]
    # 200 promoted bins against a largest bin of exactly 200: it can give
    # only 199, so the last unit comes from the next largest bin
    f = _largest_remainder(np.array([[200.0, 56.0] + [0.0] * 200]), 256)[0]
    assert f.tolist() == [1, 55] + [1] * 200


def test_normalize_frequencies_validation():
    # 300 bins cannot all get mass >= 1 of 256
    with pytest.raises(ValueError, match="all bins at minimum"):
        _largest_remainder(np.full((1, 300), 256.0 / 300.0), 256)


@given(
    weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200),
    precision=st.integers(8, 16),
)
def test_normalize_frequencies_exact_mass(weights, precision):
    w = np.asarray(weights)
    budget = 1 << precision
    if w.max() <= 0 or w.size > budget:
        return
    w = w / w.max()  # keeps budget / total finite for subnormal weights
    f = _largest_remainder((w * (budget / w.sum()))[None, :], budget)[0]
    assert int(f.sum()) == budget
    assert f.min() >= 1


def _random_tables(rng, rows: int, k: int, precision: int) -> np.ndarray:
    """``rows`` tables of ``k`` bins, each bin >= 1, summing to 2**precision."""
    extra = (1 << precision) - k
    return 1 + np.stack([rng.multinomial(extra, rng.dirichlet(np.ones(k))) for _ in range(rows)])


@given(data=st.data())
def test_rans_round_trip_randomized_tables(data):
    k = data.draw(st.integers(2, 40))
    precision = data.draw(st.integers(8, 16))
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(0, 400))
    rng = rng_for(seed)
    freq = _random_tables(rng, 1, k, precision)
    cum = _cums(freq)
    symbols = rng.integers(0, k, size=n).tolist()
    stream = _encode(symbols, freq, cum, [0] * n, precision)
    assert _decode(stream, freq, cum, [0] * n, precision) == symbols


def test_rans_round_trip_per_symbol_tables():
    rng = rng_for(51)
    freq = _random_tables(rng, 200, 8, 12)
    cum = _cums(freq)
    symbols = rng.integers(0, 8, size=200).tolist()
    stream = _encode(symbols, freq, cum, range(200), 12)
    assert _decode(stream, freq, cum, range(200), 12) == symbols


def test_rans_shared_table_decodes_like_per_symbol_tables():
    """One row shared through ``row_of``, one copy of it per symbol, and two
    rows interleaved decode alike; a truncated stream fails."""
    rng = rng_for(53)
    n = 2000
    freqs, cums = gaussian_table_batch(np.array([4.0, 40.0]), 1.0, support_radius=255, precision=16)
    symbols = (255 + np.rint(rng.normal(0, 4, n))).astype(int).tolist()
    narrow, narrow_cum = freqs[:1], cums[:1]
    copies, copies_cum = np.repeat(narrow, n, axis=0), np.repeat(narrow_cum, n, axis=0)
    stream = _encode(symbols, narrow, narrow_cum, [0] * n, 16)
    assert _decode(stream, narrow, narrow_cum, [0] * n, 16) == symbols
    assert _decode(stream, copies, copies_cum, range(n), 16) == symbols

    mixed = [i % 3 == 0 for i in range(n)]
    stream = _encode(symbols, freqs, cums, mixed, 16)
    assert _decode(stream, freqs, cums, mixed, 16) == symbols

    cut = RansStream(count=stream.count, state=stream.state, payload=stream.payload[:-3])
    with pytest.raises(ValueError):
        _decode(cut, freqs, cums, mixed, 16)


def test_rans_empty_stream():
    freq = np.array([[128, 128]])
    stream = _encode([], freq, _cums(freq), [], 8)
    assert stream.count == 0
    assert stream.state == RANS_LOWER_BOUND and stream.payload == b""
    assert _decode(stream, freq, _cums(freq), [], 8) == []


def test_rans_decode_rejects_mismatched_input():
    freq = np.array([[200, 56]])
    cum = _cums(freq)
    rng = rng_for(54)
    symbols = (rng.random(64) < 0.3).astype(int).tolist()
    stream = _encode(symbols, freq, cum, [0] * 64, 8)
    assert len(stream.payload) > 1
    with pytest.raises(ValueError, match="63 table rows for 64 symbols"):
        _decode(stream, freq, cum, [0] * 63, 8)
    with pytest.raises(ValueError, match="65 table rows for 64 symbols"):
        _decode(stream, freq, cum, [0] * 65, 8)
    cut = RansStream(count=64, state=stream.state, payload=stream.payload[:-1])
    with pytest.raises(ValueError, match="exhausted"):
        _decode(cut, freq, cum, [0] * 64, 8)
    padded = RansStream(count=64, state=stream.state, payload=stream.payload + b"\x00")
    with pytest.raises(ValueError, match="1 unread payload bytes"):
        _decode(padded, freq, cum, [0] * 64, 8)
    with pytest.raises(ValueError, match="final state"):
        _decode(RansStream(count=0, state=RANS_LOWER_BOUND + 1, payload=b""), freq, cum, [], 8)


def _frozen_bisect_decode(stream, freq_rows, cum_rows, row_of, precision) -> list[int]:
    """The decode loop before start rows, frozen: one bisect of the full
    ``cum`` row per symbol."""
    from bisect import bisect_right

    if len(row_of) != stream.count:
        raise ValueError(f"{len(row_of)} table rows for {stream.count} symbols")
    lower = RANS_LOWER_BOUND
    mask = (1 << precision) - 1
    x = stream.state
    payload = stream.payload
    pos = 0
    end = len(payload)
    out = []
    for r in row_of:
        cf = x & mask
        cum = cum_rows[r]
        s = bisect_right(cum, cf) - 1
        x = freq_rows[r][s] * (x >> precision) + cf - cum[s]
        while x < lower:
            if pos >= end:
                raise ValueError("stream exhausted before all symbols decoded")
            x = (x << 8) | payload[pos]
            pos += 1
        out.append(s)
    if x != lower:
        raise ValueError(f"final state {x} != {lower}: corrupt or mismatched stream")
    if pos != end:
        raise ValueError(f"{end - pos} unread payload bytes: mismatched stream")
    return out


def _sparse_tables(rng, rows: int, k: int, precision: int) -> np.ndarray:
    """``rows`` tables of ``k`` bins with most bins at frequency 1 and the
    mass on up to four, so many symbols share one start-row bucket."""
    freq = np.ones((rows, k), dtype=np.int64)
    for row in freq:
        heavy = rng.choice(k, size=min(k, int(rng.integers(1, 5))), replace=False)
        row[heavy] += rng.multinomial((1 << precision) - k, rng.dirichlet(np.ones(heavy.size)))
    return freq


def _outcome(decode, *args):
    try:
        return decode(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@given(data=st.data())
def test_start_row_decode_equals_frozen_bisect_decode(data):
    """Coded, cut, padded, miscounted and random streams decode to the same
    symbols, or fail with the same message, with and without start rows."""
    precision = data.draw(st.integers(8, 16))
    k = data.draw(st.integers(2, min(511, 1 << precision)))
    rows = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 300))
    rng = rng_for(data.draw(st.integers(0, 2**31)))
    tables = _sparse_tables if data.draw(st.booleans()) else _random_tables
    freq = tables(rng, rows, k, precision)
    cum = _cums(freq)
    row_of = rng.integers(0, rows, size=n).tolist()

    kind = data.draw(st.sampled_from(["coded", "cut", "padded", "miscounted", "random"]))
    if kind == "random":
        stream = RansStream(
            count=n,
            state=data.draw(st.integers(0, 2**32 - 1)),
            payload=data.draw(st.binary(max_size=2 * n + 4)),
        )
    else:
        stream = _encode(rng.integers(0, k, size=n), freq, cum, row_of, precision)
        if kind == "cut":
            stream = RansStream(stream.count, stream.state, stream.payload[:-1])
        elif kind == "padded":
            stream = RansStream(stream.count, stream.state, stream.payload + b"\x00")
        elif kind == "miscounted":
            stream = RansStream(stream.count + 1, stream.state, stream.payload)

    new = _outcome(_decode_core, stream, decode_rows(freq, cum, precision), row_of, precision)
    old = _outcome(_frozen_bisect_decode, stream, freq.tolist(), cum.tolist(), row_of, precision)
    assert new == old


def test_decode_rows_start_entries_and_bisect_fallback():
    """Entry b of a start row is the symbol holding slot b << (precision - 8);
    symbols that share a bucket without starting it decode by the fallback."""
    rng = rng_for(55)
    precision = 16
    freq = _sparse_tables(rng, 3, 511, precision)
    cum = _cums(freq)
    freq_rows, cum_rows, start_rows = decode_rows(freq, cum, precision)
    assert freq_rows == tuple(map(tuple, freq.tolist()))
    assert cum_rows == tuple(map(tuple, cum.tolist()))
    for row, start in zip(cum_rows, start_rows):
        assert len(start) == 256
        assert all(row[s] <= b << 8 < row[s + 1] for b, s in enumerate(start))

    # Frequency-1 symbols off a bucket start: the start row never names them.
    inside = [
        (r, s) for r in range(3) for s in range(511)
        if freq[r, s] == 1 and cum[r, s] % 256 and s not in start_rows[r]
    ]
    assert len(inside) > 400
    picks = [inside[i] for i in rng.integers(0, len(inside), size=500)]
    row_of, symbols = [r for r, _ in picks], [s for _, s in picks]
    stream = _encode(symbols, freq, cum, row_of, precision)
    assert _decode(stream, freq, cum, row_of, precision) == symbols


def test_rans_stream_serialization():
    freq = np.array([[200, 56]])
    stream = _encode([0, 1, 0, 0, 1], freq, _cums(freq), [0] * 5, 8)
    back = RansStream.from_bytes(stream.to_bytes())
    assert back == stream
    assert back.bits == 8 * len(stream.payload) + 32
    with pytest.raises(ValueError, match="8-byte header"):
        RansStream.from_bytes(b"\x00\x01")


def test_rans_payload_tracks_cross_entropy():
    # Bernoulli(0.25) source, true entropy 0.811278 bits/symbol
    precision = 16
    freq = np.array([[49152, 16384]])
    cum = _cums(freq)
    rng = rng_for(88)
    symbols = (rng.random(10_000) < 0.25).astype(np.int64)
    rows = [0] * symbols.size
    stream = _encode(symbols, freq, cum, rows, precision)
    assert _decode(stream, freq, cum, rows, precision) == symbols.tolist()
    probs = freq[0] / float(1 << precision)
    cross_entropy = float(-np.log2(probs[symbols]).sum())
    assert abs(stream.bits - cross_entropy) <= 0.01 * cross_entropy + 32
    per_symbol = stream.bits / symbols.size
    assert abs(per_symbol - 0.8113) < 0.02


def _frozen_erfc(x) -> np.ndarray:
    """The pinned erfc as first shipped, frozen to pin its bits.

    Signed ``x``; 48 series terms below |x| = 1.5 and the depth-64 continued
    fraction above, every element through every term."""
    x = np.asarray(x, dtype=np.float64)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    ax = np.abs(x)
    out = np.empty_like(x)
    small = ax < 1.5
    xs = x[small]
    x2 = xs * xs
    acc = np.zeros_like(xs)
    term = np.full_like(xs, 2.0)
    for k in range(48):
        acc = acc + term
        term = term * (2.0 * x2 / (2.0 * k + 3.0))
    out[small] = 1.0 - xs * np.exp(-x2) * inv_sqrt_pi * acc
    xb = ax[~small]
    b = xb.copy()
    for k in range(64, 0, -1):
        b = xb + (0.5 * k) / b
    tail = np.where(xb >= 30.0, 0.0, np.exp(-xb * xb) * inv_sqrt_pi / b)
    out[~small] = np.where(x[~small] > 0, tail, 2.0 - tail)
    return out


def _frozen_cdf(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    return 0.5 * _frozen_erfc(-t / np.sqrt(2.0))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _ulps_around(v: float, count: int = 4) -> np.ndarray:
    """``v`` and the ``count`` floats either side of it."""
    out = [v]
    lo = hi = v
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


_SERIES_CHECK = 4


def _series_stop(x: float) -> int:
    """The check point (a multiple of ``_SERIES_CHECK``) just past the last
    series term (of 48) that changes the sum for ``|x| < 1.5``."""
    x2 = x * x
    acc, term, last = 0.0, 2.0, 0
    for k in range(48):
        if acc + term != acc:
            last = k
        acc = acc + term
        term = term * (2.0 * x2 / (2.0 * k + 3.0))
    return max(_SERIES_CHECK, (last // _SERIES_CHECK + 1) * _SERIES_CHECK)


def test_gaussian_cdf_matches_reference():
    t = np.linspace(-30.0, 30.0, 4001)
    ours = gaussian_cdf(t)
    ref = scipy.special.ndtr(t)
    assert float(np.max(np.abs(ours - ref))) < 1e-12
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_gaussian_cdf_is_pinned_to_frozen_bits():
    """The erfc returns the frozen one's bits: on a dense grid, at the
    branch cutoffs |t| = 1.5*sqrt(2) and the zero cutoff 30*sqrt(2), and at
    tiny |t|."""
    grid = np.linspace(-40.0, 40.0, 400_001)
    cut = 1.5 * np.sqrt(2.0)
    zero = 30.0 * np.sqrt(2.0)
    near = np.concatenate([_ulps_around(s * v) for v in (cut, zero) for s in (1.0, -1.0)])
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17, 1e-9, -1e-9])
    for t in (grid, near, tiny):
        assert np.array_equal(_bits(gaussian_cdf(t)), _bits(_frozen_cdf(t)))
    # the dense grid holds every element on both branches
    assert np.abs(grid).min() < cut < np.abs(grid).max()


def test_table_cdf_is_pinned_to_frozen_bits():
    """The CDF on the tables' signed cut points ``(k + 0.5) * delta / sigma``
    equals the frozen CDF."""
    half = 40
    edges = np.arange(-half, half, dtype=np.float64) + 0.5

    def check(sigma, delta):
        sigma = np.asarray(sigma, dtype=np.float64)
        t = edges[None, :] * (delta / sigma[:, None])
        assert np.array_equal(_bits(gaussian_cdf(t)), _bits(_frozen_cdf(t)))

    # dense: cut points from 5e-4 to 39.5 standard deviations
    check(np.geomspace(1.0, 1e3, 3001), 1.0)
    check(np.geomspace(0.01, 7.0, 3001), 0.25)
    # an edge within a few ulps of each branch cutoff, from either side
    for a in (1.5, 30.0):
        for k in (0, 3, 17):
            sigma = 1.0 / _ulps_around(a * np.sqrt(2.0) / (k + 0.5), 6)
            check(sigma, 1.0)
    # tiny edges: sigma far above delta
    check(np.array([1e3, 1e8, 1e15, 1e300]), 1.0)


def test_series_stops_at_every_check_point_with_frozen_bits():
    """Arguments whose last sum-changing series term falls before each
    check point 4, 8, .., 24 give the frozen bits, through ``gaussian_cdf``
    and through a one-edge-pair table."""
    candidates = np.geomspace(1e-12, 1.499, 3000)
    stops = np.array([_series_stop(float(x)) for x in candidates])
    points = list(range(_SERIES_CHECK, 25, _SERIES_CHECK))
    assert sorted(set(stops.tolist())) == points
    for point in points:
        x = float(np.median(candidates[stops == point]))
        t = np.array([x, -x]) * np.sqrt(2.0)
        assert np.array_equal(_bits(gaussian_cdf(t)), _bits(_frozen_cdf(t)))
        # a one-edge-pair table whose cut points sit at +-x standard deviations
        sigma = np.array([0.5 / (x * np.sqrt(2.0))])
        freqs, cums = gaussian_table_batch(sigma, 1.0, 1, 16)
        ref_freqs, ref_cums = _full_width_tables(sigma, 1.0, 1, 16)
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(cums, ref_cums)


def _one_row(sigma, delta, support_radius, precision):
    freq, cum = gaussian_table_batch(np.array([sigma]), delta, support_radius, precision)
    return freq[0], cum[0]


def test_discretized_gaussian_table_mass_and_symmetry():
    f, cum = _one_row(1.0, 0.5, support_radius=255, precision=16)
    assert int(f.sum()) == 1 << 16
    assert f.size == 511
    assert np.array_equal(cum, np.concatenate([[0], np.cumsum(f)]))
    assert np.array_equal(f, f[::-1])  # zero mean: symmetric bins
    # mass concentrates where the density is
    assert f[255] == f.max()


def test_discretized_gaussian_table_tiny_sigma_concentrates():
    f, _ = _one_row(1e-3, 1.0, support_radius=31, precision=12)
    assert int(f.sum()) == 1 << 12
    # every off-center bin holds only the floor mass of 1
    assert f[31] == (1 << 12) - 62
    assert f[0] == 1 and f[62] == 1


def test_gaussian_table_batch_matches_scalar_rows():
    """Each row of a batch equals the table built from its own sigma alone."""
    sigma = np.array([0.5, 1.0, 2.5])
    for delta in (0.25, 2.0):
        freqs, cums = gaussian_table_batch(sigma, delta, support_radius=63, precision=14)
        assert freqs.shape == (3, 127)
        assert cums.shape == (3, 128)
        for i in range(3):
            f, cum = _one_row(float(sigma[i]), delta, support_radius=63, precision=14)
            assert np.array_equal(freqs[i], f)
            assert np.array_equal(cums[i], cum)


def _full_width_tables(sigma, delta, support_radius, precision):
    """Reference: every table step on all 2S+1 columns from the frozen CDF,
    one evaluation per signed cut point, lexsorted rounding."""
    n = sigma.shape[0]
    size = 2 * support_radius + 1
    budget = 1 << precision
    edges_k = np.arange(-support_radius, support_radius, dtype=np.float64) + 0.5
    cdf = _frozen_cdf(edges_k[None, :] * (delta / sigma[:, None]))
    masses = np.empty((n, size), dtype=np.float64)
    masses[:, 0] = cdf[:, 0]
    masses[:, 1:-1] = np.diff(cdf, axis=1)
    masses[:, -1] = 1.0 - cdf[:, -1]
    np.clip(masses, 0.0, None, out=masses)
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
    return freq, _cums(freq)


@given(
    n=st.integers(1, 12),
    log_sigma_lo=st.floats(-4.0, 4.0),
    log_sigma_span=st.floats(0.0, 2.5),
    log_delta=st.floats(-2.0, 1.0),
    support_radius=st.one_of(st.integers(1, 6), st.integers(1, 300)),
    precision=st.integers(8, 16),
    seed=st.integers(0, 2**31),
)
def test_gaussian_table_batch_equals_full_width_reference(
    n, log_sigma_lo, log_sigma_span, log_delta, support_radius, precision, seed
):
    """Tables equal the full-width reference bit for bit.  Sigma up to 1e4
    standard deltas over supports down to one bin put edges on both erfc
    branches."""
    support_radius = min(support_radius, ((1 << precision) - 1) // 2)
    rng = rng_for(seed)
    sigma = 10.0 ** rng.uniform(log_sigma_lo, log_sigma_lo + log_sigma_span, n)
    delta = 10.0**log_delta
    freqs, cums = gaussian_table_batch(sigma, delta, support_radius, precision)
    ref_freqs, ref_cums = _full_width_tables(sigma, delta, support_radius, precision)
    assert np.array_equal(freqs, ref_freqs)
    assert np.array_equal(cums, ref_cums)


def test_gaussian_table_validation():
    with pytest.raises(ValueError, match="sigma"):
        _one_row(0.0, 1.0, support_radius=255, precision=16)
    with pytest.raises(ValueError, match="delta"):
        _one_row(1.0, -1.0, support_radius=255, precision=16)
    with pytest.raises(ValueError, match="precision"):
        _one_row(1.0, 1.0, support_radius=63, precision=17)
    with pytest.raises(ValueError, match="support"):
        gaussian_table_batch(np.ones(1), 1.0, support_radius=0)
    with pytest.raises(ValueError, match="exceeds"):
        _one_row(1.0, 1.0, support_radius=128, precision=8)


def test_rans_round_trip_with_gaussian_tables():
    """Symbols coded under per-symbol Gaussian rows decode from the same
    rows, outliers at and near both support edges included."""
    rng = rng_for(52)
    n = 300
    sigma = np.exp(rng.normal(0, 0.5, n))
    freqs, cums = gaussian_table_batch(sigma, 0.5, support_radius=255, precision=16)
    # symbols concentrated near the center of each table's support, plus a
    # few outliers whose bins hold the floor mass of 1
    symbols = 255 + rng.integers(-4, 5, size=n)
    symbols[::50] = [0, 510, 3, 500, 1, 509]
    assert np.all(freqs[np.arange(0, n, 50), symbols[::50]] == 1)
    stream = _encode(symbols, freqs, cums, range(n), 16)
    assert _decode(stream, freqs, cums, range(n), 16) == symbols.tolist()
