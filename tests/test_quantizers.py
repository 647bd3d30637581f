"""Codebooks, nearest-neighbor search, Lloyd training, and residual stacks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rvqcodec.analysis import IndexHistogram, entropy_gap
from rvqcodec.grids import rng_for
from rvqcodec.quantizers import (
    Codebook,
    IndexStack,
    QuantizerSet,
    ResidualVQ,
    nn_quantize,
    read_codebook_file,
    rvq_quantize,
    train_codebook,
    train_rvq,
    write_codebook_file,
)
from rvqcodec import quantizers
from rvqcodec.quantizers import (
    _bucket_index,
    _bucket_lookup,
    _build_search_table,
    _chunked_sum,
    _kmeanspp_seed,
    _nearest,
    _row_norms,
    _screened_minimum,
)


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook(np.zeros((4,)))
    with pytest.raises(ValueError):
        Codebook(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Codebook(np.full((2, 2), np.inf))
    cb = Codebook(np.eye(3))
    assert (cb.size, cb.dim) == (3, 3)


def test_index_stack_validation():
    with pytest.raises(ValueError):
        IndexStack(indices=())
    with pytest.raises(ValueError):
        IndexStack(indices=(np.zeros((2, 2), dtype=np.int64),))
    with pytest.raises(ValueError):
        IndexStack(indices=(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)))
    with pytest.raises(ValueError, match="non-negative"):
        IndexStack(indices=(np.array([0, -1]),))
    st_ = IndexStack(indices=(np.array([1, 0]), np.array([2, 3])))
    assert st_.stages == 2 and st_.count == 2


def test_quantizer_set_requires_shared_stage_count():
    one = ResidualVQ(stage_codebooks=(Codebook(np.zeros((2, 1))),))
    two = ResidualVQ(
        stage_codebooks=(Codebook(np.zeros((2, 1))), Codebook(np.zeros((2, 1))))
    )
    with pytest.raises(ValueError, match="stage count"):
        QuantizerSet(groups=(one, one, one, two))
    with pytest.raises(ValueError, match="exactly four"):
        QuantizerSet(groups=(one, one, one))
    qs = QuantizerSet(groups=(one, one, one, one))
    assert qs.stages == 1 and qs.hyper is None


def test_quantizer_set_requires_shared_dimension():
    one = ResidualVQ(stage_codebooks=(Codebook(np.zeros((2, 1))),))
    two = ResidualVQ(stage_codebooks=(Codebook(np.zeros((2, 2))),))
    with pytest.raises(ValueError, match=r"vector dimension, got \[1, 2, 1, 1\]"):
        QuantizerSet(groups=(one, two, one, one))
    with pytest.raises(ValueError, match=r"vector dimension, got \[1, 1, 1, 1, 2\]"):
        QuantizerSet(groups=(one, one, one, one), hyper=two)
    assert QuantizerSet(groups=(two,) * 4, hyper=two).hyper is two


def test_nn_quantize_matches_brute_force_on_1000_cases():
    rng = rng_for(1001)
    codewords = rng.standard_normal((17, 5))
    vectors = rng.standard_normal((1000, 5))
    d2 = ((vectors[:, None, :] - codewords[None, :, :]) ** 2).sum(axis=2)
    expected = d2.argmin(axis=1)  # numpy argmin takes the lowest tied index
    got = nn_quantize(Codebook(codewords), vectors)
    assert np.array_equal(got, expected)


def test_nn_quantize_breaks_ties_toward_lowest_index():
    cb = Codebook(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    idx = nn_quantize(cb, np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
    assert idx.tolist() == [0, 2, 0]


def _column(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


@st.composite
def _search_cases(draw):
    """(codewords, vectors): Gaussian cases of any dimension, or 1-D cases
    aimed at the sorted search's edges (duplicated codewords, exact
    midpoints, distances that round to ties at large |x|, signed zeros,
    K = 1 and K > n)."""
    kind = draw(st.sampled_from(["gaussian", "midpoints", "huge", "zeros", "floats"]))
    if kind == "gaussian":
        rng = rng_for(draw(st.integers(0, 2**31)))
        c = draw(st.integers(1, 4))
        return (
            rng.standard_normal((draw(st.integers(1, 12)), c)),
            rng.standard_normal((draw(st.integers(1, 40)), c)),
        )
    sizes = {"min_size": 1, "max_size": 12}
    if kind == "midpoints":
        cw = draw(st.lists(st.integers(-3, 3), **sizes))
        x = [h / 2 for h in draw(st.lists(st.integers(-9, 9), **sizes))]
    elif kind == "huge":
        cw = draw(st.lists(st.integers(0, 3), **sizes))
        # doubles near 1e17 are 16 apart, so x - c rounds to x for every
        # codeword c in 0..3 and all distances tie
        offsets = st.tuples(st.sampled_from([-1, 1]), st.integers(-4, 4))
        x = [sign * (1e17 + 16.0 * j) for sign, j in draw(st.lists(offsets, **sizes))]
    elif kind == "zeros":
        values = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0])
        cw = draw(st.lists(values, **sizes))
        x = draw(st.lists(values, **sizes))
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cw = draw(st.lists(finite | st.floats(-4, 4), **sizes))
        x = draw(st.lists(finite | st.floats(-8, 8) | st.sampled_from(cw), **sizes))
    return _column(cw), _column(x)


def _subnormal_span_case():
    """Codeword values a subnormal span apart: the grid's scale, buckets
    over span, is infinite, and a row at the lowest value would give
    0 * inf = NaN as its bucket."""
    cw = [0.0, 5e-324, 1e-323, 1.5e-323]
    return _column(cw), _column([0.0, 5e-324, -1.0, 1e-323, 2e-323, 1.0])


def _overflow_span_case():
    """Codewords at +-1e308, whose span overflows to inf: the grid's scale
    is 0, and a row whose offset overflows would give inf * 0 = NaN."""
    return _column([-1e308, 0.0, 1e308]), _column([-1e308, 1e308, 0.0, 5e307, -3e307, 1.0])


def _beyond_ends_case():
    """Rows below the lowest and above the highest codeword value, near and
    far, which clip to the first and last bucket."""
    return _column(np.arange(-3.0, 4.0)), _column(
        [-1e300, -4.0, -3.0, -3.5, np.nextafter(-3.0, -4.0), 3.5, 3.0, 4.0, 1e300]
    )


def _cluster_case():
    """A tight cluster and one far codeword: the grid is capped and the
    whole cluster shares one bucket, so rows inside it are placed by
    ``searchsorted`` after the bucket lookup's check fails."""
    cw = np.concatenate([1e-9 * np.arange(40), [1e6]])
    x = np.concatenate([cw, 1e-9 * (np.arange(41) - 0.5), [-1.0, 0.5, 5e5, 2e6]])
    return _column(cw), _column(x)


def _signed_zero_case():
    """Duplicated codeword values and zeros of both signs, in codewords and
    rows."""
    cw = [0.0, -0.0, 1.0, 1.0, -1.0, -0.0, 2.0, 2.0, 5e-324]
    x = [-0.0, 0.0, 1.0, 0.5, -0.5, 2.0, -5e-324, 5e-324, 1.5, -1.0]
    return _column(cw), _column(x)


def _edge_example(case):
    return example(case=case, tie_seed=0, chunk=quantizers._CHUNK)


@settings(max_examples=300)
@given(
    case=_search_cases(),
    tie_seed=st.integers(0, 2**31),
    chunk=st.sampled_from([quantizers._CHUNK, 1, 3]),
)
@_edge_example(_subnormal_span_case())
@_edge_example(_overflow_span_case())
@_edge_example(_beyond_ends_case())
@_edge_example(_cluster_case())
@_edge_example(_signed_zero_case())
def test_nn_quantize_is_argmin_property(case, tie_seed, chunk):
    """The three C = 1 searches are cdist + argmin: each row placed among
    the codeword values by ``searchsorted``, or by the bucket lookup with
    its gates at their minimum (two distinct values, any row count), and
    the training path, codeword values placed among the sorted rows in
    whatever order the argsort leaves equal rows.  The three send the same
    rows to the cdist fallback: the neighbour check certifies a row's
    result whatever interval it was given, so only the fallback shows an
    interval that differs.  Small chunks split the neighbour comparison
    and the bucket lookup into blocks whose fallback rows are gathered."""
    codewords, vectors = case
    d2 = cdist(vectors, codewords, metric="sqeuclidean")
    expected = d2.argmin(axis=1)  # numpy argmin takes the lowest tied index
    mins = d2[np.arange(len(vectors)), expected]
    assert np.array_equal(nn_quantize(Codebook(codewords), vectors), expected)
    x = vectors[:, 0]
    order = np.lexsort((rng_for(tie_seed).random(x.shape[0]), x))
    searched = []

    def spy(rows, cw):
        searched[-1] = rows.tobytes()
        return fallback(rows, cw)

    fallback = quantizers._nearest_cdist
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantizers, "_nearest_cdist", spy)
        mp.setattr(quantizers, "_CHUNK", chunk)
        mp.setattr(quantizers, "_BUCKET_MIN_VALUES", 2)
        mp.setattr(quantizers, "_BUCKET_MIN_ROWS", 0)
        if codewords.shape[1] == 1:
            plain = _build_search_table(codewords)
            searches = [
                (plain, None),
                (_build_search_table(codewords, buckets=True), None),
                (plain, (order, x[order])),
            ]
        else:
            searches = [(None, None)]
        for table, ranked in searches:
            searched.append(None)
            labels, dist = _nearest(vectors, codewords, table, ranked)
            assert np.array_equal(labels, expected)
            assert dist.tobytes() == mins.tobytes()
    assert searched == [searched[0]] * len(searched)


@pytest.mark.parametrize(
    "case, built",
    [
        (_subnormal_span_case(), False),
        (_overflow_span_case(), False),
        (_beyond_ends_case(), True),
        (_cluster_case(), True),
        (_signed_zero_case(), True),
    ],
)
def test_bucket_grid_refuses_spans_without_a_finite_scale(monkeypatch, case, built):
    """A grid is built only where its scale is finite and positive, so no
    row's bucket arithmetic can be NaN; where it is built, its lookup gives
    ``searchsorted``'s q and neighbours on every row."""
    monkeypatch.setattr(quantizers, "_BUCKET_MIN_VALUES", 2)
    codewords, vectors = case
    values, _, grid = _build_search_table(codewords, buckets=True)
    assert (grid is not None) == built
    if built:
        x = vectors[:, 0]
        want = np.searchsorted(values[2:-2], x)
        q, below, above = _bucket_lookup(x, values, grid)
        assert np.array_equal(q, want)
        assert below.tobytes() == values[1:][want].tobytes()
        assert above.tobytes() == values[2:][want].tobytes()


def test_bucket_lookup_falls_back_where_a_bucket_holds_several_values():
    """The cluster case caps the grid at ``_BUCKET_MAX`` buckets and puts
    all 40 cluster values in bucket 0, so rows high in the cluster need
    more than the one step up: they fail the check and are placed by
    ``searchsorted``."""
    codewords, vectors = _cluster_case()
    values, _, (lo, scale, start) = _build_search_table(codewords, buckets=True)
    assert start.shape[0] == quantizers._BUCKET_MAX
    x = vectors[:, 0]
    stepped = start[_bucket_index(x, lo, scale, start.shape[0])] + 1
    assert (stepped < np.searchsorted(values[2:-2], x)).sum() > 30


def test_nn_quantize_uses_the_bucket_grid_at_its_gates(monkeypatch):
    """A codebook of ``_BUCKET_MIN_VALUES`` distinct values has a grid and
    one with fewer has none.  ``nn_quantize`` places one row fewer than
    ``_BUCKET_MIN_ROWS`` by one ``searchsorted``, and ``_BUCKET_MIN_ROWS``
    rows by the lookup, which on a trained codebook of 64 Gaussian values
    leaves no row of a Gaussian batch to ``searchsorted``."""
    k = quantizers._BUCKET_MIN_VALUES
    assert Codebook(_column(np.arange(k)))._search_table[2] is not None
    assert Codebook(_column(np.arange(k - 1)))._search_table[2] is None
    rng = rng_for(71)
    cb, _ = train_codebook(rng.standard_normal((4096, 1)), 64, iterations=8, seed=2)
    assert cb._search_table[2] is not None
    x = rng.standard_normal((quantizers._BUCKET_MIN_ROWS, 1))
    want = cdist(x, cb.codewords, metric="sqeuclidean").argmin(axis=1)
    placed = []
    searchsorted = np.searchsorted

    def spy(a, v, *args, **kwargs):
        placed.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    assert np.array_equal(nn_quantize(cb, x[:-1]), want[:-1])
    assert placed == [x.shape[0] - 1]
    assert np.array_equal(nn_quantize(cb, x), want)
    assert placed == [x.shape[0] - 1]


def _screened_k(c):
    """The smallest codebook size ``_nearest`` screens at dimension c."""
    return max(quantizers._SCREEN_MIN_K, -(-quantizers._SCREEN_MIN_KC // c))


def _block_rows(k):
    return quantizers._SCREEN_ENTRIES // k


@st.composite
def _screen_cases(draw):
    """(vectors, codewords) at C in {2, 3, 16} and K at the screen's
    threshold for C or at 256, with rows from ``_seeding_rows``: Gaussian
    codewords, or codewords drawn from the rows, some duplicated and some
    one ulp apart, so rows tie and near-tie between codewords.  K = 1 and
    K = 2 never reach the screen."""
    c = draw(st.sampled_from([2, 3, 16]))
    k = draw(st.sampled_from([_screened_k(c), 256]))
    x = draw(_seeding_rows(dims=(c,)))
    rng = rng_for(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        cw = rng.standard_normal((k, c)) * 10.0 ** rng.integers(-3, 4)
    else:
        cw = x[rng.integers(x.shape[0], size=k)]
        bump = rng.random(k) < 0.3
        cw[bump] = np.nextafter(cw[bump], 0.0)
    return x, cw


def _tie_case():
    """Duplicated codewords, rows on them and rows equidistant from two."""
    cw = rng_for(61).standard_normal((64, 16))
    cw[9] = cw[4]
    cw[11] = -cw[10]
    x = np.concatenate([cw[[4, 9, 10]], np.zeros((1, 16)), 0.5 * (cw[[2]] + cw[[3]])])
    return x, cw


def _ulp_case():
    """Codewords one ulp apart, and rows on and between them."""
    cw = rng_for(62).standard_normal((128, 4))
    cw[1::2] = np.nextafter(cw[0::2], np.inf)
    return np.concatenate([cw[:8], 0.5 * (cw[:8] + cw[1:9])]), cw


def _scale_case(scale):
    """Rows of one scale with codewords of another; blocks of ``_block_rows``
    rows with one row left over."""
    rng = rng_for(63)
    cw = rng.standard_normal((256, 2))
    x = rng.standard_normal((_block_rows(256) + 1, 2)) * scale
    x[::7] = rng.standard_normal((x[::7].shape[0], 2))
    return x, cw


@settings(max_examples=200)
@given(case=_screen_cases())
@example(case=_tie_case())
@example(case=_ulp_case())
@example(case=_scale_case(1e154))  # |x|^2 near and past overflow
@example(case=_scale_case(1e155))
@example(case=_scale_case(1e-320))  # subnormal rows
@example(case=(rng_for(64).standard_normal((2 * _block_rows(64) + 3, 16)),
               rng_for(65).standard_normal((64, 16))))
@example(case=(np.zeros((0, 16)), rng_for(65).standard_normal((64, 16))))
def test_screened_search_is_the_cdist_search(case):
    """The GEMM-screened search returns the labels and distances of cdist +
    argmin bit for bit, whatever it settles itself and whatever it hands to
    cdist: ties to the lowest index, overflowing rows, subnormal rows.
    Asked for labels only, as ``nn_quantize`` asks, it returns the same
    labels and no distances."""
    x, cw = case
    assert cw.shape[0] >= _screened_k(cw.shape[1])
    want_labels, want_dist = quantizers._nearest_cdist(x, cw)
    labels, dist = _nearest(x, cw, None)
    assert labels.tobytes() == want_labels.tobytes()
    assert dist.tobytes() == want_dist.tobytes()
    labels, dist = _nearest(x, cw, None, distances=False)
    assert labels.tobytes() == want_labels.tobytes() and dist is None


def test_screened_search_runs_cdist_only_on_unsettled_rows(monkeypatch):
    """On well-separated data the screen settles every row without cdist;
    rows tied between duplicated codewords go to cdist, which gives them
    the lower index.  Pins that the C > 1 search does not fall back to a
    full cdist pass."""
    rng = rng_for(66)
    cw = 10.0 * rng.standard_normal((256, 16))
    x = cw[rng.integers(256, size=3000)] + 0.1 * rng.standard_normal((3000, 16))
    searched = []
    fallback = quantizers._nearest_cdist

    def spy(rows, codewords):
        searched.append(rows.shape[0])
        return fallback(rows, codewords)

    tied = cw.copy()
    tied[200] = tied[7]
    want = fallback(x, cw)[0]
    want_tied = fallback(x, tied)[0]
    monkeypatch.setattr(quantizers, "_nearest_cdist", spy)
    assert np.array_equal(nn_quantize(Codebook(cw), x), want)
    assert searched == []
    assert np.array_equal(nn_quantize(Codebook(tied), x), want_tied)
    assert searched == [int((want_tied == 7).sum())] and searched[0] > 0


def test_train_codebook_is_deterministic():
    rng = rng_for(7)
    x = rng.standard_normal((4000, 4))
    a, _ = train_codebook(x, 16, iterations=8, seed=7)
    b, _ = train_codebook(x, 16, iterations=8, seed=7)
    c, _ = train_codebook(x, 16, iterations=8, seed=8)
    assert np.array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)


@pytest.mark.parametrize("dup_share", [0.0, 0.99])
def test_lloyd_trace_never_increases(dup_share):
    """The exact-mean update never raises the training MSE, also when
    ``dup_share`` of the samples are copies of 8 others, so that most
    assignments are exact ties."""
    rng = rng_for(31)
    x = rng.standard_normal((5000, 4))
    m = int(dup_share * x.shape[0])
    x[:m] = x[-8:][np.arange(m) % 8]
    _, report = train_codebook(x, 16, iterations=15, seed=1)
    trace = np.asarray(report["mse_trace"])
    assert trace.shape[0] == 16  # initialization point plus one per iteration
    assert np.all(np.diff(trace) <= 1e-9)
    assert report["final_mse"] == pytest.approx(trace[-1])


def test_unconstrained_residual_stages_split_their_mass():
    # No index is reserved: on symmetric data each two-word stage splits the
    # residual in half, so its indices carry close to one bit.
    x = rng_for(3).standard_normal((20000, 1))
    _, stack = train_rvq(x, (2, 2, 2), iterations=20, seed=1, return_indices=True)
    for idx in stack.indices:
        assert entropy_gap(IndexHistogram.from_indices(idx, 2)) <= 0.01


def test_train_codebook_input_validation():
    with pytest.raises(ValueError):
        train_codebook(np.zeros((10,)), 4)
    with pytest.raises(ValueError):
        train_codebook(np.zeros((2, 3)), 4)  # fewer samples than codewords
    with pytest.raises(ValueError):
        train_codebook(np.zeros((10, 3)), 0)


def test_train_rvq_unit_stage_is_the_zero_codeword():
    rng = rng_for(17)
    x = rng.standard_normal((50, 2))
    rvq = train_rvq(x, (1,), iterations=5, seed=0)
    assert rvq.stages == 1
    assert rvq.stage_codebooks[0].size == 1
    assert np.array_equal(rvq.stage_codebooks[0].codewords, np.zeros((1, 2)))
    stack, recon = rvq_quantize(rvq, x, m=1)
    assert np.array_equal(stack.indices[0], np.zeros(50, dtype=np.int64))
    assert np.array_equal(recon, np.zeros_like(x))


def test_rvq_reconstruction_is_the_stage_sum():
    rng = rng_for(19)
    x = rng.standard_normal((2000, 3))
    rvq = train_rvq(x, (8, 8), iterations=10, seed=4)
    stack, recon = rvq_quantize(rvq, x, m=2)
    manual = (
        rvq.stage_codebooks[0].codewords[stack.indices[0]]
        + rvq.stage_codebooks[1].codewords[stack.indices[1]]
    )
    assert np.array_equal(recon, manual)


def test_rvq_quantize_validates_m():
    rvq = train_rvq(rng_for(20).standard_normal((100, 2)), (4, 4), iterations=3)
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        rvq_quantize(rvq, x, m=0)
    with pytest.raises(ValueError):
        rvq_quantize(rvq, x, m=3)


def test_rvq_heldout_mse_non_increasing_in_stage_count():
    rng = rng_for(23)
    train = rng.standard_normal((20000, 4))
    held = rng.standard_normal((4000, 4))
    rvq = train_rvq(train, (16, 16, 16), iterations=15, seed=3)
    mses = []
    for m in (1, 2, 3):
        _, recon = rvq_quantize(rvq, held, m=m)
        mses.append(float(np.mean((held - recon) ** 2)))
    assert mses[1] <= mses[0] + 1e-12
    assert mses[2] <= mses[1] + 1e-12
    # with three K=16 stages on Gaussian data the drop is real, not marginal
    assert mses[2] < 0.5 * mses[0]


def test_codebook_file_round_trip(tmp_path):
    rng = rng_for(29)
    rvq = train_rvq(rng.standard_normal((500, 3)), (8, 4), iterations=5, seed=1)
    path = tmp_path / "q.efcb"
    write_codebook_file(path, rvq)
    back = read_codebook_file(path)
    assert back.stages == 2
    for orig, got in zip(rvq.stage_codebooks, back.stage_codebooks):
        # stored as 32-bit floats
        assert np.array_equal(
            got.codewords, orig.codewords.astype(np.float32).astype(np.float64)
        )


def test_codebook_file_rejects_corruption(tmp_path):
    rvq = ResidualVQ(stage_codebooks=(Codebook(np.eye(2)),))
    path = tmp_path / "q.efcb"
    write_codebook_file(path, rvq)
    raw = path.read_bytes()

    bad = tmp_path / "bad.efcb"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_codebook_file(bad)

    bad.write_bytes(raw[:4] + b"\x07" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_codebook_file(bad)

    bad.write_bytes(raw[:-2])
    with pytest.raises(ValueError):
        read_codebook_file(bad)


# ---------------------------------------------------------------------------
# k-means++ seeding and reuse of training assignments.


def _reference_kmeanspp_seed(vectors, k, rng):
    """k-means++ seeding with one full cdist pass per center: the body the
    screened seeding must reproduce bit for bit."""
    n = vectors.shape[0]
    centers = np.empty((k, vectors.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = vectors[first]
    if vectors.shape[1] == 1:
        def dist_to(center):
            return (vectors[:, 0] - center[0]) ** 2
    else:
        def dist_to(center):
            return cdist(vectors, center[None, :], metric="sqeuclidean")[:, 0]
    d2 = dist_to(centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            pick = min(pick, n - 1)
        centers[i] = vectors[pick]
        d2 = np.minimum(d2, dist_to(centers[i]))
    return centers


@st.composite
def _seeding_rows(draw, dims=(1, 2, 3, 16)):
    """(n, C) finite rows aimed at the screen's edges: duplicated and
    one-ulp-apart rows (estimates within rounding of the true distance),
    all-identical rows (zero total mass), mixed scales, rows near +-1e154
    (|x|^2 overflows), rows near 1e-160 (products underflow), and arbitrary
    finite doubles."""
    c = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 40))
    rng = rng_for(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(
        ["gaussian", "duplicated", "identical", "mixed", "huge", "tiny", "floats"]
    ))
    if kind == "gaussian":
        return rng.standard_normal((n, c))
    if kind == "duplicated":
        base = rng.standard_normal((draw(st.integers(1, 4)), c)) * 10.0 ** rng.integers(-3, 4)
        x = base[rng.integers(base.shape[0], size=n)]
        bump = rng.random((n, c)) < 0.3
        x[bump] = np.nextafter(x[bump], np.inf)
        return x
    if kind == "identical":
        return np.tile(rng.standard_normal(c), (n, 1))
    if kind == "mixed":
        return rng.standard_normal((n, c)) * 10.0 ** rng.integers(-150, 151, size=(n, 1))
    if kind == "huge":
        sign = rng.choice([-1.0, 1.0], size=(n, c))
        x = sign * 1e154 * (1.0 + 1e-3 * rng.standard_normal((n, c)))
        normal = rng.random(n) < 0.25
        x[normal] = rng.standard_normal((int(normal.sum()), c))
        return x
    if kind == "tiny":
        return rng.standard_normal((n, c)) * 1e-160
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite | st.floats(-4, 4), min_size=n * c, max_size=n * c))
    return np.array(values, dtype=np.float64).reshape(n, c)


@settings(max_examples=200)
@given(
    x=_seeding_rows(),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**31),
    chunk=st.sampled_from([quantizers._CHUNK, 1, 2, 3, 7]),
)
# Distances overflow to inf, so r = inf lies beyond every prefix sum.
@example(x=np.array([[1e200], [-1e200], [0.0], [3.0]]), k=4, seed=0, chunk=3)
def test_kmeanspp_seed_matches_full_cdist_seeding(x, k, seed, chunk):
    """Small chunks make the prefix search carry its sum across chunks."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(quantizers, "_CHUNK", chunk)
        got = _kmeanspp_seed(x, k, rng_for(seed, stream=1))
        want = _reference_kmeanspp_seed(x, k, rng_for(seed, stream=1))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200)
@given(x=_seeding_rows(dims=(2, 3, 16)), seed=st.integers(0, 2**31))
def test_screened_minimum_equals_minimum_over_cdist(x, seed):
    """Whatever d2 holds, the screened update is np.minimum(d2, cdist): the
    d2 values tried sit on, one ulp above and far above the true distance,
    where an estimate without its error bound would skip rows wrongly."""
    rng = rng_for(seed)
    norms = _row_norms(x)
    centers = [x[rng.integers(x.shape[0])], x[rng.integers(x.shape[0])] * 0.5]
    for center in centers:
        exact = cdist(x, center[None, :], metric="sqeuclidean")[:, 0]
        other = cdist(x, x[rng.integers(x.shape[0])][None, :], metric="sqeuclidean")[:, 0]
        for d2 in (
            np.full(x.shape[0], np.inf),
            exact,
            np.nextafter(exact, np.inf),
            np.nextafter(np.nextafter(exact, np.inf), np.inf),
            other,
            np.zeros(x.shape[0]),
        ):
            want = np.minimum(d2, exact)
            got = _screened_minimum(x, norms, d2.copy(), center)
            assert got.tobytes() == want.tobytes()


def _reference_train_codebook(x, k, iterations, seed):
    """Lloyd training with each pass's search placing every sample among
    the codeword values: the loop the sorted-sample training must
    reproduce bit for bit.  Returns (centers, final labels, mse trace,
    number of zero-count reseeds)."""
    n, c = x.shape
    rng = rng_for(seed, stream=1)
    centers = _reference_kmeanspp_seed(x, k, rng)
    trace = []
    reseeds = 0
    for _ in range(iterations):
        labels, dist = _nearest(x, centers, _build_search_table(centers))
        trace.append(_chunked_sum(dist) / (n * c))
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.column_stack(
            [np.bincount(labels, weights=col, minlength=k) for col in np.ascontiguousarray(x.T)]
        )
        dead = counts == 0
        centers[~dead] = sums[~dead] / counts[~dead, None]
        if dead.any():
            reseeds += int(dead.sum())
            centers[dead] = x[rng.integers(n, size=int(dead.sum()))]
    labels, dist = _nearest(x, centers, _build_search_table(centers))
    trace.append(_chunked_sum(dist) / (n * c))
    return centers, labels, trace, reseeds


@pytest.mark.parametrize("data", ["gaussian", "quarters", "offset"])
def test_c1_training_matches_the_per_sample_search_loop(data):
    """C = 1 training (samples argsorted once) gives the codewords, labels
    and MSE trace of the loop that searches every sample on every pass.  The
    quarter-rounded data have many equal samples, duplicated codewords and
    zero-count reseeds."""
    rng = rng_for(47)
    x = rng.standard_normal((3000, 1))
    if data == "quarters":
        x = np.round(x * 4.0) / 4.0
    elif data == "offset":
        x = np.concatenate([x + 5.0, np.full((10, 1), -40.0)])
    reseeds = 0
    for k in (16, 40):
        cb, report = train_codebook(x, k, iterations=8, seed=3)
        centers, labels, trace, n_reseeds = _reference_train_codebook(x, k, 8, 3)
        assert cb.codewords.tobytes() == centers.tobytes()
        assert np.array_equal(report["labels"], labels)
        assert np.asarray(report["mse_trace"]).tobytes() == np.asarray(trace).tobytes()
        reseeds += n_reseeds
    if data == "quarters":
        assert reseeds > 0


def test_c1_lloyd_reaches_the_lloyd_max_optimum():
    """Exact Lloyd on N(0, 1) samples ends within 2% of the Lloyd-Max
    optimum for K = 7 (MSE 0.04400; Max 1960, "Quantizing for minimum
    distortion")."""
    x = rng_for(77).standard_normal((65536, 1))
    _, report = train_codebook(x, 7, iterations=30, seed=11)
    assert report["final_mse"] <= 1.02 * 0.04400


@pytest.mark.parametrize("c", [1, 4])
def test_train_codebook_report_labels_are_the_nearest_codewords(c):
    x = rng_for(37).standard_normal((3000, c))
    cb, report = train_codebook(x, 16, iterations=6, seed=5)
    assert np.array_equal(report["labels"], nn_quantize(cb, x))


@pytest.mark.parametrize("c", [1, 3])
def test_train_rvq_indices_are_the_rvq_quantize_stack(c):
    x = rng_for(41).standard_normal((2500, c))
    rvq, stack = train_rvq(x, (8, 1, 16), iterations=6, seed=2, return_indices=True)
    want, _ = rvq_quantize(rvq, x, rvq.stages)
    assert stack.stages == want.stages == 3
    for got_idx, want_idx in zip(stack.indices, want.indices):
        assert np.array_equal(got_idx, want_idx)
    plain = train_rvq(x, (8, 1, 16), iterations=6, seed=2)
    for a, b in zip(plain.stage_codebooks, rvq.stage_codebooks):
        assert a.codewords.tobytes() == b.codewords.tobytes()


def test_training_rejects_non_finite_samples():
    x = rng_for(43).standard_normal((200, 2))
    x[7, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        train_codebook(x, 4)
    with pytest.raises(ValueError, match="finite"):
        train_rvq(x, (4,))
    with pytest.raises(ValueError, match="finite"):
        train_rvq(x, (1,))  # a zero-codeword stage trains and searches nothing
    x[7, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        train_rvq(x, (4, 4), return_indices=True)
