"""Entropy-gap estimators, the high-rate density law helper, BD-rate, CSV IO."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rvqcodec.analysis import (
    GroupEntropyStream,
    IndexHistogram,
    RDCurve,
    RDPoint,
    bd_rate,
    conditional_entropy_gap,
    entropy_gap,
    entropy_streams,
    high_rate_predicted_pmf,
    pchip_interpolate,
    rd_sweep,
    read_rd_curves_csv,
    total_variation,
    write_rd_curves_csv,
)
from rvqcodec.grids import SourceConfig, rng_for
from rvqcodec.quantizers import Codebook, IndexStack
from rvqcodec.schemes import CodedLatent, SchemeConfig


def test_index_histogram_from_indices():
    hist = IndexHistogram.from_indices(np.array([0, 2, 2, 3]), k=5)
    assert hist.counts.tolist() == [1, 0, 2, 1, 0]
    assert hist.n == 4 and hist.k == 5
    with pytest.raises(ValueError):
        IndexHistogram(counts=np.array([1, 2]), n=4, k=2)
    with pytest.raises(ValueError):
        IndexHistogram.from_indices(np.array([0, 5]), k=5)


def test_entropy_gap_hand_values():
    uniform = IndexHistogram.from_indices(np.arange(8), k=8)
    assert entropy_gap(uniform) == 0.0
    degenerate = IndexHistogram.from_indices(np.zeros(100, dtype=np.int64), k=4)
    assert entropy_gap(degenerate) == 1.0
    # half/quarter/quarter over K=4: H = 1.5 bits, budget 2 bits, gap 0.25
    mixed = IndexHistogram(counts=np.array([2, 1, 1, 0]), n=4, k=4)
    assert entropy_gap(mixed) == pytest.approx(0.25)


def test_entropy_gap_validation():
    with pytest.raises(ValueError, match="alphabet"):
        entropy_gap(IndexHistogram(counts=np.array([3]), n=3, k=1))
    with pytest.raises(ValueError, match="empty"):
        entropy_gap(IndexHistogram(counts=np.zeros(4, dtype=np.int64), n=0, k=4))


@given(
    counts=st.lists(st.integers(0, 1000), min_size=2, max_size=64).filter(
        lambda c: sum(c) > 0
    )
)
def test_entropy_gap_stays_in_unit_interval(counts):
    arr = np.asarray(counts, dtype=np.int64)
    hist = IndexHistogram(counts=arr, n=int(arr.sum()), k=arr.size)
    gap = entropy_gap(hist)
    assert 0.0 <= gap <= 1.0
    if np.all(arr == arr[0]):
        assert gap == 0.0


def _stack(values):
    return IndexStack(indices=(np.asarray(values, dtype=np.int64),))


def test_conditional_entropy_gap_hand_oracle():
    # group 1 indices are exactly uniform over 4; groups 2-4 copy them, so
    # conditioning on the group-1 label removes all their entropy.
    n = 4096
    base = np.tile(np.arange(4, dtype=np.int64), n // 4)
    coded = CodedLatent(
        scheme="rd",
        shape=(1, 8, 8),
        reconstruction=None,
        rate_bits=float(2 * 4 * n),
        m=1,
        group_stacks=tuple(_stack(base) for _ in range(4)),
    )
    streams = entropy_streams([coded], tuple((4,) for _ in range(4)))
    assert [s.name for s in streams] == ["group1", "group2", "group3", "group4"]
    assert streams[0].context is None
    assert streams[1].context is not None

    report = conditional_entropy_gap(streams)
    # budget 4n*2 bits; group 1 keeps its full n*2, the rest drop to zero
    assert report.gap == pytest.approx(0.75)
    assert not report.sparse_warning
    assert len(report.rows) == 4
    assert report.rows[0].delta_h == 0.0
    for row in report.rows[1:]:
        assert row.conditional_entropy_bits == pytest.approx(0.0)
        assert row.utilization == 1.0


def test_conditional_entropy_gap_unit_stages_carry_no_budget():
    n = 400
    rng = rng_for(70)
    idx = rng.integers(0, 4, size=n)
    streams = [
        GroupEntropyStream(
            name="group1",
            stage_indices=(idx, np.zeros(n, dtype=np.int64)),
            stage_sizes=(4, 1),
        )
    ]
    report = conditional_entropy_gap(streams)
    unit_rows = [r for r in report.rows if r.size == 1]
    assert len(unit_rows) == 1
    assert unit_rows[0].delta_h == 0.0
    with pytest.raises(ValueError, match="zero budget"):
        conditional_entropy_gap(
            [
                GroupEntropyStream(
                    name="group1",
                    stage_indices=(np.zeros(4, dtype=np.int64),),
                    stage_sizes=(1,),
                )
            ]
        )


def test_conditional_entropy_gap_flags_sparse_contexts():
    n = 100
    rng = rng_for(71)
    streams = [
        GroupEntropyStream(
            name="group2",
            stage_indices=(rng.integers(0, 64, size=n),),
            stage_sizes=(64,),
            context=rng.integers(0, 50, size=n),
        )
    ]
    report = conditional_entropy_gap(streams)
    assert report.sparse_warning
    assert report.rows[0].sparse


def test_entropy_streams_pools_across_latents():
    a = CodedLatent(
        scheme="rd", shape=(1, 4, 4), reconstruction=None, rate_bits=0.0, m=1,
        group_stacks=tuple(_stack([0, 1]) for _ in range(4)),
    )
    b = CodedLatent(
        scheme="rd", shape=(1, 4, 4), reconstruction=None, rate_bits=0.0, m=1,
        group_stacks=tuple(_stack([2, 3]) for _ in range(4)),
    )
    streams = entropy_streams([a, b], tuple((4,) for _ in range(4)))
    assert streams[0].count == 4
    assert streams[2].stage_indices[0].tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="no coded latents"):
        entropy_streams([], tuple((4,) for _ in range(4)))


def test_high_rate_predicted_pmf_uniform_density():
    cb = Codebook(np.linspace(-1, 1, 16).reshape(16, 1))
    pmf, gap = high_rate_predicted_pmf(cb, lambda v: np.zeros(len(v)))
    assert np.allclose(pmf, 1.0 / 16)
    assert gap == 0.0


def test_high_rate_predicted_pmf_flattens_with_dimension():
    # same Gaussian log-density, increasing nominal dimension: the exponent
    # 2/(C+2) shrinks, so the predicted index distribution flattens
    cw = np.linspace(-2, 2, 32).reshape(32, 1)
    cb = Codebook(cw)
    log_density = lambda v: -0.5 * (v**2).sum(axis=1)
    _, gap_c1 = high_rate_predicted_pmf(cb, log_density, c=1)
    _, gap_c8 = high_rate_predicted_pmf(cb, log_density, c=8)
    _, gap_c64 = high_rate_predicted_pmf(cb, log_density, c=64)
    assert gap_c1 > gap_c8 > gap_c64
    with pytest.raises(ValueError, match="vanishes"):
        high_rate_predicted_pmf(cb, lambda v: np.full(len(v), -np.inf))


def test_total_variation():
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation(
        np.array([0.6, 0.4]), np.array([0.4, 0.6])
    ) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="not a pmf"):
        total_variation(np.array([0.7, 0.7]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="shapes"):
        total_variation(np.array([1.0]), np.array([0.5, 0.5]))


def test_rd_curve_validation():
    p1 = RDPoint(1.0, 100.0, 0.1, 2.0)
    p2 = RDPoint(2.0, 200.0, 0.2, 1.0)
    with pytest.raises(ValueError, match="two"):
        RDCurve("rd", (p1,))
    with pytest.raises(ValueError, match="increasing"):
        RDCurve("rd", (p2, p1))
    curve = RDCurve("rd", (p1, p2))
    assert curve.rates.tolist() == [100.0, 200.0]
    assert curve.distortions.tolist() == [2.0, 1.0]


def test_pchip_is_exact_on_collinear_knots():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 2.0 * x + 1.0
    q = np.linspace(0.0, 3.0, 17)
    out = pchip_interpolate(x, y, q)
    assert np.allclose(out, 2.0 * q + 1.0, atol=1e-12)


def test_pchip_preserves_monotonicity_on_1000_point_grid():
    x = np.array([0.0, 0.5, 0.7, 2.0, 5.0, 9.0])
    y = np.array([10.0, 6.0, 5.9, 2.0, 1.9, 0.5])  # strictly decreasing knots
    q = np.linspace(0.0, 9.0, 1000)
    out = pchip_interpolate(x, y, q)
    assert np.all(np.diff(out) <= 1e-12)


def test_pchip_validation():
    x = np.array([0.0, 1.0])
    y = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        pchip_interpolate(np.array([1.0, 0.0]), y, np.array([0.5]))
    with pytest.raises(ValueError, match="two"):
        pchip_interpolate(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="span"):
        pchip_interpolate(x, y, np.array([1.5]))


def _curve(scheme, rates, dists):
    pts = tuple(
        RDPoint(float(i + 1), float(r), float(r) / 1e4, float(d))
        for i, (r, d) in enumerate(zip(rates, dists))
    )
    return RDCurve(scheme, pts)


def test_bd_rate_identical_curves_is_zero():
    a = _curve("rd", [100, 200, 400, 800], [4.0, 3.0, 2.0, 1.0])
    assert bd_rate(a, a) == 0.0


def test_bd_rate_constant_factor_curves():
    dists = [4.0, 3.0, 2.0, 1.0]
    anchor = _curve("rd", [100, 200, 400, 800], dists)
    half = _curve("rd", [50, 100, 200, 400], dists)
    double = _curve("rd", [200, 400, 800, 1600], dists)
    assert bd_rate(anchor, half) == pytest.approx(-50.0, abs=1e-9)
    assert bd_rate(anchor, double) == pytest.approx(100.0, abs=1e-9)


def test_bd_rate_is_antisymmetric_in_the_log_domain():
    dists = [4.0, 3.0, 2.0, 1.0]
    a = _curve("rd", [100, 200, 400, 800], dists)
    b = _curve("cm", [50, 120, 280, 640], dists)
    fwd = np.log2(1.0 + bd_rate(a, b) / 100.0)
    rev = np.log2(1.0 + bd_rate(b, a) / 100.0)
    assert abs(fwd + rev) < 1e-9


def test_bd_rate_matches_a_dense_trapezoid_reference():
    a = _curve("rd", [100, 230, 410, 860], [4.0, 2.9, 2.1, 0.9])
    b = _curve("cm", [80, 190, 500, 700], [4.2, 3.1, 1.8, 1.1])
    lo, hi = 1.1, 4.0  # the shared distortion interval
    grid = np.linspace(lo, hi, 200_001)

    def log_rate(c):
        order = np.argsort(c.distortions)
        return pchip_interpolate(c.distortions[order], np.log2(c.rates[order]), grid)

    diff = log_rate(b) - log_rate(a)
    mean = float((diff[1:] + diff[:-1]).sum() * (grid[1] - grid[0]) / 2.0) / (hi - lo)
    assert abs(bd_rate(a, b) - 100.0 * (2.0**mean - 1.0)) < 1e-5


def test_bd_rate_requires_overlap():
    a = _curve("rd", [100, 200], [4.0, 3.0])
    b = _curve("cm", [100, 200], [2.0, 1.0])
    with pytest.raises(ValueError, match="overlap"):
        bd_rate(a, b)
    dup = RDCurve(
        "rd", (RDPoint(1.0, 10.0, 0.1, 2.0), RDPoint(2.0, 20.0, 0.2, 2.0))
    )
    with pytest.raises(ValueError, match="distortion"):
        bd_rate(dup, dup)


def test_rd_curves_csv_round_trip(tmp_path):
    curves = [
        _curve("rd", [100.5, 200.25], [4.125, 3.0625]),
        _curve("cm", [90.0, 180.0], [4.5, 3.5]),
    ]
    path = tmp_path / "curves.csv"
    write_rd_curves_csv(path, curves)
    back = read_rd_curves_csv(path)
    assert [c.scheme for c in back] == ["rd", "cm"]
    for orig, got in zip(curves, back):
        for p, q in zip(orig.points, got.points):
            assert p == q  # repr round trip is exact for binary fractions
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_rd_curves_csv(bad)


def test_rd_sweep_smoke_and_ordering():
    source = SourceConfig(channels=1, height=32, width=32, rho=0.9, seed=44)
    points = [
        SchemeConfig(scheme="rd", m=1),
        SchemeConfig(scheme="rd", m=2),
        SchemeConfig(scheme="iq", m=1),
        SchemeConfig(scheme="iq", m=2),
        SchemeConfig(scheme="cm", delta=1.0),
        SchemeConfig(scheme="cm", delta=0.5),
    ]
    curves = rd_sweep(source, points, ((8, 8),) * 4, 8, 4, iterations=6, seed=3)
    assert [c.scheme for c in curves] == ["rd", "iq", "cm"]
    for curve in curves:
        assert len(curve.points) == 2
        assert curve.rates[0] < curve.rates[1]
        # more rate never hurts on these sources
        assert curve.distortions[1] <= curve.distortions[0]
    # fixed-length accounting: both rd and iq charge the same budget
    assert np.array_equal(curves[0].rates, curves[1].rates)
    with pytest.raises(ValueError, match="at least one"):
        rd_sweep(source, points, ((8, 8),) * 4, 4, 0, iterations=2)
