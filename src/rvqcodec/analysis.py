"""Measurement side of the codec: entropy gaps, the high-rate index law,
rate-distortion sweeps, and BD-rate.

Everything here is read-only with respect to the coding pipeline: functions
take trained models or coded outputs and produce numbers.  The experiment
functions at the bottom bundle the standard verification runs (index
shaping under Lloyd training, the density-law check, decorrelation vs
independent coding, and fixed-length vs entropy-coded dominance) so the
CLI and the test suite execute the exact same procedures.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .grids import SourceConfig, gauss_markov_sample, rng_for
from .quantizers import Codebook, nn_quantize, train_codebook
from .schemes import (
    CodedLatent,
    SchemeConfig,
    _encode_fixed,
    cm_encode,
    iq_encode,
    rd_encode,
    train_cm_model,
    train_iq_model,
    train_rd_model,
)

__all__ = [
    "IndexHistogram",
    "entropy_gap",
    "GroupEntropyStream",
    "CodebookEntropyRow",
    "EntropyReport",
    "entropy_streams",
    "conditional_entropy_gap",
    "high_rate_predicted_pmf",
    "total_variation",
    "RDPoint",
    "RDCurve",
    "rd_sweep",
    "pchip_interpolate",
    "bd_rate",
    "write_rd_curves_csv",
    "read_rd_curves_csv",
    "index_shaping_experiment",
    "density_law_experiment",
    "decorrelation_gain_experiment",
    "rate_dominance_experiment",
    "pipeline_entropy_experiment",
]


def _plugin_entropy_bits(counts: np.ndarray) -> float:
    """Plug-in Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class IndexHistogram:
    """Empirical index counts over an alphabet of size K."""

    counts: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.shape[0] != self.k:
            raise ValueError(f"counts must be a length-{self.k} vector, got {c.shape}")
        if c.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        if int(c.sum()) != self.n:
            raise ValueError(f"counts sum to {int(c.sum())}, n says {self.n}")
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_indices(cls, indices: np.ndarray, k: int) -> "IndexHistogram":
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= k):
            raise ValueError(f"indices outside [0, {k})")
        counts = np.bincount(idx, minlength=k)
        return cls(counts=counts, n=int(idx.size), k=k)


def entropy_gap(hist: IndexHistogram) -> float:
    """Fraction of the fixed-length budget wasted by index non-uniformity.

    The budget is n*log2(K) bits; the empirical entropy uses the
    per-position i.i.d. plug-in convention H(J) = n*H(marginal), so the
    position count cancels and the gap reduces to 1 - H(marginal)/log2(K).
    """
    if hist.k < 2:
        raise ValueError(f"alphabet size must be >= 2, got {hist.k}")
    if hist.n == 0:
        raise ValueError("empty histogram")
    h = _plugin_entropy_bits(hist.counts)
    gap = 1.0 - h / np.log2(hist.k)
    return float(min(1.0, max(0.0, gap)))


@dataclass(frozen=True)
class GroupEntropyStream:
    """Index observations of one group with an optional discrete context
    label per position (pooled across latents)."""

    name: str
    stage_indices: tuple[np.ndarray, ...]
    stage_sizes: tuple[int, ...]
    context: np.ndarray | None = None

    def __post_init__(self):
        if len(self.stage_indices) != len(self.stage_sizes):
            raise ValueError("one size per stage required")
        if not self.stage_indices:
            raise ValueError("at least one stage required")
        n = self.stage_indices[0].shape[0]
        for idx, k in zip(self.stage_indices, self.stage_sizes):
            if idx.ndim != 1 or idx.shape[0] != n:
                raise ValueError("stage index arrays must share one length")
            if idx.size and (idx.min() < 0 or idx.max() >= k):
                raise ValueError(f"indices outside [0, {k})")
        if self.context is not None and self.context.shape != (n,):
            raise ValueError("context labels must align with positions")

    @property
    def count(self) -> int:
        return self.stage_indices[0].shape[0]


@dataclass(frozen=True)
class CodebookEntropyRow:
    """Per-codebook statistics backing one line of the entropy report."""

    quantizer: str
    stage: int
    size: int
    utilization: float
    delta_h: float
    conditional_entropy_bits: float
    sparse: bool


@dataclass(frozen=True)
class EntropyReport:
    gap: float
    rows: tuple[CodebookEntropyRow, ...]
    sparse_warning: bool


def entropy_streams(
    coded: list[CodedLatent], group_stage_sizes: tuple[tuple[int, ...], ...]
) -> list[GroupEntropyStream]:
    """Pool coded latents into per-group streams for the conditional gap.

    The context label of groups 2-4 is the co-located stage-1 index of
    group 1; group 1 itself carries no label and is scored unconditionally.
    ``group_stage_sizes`` supplies the true alphabet size per codebook.
    """
    if not coded:
        raise ValueError("no coded latents")
    streams = []
    for g in range(4):
        stages = coded[0].group_stacks[g].stages
        sizes = group_stage_sizes[g]
        if len(sizes) < stages:
            raise ValueError(f"group {g + 1}: {stages} stages but {len(sizes)} sizes")
        per_stage = [
            np.concatenate([c.group_stacks[g].indices[t] for c in coded])
            for t in range(stages)
        ]
        context = None
        if g > 0:
            context = np.concatenate([c.group_stacks[0].indices[0] for c in coded])
        streams.append(
            GroupEntropyStream(
                name=f"group{g + 1}",
                stage_indices=tuple(per_stage),
                stage_sizes=tuple(int(s) for s in sizes[:stages]),
                context=context,
            )
        )
    return streams


def _conditional_entropy_bits(indices: np.ndarray, k: int, context: np.ndarray) -> float:
    """Per-position plug-in conditional entropy H(J | context) in bits.

    H(J|C) = H(J,C) - H(C), each term estimated from joint/marginal counts.
    """
    key = context.astype(np.int64) * k + indices
    h_joint = _plugin_entropy_bits(np.bincount(key))
    h_ctx = _plugin_entropy_bits(np.bincount(context.astype(np.int64)))
    return max(0.0, h_joint - h_ctx)


def conditional_entropy_gap(per_group_streams: list[GroupEntropyStream]) -> EntropyReport:
    """Budget fraction wasted after conditioning each group on its context.

    Sums n_i*log2(K_i) budgets and plug-in conditional entropies over all
    groups and stages; reports per-codebook unconditional gaps alongside.
    A sparse flag marks any codebook whose (context cardinality x K)
    exceeds a tenth of its sample count, where the plug-in estimator's
    downward bias inflates the gap.
    """
    if not per_group_streams:
        raise ValueError("no streams")
    budget_total = 0.0
    cond_total = 0.0
    rows = []
    any_sparse = False
    for stream in per_group_streams:
        n = stream.count
        if n == 0:
            raise ValueError(f"{stream.name}: empty stream")
        n_ctx = 1
        if stream.context is not None:
            n_ctx = int(np.unique(stream.context).size)
        for t, (idx, k) in enumerate(zip(stream.stage_indices, stream.stage_sizes)):
            hist = IndexHistogram.from_indices(idx, k)
            utilization = float((hist.counts > 0).mean())
            if k < 2:
                # A one-word stage carries no budget and no entropy.
                rows.append(
                    CodebookEntropyRow(stream.name, t + 1, k, utilization, 0.0, 0.0, False)
                )
                continue
            budget = n * np.log2(k)
            if stream.context is None:
                h_pp = _plugin_entropy_bits(hist.counts)
            else:
                h_pp = _conditional_entropy_bits(idx, k, stream.context)
            sparse = n_ctx * k > n / 10
            any_sparse = any_sparse or sparse
            rows.append(
                CodebookEntropyRow(
                    quantizer=stream.name,
                    stage=t + 1,
                    size=k,
                    utilization=utilization,
                    delta_h=entropy_gap(hist),
                    conditional_entropy_bits=h_pp,
                    sparse=sparse,
                )
            )
            budget_total += budget
            cond_total += n * h_pp
    if budget_total <= 0.0:
        raise ValueError("all stages carry zero budget")
    gap = (budget_total - cond_total) / budget_total
    return EntropyReport(
        gap=float(min(1.0, max(0.0, gap))), rows=tuple(rows), sparse_warning=any_sparse
    )


def high_rate_predicted_pmf(codebook: Codebook, log_density, c: int | None = None):
    """Index pmf predicted by high-rate theory and the gap it implies.

    For a codebook trained to the optimal point density, cell mass scales
    as p(codeword)^(2/(C+2)): the exponent flattens the source density, and
    flattens completely as C grows.  Returns (pmf, predicted gap).
    """
    c = codebook.dim if c is None else c
    if codebook.size < 2:
        raise ValueError("codebook must have at least two codewords")
    logp = np.asarray(log_density(codebook.codewords), dtype=np.float64)
    if logp.shape != (codebook.size,):
        raise ValueError("log density must return one value per codeword")
    if np.all(np.isneginf(logp)):
        raise ValueError("density vanishes at every codeword")
    logw = (2.0 / (c + 2.0)) * logp
    logw -= logw.max()
    w = np.exp(logw)
    pmf = w / w.sum()
    nz = pmf[pmf > 0]
    h = float(-(nz * np.log2(nz)).sum())
    gap = float(min(1.0, max(0.0, 1.0 - h / np.log2(codebook.size))))
    return pmf, gap


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"pmf shapes differ: {p.shape} vs {q.shape}")
    for name, v in (("first", p), ("second", q)):
        if abs(float(v.sum()) - 1.0) > 1e-6 or v.min() < -1e-12:
            raise ValueError(f"{name} argument is not a pmf")
    return float(0.5 * np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Rate-distortion curves.


@dataclass(frozen=True)
class RDPoint:
    """One operating point: the scheme knob (m or delta), measured rate,
    and held-out distortion."""

    operating_point: float
    rate_bits: float
    bpp: float
    mse: float


@dataclass(frozen=True)
class RDCurve:
    scheme: str
    points: tuple[RDPoint, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a curve needs at least two points")
        rates = [p.rate_bits for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("points must have strictly increasing rates")

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate_bits for p in self.points])

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.mse for p in self.points])


_HOLDOUT_OFFSET = 1000  # holdout latents draw from streams >= this index


def _corpus(source: SourceConfig, train_count: int, holdout_count: int):
    """(training, holdout) latents of ``source``: streams from 0 and from
    ``_HOLDOUT_OFFSET``, so the two never share a latent."""
    train = [gauss_markov_sample(source, index=i) for i in range(train_count)]
    hold = [
        gauss_markov_sample(source, index=_HOLDOUT_OFFSET + i) for i in range(holdout_count)
    ]
    return train, hold


def _measure(hold, encode) -> tuple[float, float, int]:
    """(bits, squared error, elements) summed over ``encode`` of each
    holdout latent, in holdout order."""
    bits = se = 0.0
    n = 0
    for x in hold:
        coded = encode(x)
        bits += coded.rate_bits
        se += float(np.sum((x.data - coded.reconstruction.data) ** 2))
        n += x.data.size
    return bits, se, n


def rd_sweep(
    source: SourceConfig,
    scheme_points: list[SchemeConfig],
    group_stage_sizes: tuple[tuple[int, ...], ...],
    train_count: int,
    holdout_count: int,
    iterations: int = 20,
    seed: int = 0,
) -> list[RDCurve]:
    """Train each requested scheme once and measure all its operating points.

    ``group_stage_sizes`` holds each group's codebook sizes, one per stage,
    for rd and iq.  Training and holdout latents come from ``_corpus``.
    Rates are measured (fixed-length accounting for rd/iq, coded bytes for
    cm) and distortion is held-out MSE pooled over the holdout set.
    """
    if train_count < 1 or holdout_count < 1:
        raise ValueError("need at least one training and one holdout latent")

    ms_rd = sorted({p.m for p in scheme_points if p.scheme == "rd"})
    ms_iq = sorted({p.m for p in scheme_points if p.scheme == "iq"})
    deltas = sorted({p.delta for p in scheme_points if p.scheme == "cm"}, reverse=True)
    for p in scheme_points:
        if p.scheme in ("rd", "iq") and p.m is None:
            raise ValueError(f"{p.scheme} operating point needs m")

    train, hold = _corpus(source, train_count, holdout_count)
    pixels = 256 * hold[0].height * hold[0].width  # image pixels behind the latent

    def point(operating_point, encode):
        bits, se, n = _measure(hold, encode)
        rate = bits / len(hold)
        return RDPoint(float(operating_point), rate, rate / pixels, se / n)

    def curve(scheme, pts):
        return RDCurve(scheme, tuple(sorted(pts, key=lambda p: p.rate_bits)))

    fixed = []  # (scheme, stage counts, predictor or None for iq, quantizers)
    if ms_rd:
        fixed.append(("rd", ms_rd, *train_rd_model(
            train, (), m=None, iterations=iterations, seed=seed,
            group_stage_sizes=group_stage_sizes,
        )))
    if ms_iq:
        fixed.append(("iq", ms_iq, None, train_iq_model(
            train, (), iterations=iterations, seed=seed,
            group_stage_sizes=group_stage_sizes,
        )))
    curves = []
    for scheme, ms, pred, qset in fixed:
        pts = [point(m, lambda x: _encode_fixed(x, pred, qset, m, None)) for m in ms]
        curves.append(curve(scheme, pts))
    if deltas:
        pts = []
        for delta in deltas:
            pred = train_cm_model(train, delta=delta)
            config = SchemeConfig(scheme="cm", delta=delta)
            pts.append(point(delta, lambda x: cm_encode(x, pred, config)))
        curves.append(curve("cm", pts))
    return curves


# ---------------------------------------------------------------------------
# BD-rate.


def pchip_interpolate(x, y, query) -> np.ndarray:
    """Monotone piecewise-cubic interpolation, exact at knots, no extrapolation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("need matching 1-D knot arrays with at least two knots")
    if np.any(np.diff(x) <= 0):
        raise ValueError("knot x values must be strictly increasing")
    q = np.asarray(query, dtype=np.float64)
    if q.size and (q.min() < x[0] or q.max() > x[-1]):
        raise ValueError(
            f"query range [{q.min()}, {q.max()}] leaves the knot span [{x[0]}, {x[-1]}]"
        )
    return PchipInterpolator(x, y, extrapolate=False)(q)


def _curve_knots(curve: RDCurve) -> tuple[np.ndarray, np.ndarray]:
    d = curve.distortions
    r = curve.rates
    if np.any(r <= 0):
        raise ValueError("rates must be positive for log-domain integration")
    order = np.argsort(d)
    d = d[order]
    if np.any(np.diff(d) <= 0):
        raise ValueError("curve has duplicate distortion values")
    return d, np.log2(r[order])


def bd_rate(anchor: RDCurve, test: RDCurve) -> float:
    """Average rate change of `test` vs `anchor` at equal distortion, in percent.

    Both curves become log2(rate) as a function of distortion via monotone
    (PCHIP) interpolation; each piecewise cubic is integrated exactly over
    the shared distortion interval, and the mean log-ratio is mapped back
    through the exponential.
    """
    da, ra = _curve_knots(anchor)
    dt, rt = _curve_knots(test)
    lo = max(da[0], dt[0])
    hi = min(da[-1], dt[-1])
    if not lo < hi:
        raise ValueError("curves share no distortion overlap")
    mean_log_ratio = (
        PchipInterpolator(dt, rt).integrate(lo, hi) - PchipInterpolator(da, ra).integrate(lo, hi)
    ) / (hi - lo)
    return float(100.0 * (2.0**mean_log_ratio - 1.0))


# ---------------------------------------------------------------------------
# CSV emission.


_RD_CSV_FIELDS = ("scheme", "m_or_delta", "rate_bits", "bpp", "mse")


def write_rd_curves_csv(path, curves: list[RDCurve]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_RD_CSV_FIELDS)
        for curve in curves:
            for p in curve.points:
                w.writerow(
                    [curve.scheme, repr(p.operating_point), repr(p.rate_bits),
                     repr(p.bpp), repr(p.mse)]
                )


def read_rd_curves_csv(path) -> list[RDCurve]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != _RD_CSV_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(_RD_CSV_FIELDS)}")
        by_scheme: dict[str, list[RDPoint]] = {}
        for row in reader:
            if len(row) != 5:
                raise ValueError(f"{path}: malformed row {row!r}")
            by_scheme.setdefault(row[0], []).append(
                RDPoint(float(row[1]), float(row[2]), float(row[3]), float(row[4]))
            )
    return [
        RDCurve(scheme, tuple(sorted(pts, key=lambda p: p.rate_bits)))
        for scheme, pts in by_scheme.items()
    ]


# ---------------------------------------------------------------------------
# Verification experiments.  These are the procedures behind `verify-props`;
# the test suite calls them directly so CLI and tests can never disagree.


def index_shaping_experiment(
    n_samples: int = 100_000,
    channels: int = 8,
    size: int = 256,
    iterations: int = 50,
    seed: int = 1,
) -> dict:
    """Lloyd training on i.i.d. Gaussian vectors shapes the index law toward
    uniform: the final entropy gap must be small and no worse than the
    gap of the k-means++ initialization."""
    rng = rng_for(seed, stream=0)
    x = rng.standard_normal((n_samples, channels))
    codebook, report = train_codebook(x, size, iterations=iterations, seed=seed)
    initial_gap = entropy_gap(
        IndexHistogram.from_indices(nn_quantize(report["init_codebook"], x), size)
    )
    final_gap = entropy_gap(IndexHistogram.from_indices(report["labels"], size))
    return {
        "initial_gap": initial_gap,
        "final_gap": final_gap,
        "threshold": 0.05,
        "passed": bool(final_gap <= 0.05 and final_gap <= initial_gap),
        "codebook": codebook,
    }


def density_law_experiment(
    codebook: Codebook,
    n_samples: int = 1_000_000,
    seed: int = 2,
    tolerance: float = 0.1,
) -> dict:
    """Empirical index pmf vs the flattened-density prediction, in total
    variation, on fresh standard-Gaussian samples."""
    c = codebook.dim
    rng = rng_for(seed, stream=0)
    counts = np.zeros(codebook.size, dtype=np.int64)
    done = 0
    while done < n_samples:
        m = min(65_536, n_samples - done)
        idx = nn_quantize(codebook, rng.standard_normal((m, c)))
        counts += np.bincount(idx, minlength=codebook.size)
        done += m
    empirical = counts / counts.sum()

    def log_density(v):
        return -0.5 * np.sum(v * v, axis=1) - 0.5 * c * np.log(2.0 * np.pi)

    predicted, predicted_gap = high_rate_predicted_pmf(codebook, log_density, c)
    tv = total_variation(empirical, predicted)
    return {
        "tv_distance": tv,
        "tolerance": tolerance,
        "predicted_gap": predicted_gap,
        "empirical_gap": entropy_gap(IndexHistogram(counts, int(counts.sum()), codebook.size)),
        "passed": bool(tv <= tolerance),
    }


_PROP2_SOURCE = SourceConfig(channels=1, height=128, width=128, rho=0.9, variance=1.0, seed=21)


def decorrelation_gain_experiment(
    ladder: tuple[int, ...] = (256, 128, 64, 32),
    ms: tuple[int, ...] = (1, 2, 3),
    train_count: int = 16,
    holdout_count: int = 16,
    iterations: int = 20,
    seed: int = 5,
    source: SourceConfig = _PROP2_SOURCE,
) -> dict:
    """Held-out MSE of context-standardized coding vs independent coding on
    a correlated source, per stage count.

    Both schemes share the per-group codebook ladder, so the rates match
    point for point and distortion is the only comparison axis.
    """
    train, hold = _corpus(source, train_count, holdout_count)
    stages = max(ms)
    gss = tuple((k,) * stages for k in ladder)
    pred, qset_rd = train_rd_model(
        train, (), m=None, iterations=iterations, seed=seed, group_stage_sizes=gss
    )
    qset_iq = train_iq_model(train, (), iterations=iterations, seed=seed, group_stage_sizes=gss)

    rows = []
    for m in ms:
        _, se_rd, n = _measure(hold, lambda x: rd_encode(x, pred, qset_rd, m))
        _, se_iq, n = _measure(hold, lambda x: iq_encode(x, qset_iq, m))
        mse_rd, mse_iq = se_rd / n, se_iq / n
        rows.append(
            {
                "m": m,
                "mse_rd": mse_rd,
                "mse_iq": mse_iq,
                "ratio": mse_rd / mse_iq,
                "within_tolerance": bool(mse_rd <= 1.02 * mse_iq),
                "strict_gain": bool(mse_rd <= 0.95 * mse_iq),
            }
        )
    passed = all(r["within_tolerance"] for r in rows) and any(r["strict_gain"] for r in rows)
    return {"rows": rows, "passed": bool(passed)}


# Allocation screen constants: candidate scalar codebook sizes, and the
# discount applied when propagating upstream quantization error through a
# group's context weights (decoded context is partially, not fully, wrong).
_ALLOCATION_MENU = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 28, 32,
    40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
)
_CONTEXT_ERROR_DISCOUNT = 0.7


def _scalar_quantizer_mse_table(menu, samples: int = 300_000, seed: int = 11) -> dict[int, float]:
    """Normalized MSE of a trained K-level scalar quantizer on N(0,1)."""
    g = rng_for(77, stream=0).standard_normal((samples, 1))
    table = {1: 1.0}
    for k in menu:
        if k == 1:
            continue
        cb, report = train_codebook(g, k, iterations=30, seed=seed)
        idx = report["labels"]
        table[k] = float(np.mean((g - cb.codewords[idx]) ** 2))
    return table


def _screen_allocations(sigma: np.ndarray, mu_weights: list[np.ndarray], lm: dict[int, float]):
    """Predicted (rate, distortion) for every per-group size assignment.

    Group variance after standardization is sigma_i^2 plus upstream error
    leaking through the mu-head weights; per-group distortion is that
    variance times the normalized scalar-quantizer MSE of its size.  Rates
    and distortions are per latent element.
    """
    menu = _ALLOCATION_MENU
    m = len(menu)
    lmv = np.array([lm[k] for k in menu])
    lgk = np.log2(np.array(menu, dtype=np.float64))
    rates = np.zeros((m, m, m, m))
    dists = np.zeros((m, m, m, m))
    w = [np.abs(wm[:, 0]) for wm in mu_weights]
    leak = _CONTEXT_ERROR_DISCOUNT
    d1 = sigma[0] ** 2 * lmv
    for a in range(m):
        v2 = sigma[1] ** 2 + leak * w[1][0] ** 2 * d1[a]
        d2 = v2 * lmv
        for b in range(m):
            v3 = sigma[2] ** 2 + leak * (w[2][0] ** 2 * d1[a] + w[2][1] ** 2 * d2[b])
            d3 = v3 * lmv
            v4 = sigma[3] ** 2 + leak * (w[3][0] ** 2 * d1[a] + w[3][1] ** 2 * d2[b])
            d4 = (v4 + leak * w[3][2] ** 2 * d3)[:, None] * lmv[None, :]
            dists[a, b] = (d1[a] + d2[b] + d3[:, None] + d4) / 4.0
            rates[a, b] = (lgk[a] + lgk[b] + lgk[:, None] + lgk[None, :]) / 4.0
    return rates, dists


def rate_dominance_experiment(
    deltas: tuple[float, ...] = (2.0, 1.0, 0.5, 0.25, 0.125),
    rate_slack: float = 0.9,
    mse_slack: float = 1.05,
    train_count: int = 16,
    holdout_count: int = 16,
    candidates_per_point: int = 6,
    seed: int = 5,
    source: SourceConfig = _PROP2_SOURCE,
) -> dict:
    """For each scalar-quantization-plus-entropy-coding operating point,
    find a fixed-length operating point with rate within 1/rate_slack and
    MSE within mse_slack.

    The fixed-length side sweeps per-group codebook size allocations: a
    coarse analytic screen ranks all menu^4 assignments under each rate
    cap, the best few are trained for real, and the measured points are
    matched against each entropy-coded point.  Rates are measured bits per
    latent element on the holdout set.  A row's ``slack`` is its rate cap
    less the matched rate: the overhead the match still absorbs.
    """
    train, hold = _corpus(source, train_count, holdout_count)

    cm_points = []
    for delta in deltas:
        pred = train_cm_model(train, delta=delta)
        config = SchemeConfig(scheme="cm", delta=delta)
        bits, se, n = _measure(hold, lambda x: cm_encode(x, pred, config))
        cm_points.append({"delta": delta, "rate": bits / n, "mse": se / n})

    # Analytic screen: single-stage model at the largest size provides the
    # per-group sigmas and context weights the variance recursion needs.
    lm = _scalar_quantizer_mse_table(_ALLOCATION_MENU)
    pred_fine, _ = train_rd_model(train, (256,), m=1, iterations=15, seed=seed)
    sigma = np.array([float(np.exp(b[1])) for b in pred_fine.biases])
    rates, dists = _screen_allocations(sigma, list(pred_fine.weights), lm)

    candidates = set()
    for point in cm_points:
        cap = point["rate"] / rate_slack
        masked = np.where(rates <= cap, dists, np.inf)
        for flat in np.argsort(masked, axis=None)[:candidates_per_point]:
            ks = np.unravel_index(flat, masked.shape)
            if np.isfinite(masked[ks]):
                candidates.add(tuple(_ALLOCATION_MENU[i] for i in ks))

    rd_points = []
    for ks in sorted(candidates):
        pred, qset = train_rd_model(
            train, (), m=1, iterations=30, seed=seed,
            group_stage_sizes=tuple((k,) for k in ks),
        )
        bits, se, n = _measure(hold, lambda x: rd_encode(x, pred, qset, 1))
        rd_points.append({"sizes": ks, "rate": bits / n, "mse": se / n})

    rows = []
    for point in cm_points:
        cap = point["rate"] / rate_slack
        feasible = [p for p in rd_points if p["rate"] <= cap]
        best = min(feasible, key=lambda p: p["mse"]) if feasible else None
        ok = best is not None and best["mse"] <= mse_slack * point["mse"]
        rows.append(
            {
                "delta": point["delta"],
                "cm_rate": point["rate"],
                "cm_mse": point["mse"],
                "rate_cap": cap,
                "sizes": best["sizes"] if best else None,
                "rd_rate": best["rate"] if best else None,
                "rd_mse": best["mse"] if best else None,
                "slack": cap - best["rate"] if best else None,
                "passed": bool(ok),
            }
        )
    return {"rows": rows, "passed": bool(all(r["passed"] for r in rows))}


def pipeline_entropy_experiment(
    k: int = 256,
    train_count: int = 250,
    holdout_count: int = 400,
    iterations: int = 40,
    seed: int = 5,
    source: SourceConfig = _PROP2_SOURCE,
) -> dict:
    """Conditional entropy gap of a trained single-stage pipeline on held-out
    data, with groups 2-4 conditioned on co-located group-1 indices."""
    train, hold = _corpus(source, train_count, holdout_count)
    pred, qset = train_rd_model(train, (k,), m=1, iterations=iterations, seed=seed)
    coded = [rd_encode(x, pred, qset, 1) for x in hold]
    report = conditional_entropy_gap(
        entropy_streams(coded, tuple((k,) for _ in range(4)))
    )
    return {
        "gap": report.gap,
        "threshold": 0.05,
        "sparse_warning": report.sparse_warning,
        "report": report,
        "passed": bool(report.gap <= 0.05),
    }
