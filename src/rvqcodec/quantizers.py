"""Vector quantizers: nearest-neighbor codebooks and residual stages.

A residual quantizer applies its stage codebooks to a running residual and
reconstructs as the sum of the selected codewords.  Every codeword of a
stage trains freely, so the indices of a K-word stage spread over all K
values.  A later stage can raise the error of a single vector; held-out
MSE falls with the stage count on average, as measured, not by
construction.  A one-word stage is the zero codeword, a stage that
transmits nothing.

Distances are computed in float64 with a fixed summation order, so
assignments are reproducible across runs and platforms.  The reference
search is ``scipy.spatial.distance.cdist`` followed by ``argmin``: per
pair, cdist adds fl((x_j - c_j)**2) over j = 0, 1, ... in order, and argmin
breaks ties to the lowest index.  The two faster searches below return its
indices and per-row minimum distances bit for bit, and hand it every row
they cannot settle themselves.

For C = 1 the search is exact and sorted.  Each codebook's distinct values
are sorted once, and every input x gets q, the number of values below it,
so that its two neighbours are values q - 1 and q.  The same
fl((x - c)**2) that ``cdist`` computes is compared between them, ties
going to the lowest original index.  Those distances never decrease away
from the input on either side, so the minimum lies at a neighbour; a row
whose minimum may also be reached beyond its neighbours (distinct
codewords rounding to equal distances at large |x|, or a non-finite
distance) falls back to ``cdist`` + ``argmin``.  The comparison works per
element, in ``_CHUNK``-row blocks that stay in cache.

Encoding finds q by a bucket lookup (``_bucket_lookup``) once a codebook
has ``_BUCKET_MIN_VALUES`` distinct values and a search has
``_BUCKET_MIN_ROWS`` rows; ``searchsorted`` places smaller searches, and
training places the codeword values among its sorted samples (below).  The
grid splits [lowest, highest value] into a power of two of equal buckets,
at least twice the span over the smallest gap between values and at most
``_BUCKET_MAX``.  A row's bucket is fl(fl(x - lo) * scale), clipped to the
grid and truncated, and start[b] counts the values whose own bucket,
computed the same way, is below b.  Every step is monotone in x, so a value
in a lower bucket than x's bucket t is below x and one in a higher bucket
is not: q lies in [start[t], start[t + 1]], and one step up, taken while
the next value is still below x, reaches it when bucket t holds at most one
value.  The float arithmetic is not what certifies q, though: every row is
checked with the comparisons that define ``searchsorted``'s q,
values[q - 1] < x <= values[q], which hold for one q alone, and a row that
fails is placed by ``searchsorted``.  The check reads the two neighbours
that the distance comparison reads.  A grid whose scale (buckets over span)
is not finite and positive is refused: a span that overflows gives a scale
of 0, a subnormal span an infinite one, and inf * 0 or 0 * inf would make a
bucket NaN.  Sized from the smallest gap, no bucket of the 192 encode
searches of perfbench's ``scalar-large`` (4,096 rows at K = 64, rd and iq,
m = 1 to 3, holdout seeds 1 to 4) held two values, and none of their
786,432 rows went to ``searchsorted``; a bucket shared by several values
(a tight cluster next to a far codeword caps the grid) sends the rows high
in it there.  Speed-up of one labels-only C = 1 search, ``searchsorted``
time over lookup time, for n rows against Lloyd codebooks of Gaussian
samples, fresh Gaussian rows every call, low and high of two runs (one
core of a Xeon, numpy 2.4; K = 64, n = 4,096 took 66.5 ns per row against
29.1 ns):

    K        n = 256      512         1,024       4,096
    2       0.77 0.81   0.89 0.90   0.88 0.89   1.12 1.20
    4       0.81 0.84   0.82 0.92   1.00 1.07   1.25 1.30
    8       0.79 0.89   0.92 0.97   1.02 1.26   1.44 1.53
    16      0.89 0.90   1.08 1.15   1.24 1.31   1.79 1.80
    64      1.07 1.09   1.34 1.46   1.67 1.68   2.28 2.31
    256     1.02 1.81   1.54 1.55   2.02 2.04   3.01 3.10

Below 16 values or 1,024 rows some cell reads near or below 1, so those
searches stay with ``searchsorted``.

Lloyd training searches the same C = 1 samples on every pass, so
``train_codebook`` argsorts them once, and each pass places the K codeword
values among the n sorted samples instead of each sample among the values.
The search needs only q, the number of distinct values below a sample x,
and both ways count the same thing with the same ``<``: a value v is below
x exactly when every sample <= v sorts before x's position i, that is when
``searchsorted(sorted_x, v, side="right") <= i``; when v >= x, the samples
at positions 0..i are all <= v and the count passes i.  Equal samples lie
on the same side of every value, so the order among them does not matter.
q is then the array ``searchsorted(values, x)`` gives, and the neighbour
comparison and cdist fallback after it are unchanged.  At n = 32,768 and
K = 64 finding q took 0.14 ms per pass against 2.2 ms, and the argsort
0.84 ms once per call (one core of a Xeon, numpy 2.4).

For C > 1 the search is screened by a matrix product once K >= 64 and
K * C >= 512 (``_nearest_screened``).  In blocks of 2**17 / K rows, so a
block's estimates (1 MB) stay in cache, one GEMM of [x, 1] with
[-2 c; |c|^2] estimates every distance less the row's |x|^2, which is the
same for all of the row's codewords; each estimate is within E/2 of
cdist - |x|^2 (``_estimate_error``).  When a row's runner-up estimate
exceeds its lowest by more than 2E, every other codeword's cdist distance
is strictly above the lowest one's, so that codeword is cdist's argmin, and
its distance, summed over j in cdist's order, is cdist's value (bit for bit
on 1,080,000 pairs, C up to 100, scales 1e-300 to 1e150).  Ties,
duplicated codewords, near-ties and blocks where (max|x| + max|c|)^2 could
overflow go to cdist.  An earlier screen built the whole n x K estimate and
a candidate count over it before any row could skip cdist, and ran at
0.46-0.61x the speed of cdist + argmin; this one keeps each block in cache,
takes two argmins per row and sums one distance per row, none when only
labels are asked for, as ``nn_quantize`` asks.  The screen's cost
per row grows with K and hardly with C, cdist's with K * C.  Speed-up of
one search, cdist time over screen time, at n = 1,024 and 22,528 rows (one
core of a Xeon, OpenBLAS on one thread; C = 16, K = 256, n = 22,528 took
68 ms against 17 ms):

    K           16          32          64          128         256
    C = 2    0.50 0.59   0.56 0.92   0.71 1.23   0.89 1.63   1.36 2.40
    C = 4    0.64 0.75   0.93 1.04   1.31 1.41   1.62 1.92   1.92 2.70
    C = 8    0.63 0.71   0.95 1.08   1.48 1.53   1.89 1.97   2.17 2.55
    C = 16   0.65 0.68   1.05 1.08   2.52 1.67   2.61 2.45   3.01 3.94
    C = 32   0.81 0.67   1.38 1.12   2.11 1.67   2.88 2.46   3.38 3.41

Cells with K < 64 or K * C < 512 read below 1 in this or other runs on
the same box (C = 4, K = 64 at n = 1,024: 0.86-1.31), so they stay with
cdist.

k-means++ seeding over C > 1 rows screens each new center with one gemv,
``|x|^2 - 2 x.c + |c|^2``, and runs cdist only on rows the center may bring
closer: that estimate is within E of cdist, so every row it skips is one
whose distance cdist would not have lowered (``_screened_minimum``).
Training returns the final pass's assignments, so callers do not search
the same samples again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .grids import rng_for

__all__ = [
    "Codebook",
    "ResidualVQ",
    "IndexStack",
    "QuantizerSet",
    "nn_quantize",
    "rvq_quantize",
    "train_codebook",
    "train_rvq",
    "write_codebook_file",
    "read_codebook_file",
]

_CODEBOOK_MAGIC = b"EFCB"
_CODEBOOK_VERSION = 1

# Row chunk of the cdist search (a chunk's distance buffer is 16 MB at
# K = 256), of its distance sums, whose order ``_chunked_sum`` repeats, of
# the C = 1 neighbour comparison and of the k-means++ prefix search.
_CHUNK = 8192

# The C > 1 search is screened by a matrix product from K = 64 codewords
# and K * C = 512 (crossover table in the module docstring), in blocks of
# 2**17 estimates: 1 MB of float64, 512 rows at K = 256.
_SCREEN_MIN_K = 64
_SCREEN_MIN_KC = 512
_SCREEN_ENTRIES = 2**17

# The C = 1 search places rows by a bucket lookup from 16 distinct codeword
# values and 1,024 rows (crossover table in the module docstring), and by
# ``searchsorted`` below that and in training.  A codebook's grid has the
# power of two of buckets at or above twice its span over its smallest gap,
# at most 2**12 (32 KB of starts).  A grid needs two values for a span.
_BUCKET_MIN_VALUES = 16
_BUCKET_MIN_ROWS = 1024
_BUCKET_MAX = 2**12


@dataclass(frozen=True)
class Codebook:
    """K codewords of dimension C, row-major float64."""

    codewords: np.ndarray

    def __post_init__(self):
        cw = np.ascontiguousarray(np.asarray(self.codewords, dtype=np.float64))
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
            raise ValueError(f"codewords must be (K, C) with K,C >= 1, got {cw.shape}")
        if not np.all(np.isfinite(cw)):
            raise ValueError("codewords must be finite")
        cw = cw.copy()
        cw.flags.writeable = False
        object.__setattr__(self, "codewords", cw)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def _search_table(self):
        """Sorted search table for C = 1, with its bucket grid (None
        otherwise), built once."""
        return _build_search_table(self.codewords, buckets=True)


@dataclass(frozen=True)
class ResidualVQ:
    """Ordered stage codebooks over a common vector dimension."""

    stage_codebooks: tuple[Codebook, ...]

    def __post_init__(self):
        if not self.stage_codebooks:
            raise ValueError("at least one stage required")
        dims = {cb.dim for cb in self.stage_codebooks}
        if len(dims) != 1:
            raise ValueError(f"stage dimensions differ: {sorted(dims)}")

    @property
    def stages(self) -> int:
        return len(self.stage_codebooks)

    @property
    def dim(self) -> int:
        return self.stage_codebooks[0].dim

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        return tuple(cb.size for cb in self.stage_codebooks)


@dataclass(frozen=True)
class IndexStack:
    """Per-stage index arrays for one quantized vector batch."""

    indices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("index stack must have at least one stage")
        arrays = []
        n = None
        for a in self.indices:
            a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
            if a.ndim != 1:
                raise ValueError("stage indices must be 1-D")
            if n is None:
                n = a.shape[0]
            elif a.shape[0] != n:
                raise ValueError("stage index arrays must share one length")
            if a.size and a.min() < 0:
                raise ValueError("indices must be non-negative")
            arrays.append(a)
        object.__setattr__(self, "indices", tuple(arrays))

    @property
    def stages(self) -> int:
        return len(self.indices)

    @property
    def count(self) -> int:
        return self.indices[0].shape[0]


@dataclass(frozen=True)
class QuantizerSet:
    """The four per-group residual quantizers plus the optional hyper one."""

    groups: tuple[ResidualVQ, ResidualVQ, ResidualVQ, ResidualVQ]
    hyper: ResidualVQ | None = None

    def __post_init__(self):
        if len(self.groups) != 4:
            raise ValueError("exactly four group quantizers expected")
        stages = {q.stages for q in self.groups}
        if self.hyper is not None:
            stages.add(self.hyper.stages)
        if len(stages) != 1:
            raise ValueError(f"all quantizers must share a stage count, got {sorted(stages)}")
        dims = [q.dim for q in self.groups + ((self.hyper,) if self.hyper else ())]
        if len(set(dims)) != 1:
            raise ValueError(f"all quantizers must share a vector dimension, got {dims}")

    @property
    def stages(self) -> int:
        return self.groups[0].stages


def _sq_distances(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    return cdist(vectors, codewords, metric="sqeuclidean")


def _nearest_cdist(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chunked cdist + argmin: (index, squared distance) per row."""
    n = vectors.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        d = _sq_distances(vectors[lo:hi], codewords)
        lab = np.argmin(d, axis=1)
        labels[lo:hi] = lab
        dist[lo:hi] = d[np.arange(hi - lo), lab]
    return labels, dist


def _build_search_table(codewords: np.ndarray, buckets: bool = False):
    """Distinct values of a (K, 1) codebook in ascending order, each with the
    lowest index holding it, padded by two infinite sentinels per side so
    every input has two neighbours on each side, and with ``buckets`` their
    ``_build_buckets`` grid (else None); None for C > 1."""
    if codewords.shape[1] != 1:
        return None
    values, first = np.unique(codewords[:, 0], return_index=True)
    grid = _build_buckets(values) if buckets else None
    inf = np.array([np.inf, np.inf])
    return np.concatenate([-inf, values, inf]), np.pad(first, 2), grid


def _bucket_index(x, lo, scale, count):
    """Bucket of each x: ``(x - lo) * scale`` clipped to [0, count - 1] and
    truncated.  Every step is monotone in x, and for finite x, lo and
    0 < scale < inf no step yields NaN (an overflow gives +-inf, which the
    clip bounds)."""
    t = x - lo
    t *= scale
    np.clip(t, 0.0, count - 1.0, out=t)
    return t.astype(np.intp)


def _build_buckets(values: np.ndarray):
    """``(lo, scale, start)`` of a uniform grid of buckets over the sorted
    distinct ``values``, or None for fewer than ``_BUCKET_MIN_VALUES`` of
    them or a span whose scale would not be finite and positive (a span
    that overflows, or a subnormal one).  ``start[b]`` counts the values
    whose own ``_bucket_index`` is below b."""
    if values.shape[0] < _BUCKET_MIN_VALUES:
        return None
    lo = values[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = values[-1] - lo
        need = 2.0 * span / np.diff(values).min()
        count = _BUCKET_MAX if not need < _BUCKET_MAX else 1 << int(np.ceil(np.log2(need)))
        scale = count / span
    if not 0.0 < scale < np.inf:
        return None
    own = _bucket_index(values, lo, scale, count)
    return lo, scale, np.searchsorted(own, np.arange(count))


def _bucket_lookup(x: np.ndarray, values: np.ndarray, grid):
    """``q = searchsorted(values[2:-2], x)`` by bucket lookup, with the two
    neighbours ``values[q + 1]`` and ``values[q + 2]`` of every x.

    Starting from the values below x's bucket, q takes one step up while
    the next value is still below x.  Each row is then checked with the
    comparisons that define ``searchsorted``'s q, ``values[q + 1] < x <=
    values[q + 2]``, and a row that fails is placed by ``searchsorted``.
    """
    lo, scale, start = grid
    q = start[_bucket_index(x, lo, scale, start.shape[0])]
    q += values[2:][q] < x
    below = values[1:][q]
    above = values[2:][q]
    bad = ~((below < x) & (x <= above))
    if bad.any():
        rows = np.flatnonzero(bad)
        q[rows] = np.searchsorted(values[2:-2], x[rows])
        below[rows] = values[1:][q[rows]]
        above[rows] = values[2:][q[rows]]
    return q, below, above


def _nearest(
    vectors: np.ndarray, codewords: np.ndarray, table, ranked=None, distances: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Nearest codeword per row as (index, squared distance).

    ``table`` is ``_build_search_table(codewords)``; without one (C > 1)
    this is the cdist search, screened by ``_nearest_screened`` for the
    codebook sizes where that is faster.  With one, see the module
    docstring: each row's place q among the sorted values comes from the
    table's bucket grid when it has one and there are at least
    ``_BUCKET_MIN_ROWS`` rows (``_bucket_lookup``), else from
    ``searchsorted``; the two neighbours are compared, and a row whose
    minimum also reaches the next value out on either side, or is not
    finite, is searched by cdist.  ``ranked`` is ``(order, vectors[order,
    0])`` for an argsort ``order`` of ``vectors[:, 0]``: with it the
    codeword values are placed among the sorted rows instead of each row
    among the codeword values, with the same result.  Without
    ``distances`` the second element may be None.
    """
    if table is None:
        k, c = codewords.shape
        if k >= _SCREEN_MIN_K and k * c >= _SCREEN_MIN_KC:
            return _nearest_screened(vectors, codewords, distances)
        return _nearest_cdist(vectors, codewords)
    values, first, grid = table
    x = vectors[:, 0]
    n = x.shape[0]
    # values[2:-2][q - 1] < x <= values[2:-2][q]: the two neighbours of x sit
    # at values[q + 1] and values[q + 2], the next ones out at q and q + 3.
    q = None
    if ranked is not None:
        # p[j] sorted rows are <= values[2:-2][j], so the sorted row at
        # position i has q = #{j: p[j] <= i} values below it.
        order, sorted_x = ranked
        p = np.searchsorted(sorted_x, values[2:-2], side="right")
        runs = np.diff(p, prepend=0, append=n)
        q = np.empty(n, dtype=np.intp)
        q[order] = np.repeat(np.arange(p.shape[0] + 1), runs)
    elif grid is None or n < _BUCKET_MIN_ROWS:
        q = np.searchsorted(values[2:-2], x)
    labels = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    unsure = []
    # Per-element passes over cache-sized row blocks: no bit depends on them.
    for lo in range(0, n, _CHUNK):
        xb = x[lo : lo + _CHUNK]
        if q is None:
            qb, below, above = _bucket_lookup(xb, values, grid)
        else:
            qb = q[lo : lo + _CHUNK]
            below, above = values[1:][qb], values[2:][qb]
        with np.errstate(over="ignore", invalid="ignore"):  # such rows go to cdist
            d_lo = (xb - below) ** 2
            d_hi = (xb - above) ** 2
            i_lo = first[1:][qb]
            i_hi = first[2:][qb]
            labels[lo : lo + _CHUNK] = np.where(
                (d_hi < d_lo) | ((d_hi == d_lo) & (i_hi < i_lo)), i_hi, i_lo
            )
            best = np.minimum(d_lo, d_hi, out=dist[lo : lo + _CHUNK])
            # Nothing compares above an infinite or NaN distance, so this
            # also sends every row with a non-finite minimum to cdist.
            exact = ((xb - values[qb]) ** 2 > best) & ((xb - values[3:][qb]) ** 2 > best)
        if not exact.all():
            unsure.append(lo + np.flatnonzero(~exact))
    if unsure:
        rows = np.concatenate(unsure)
        labels[rows], dist[rows] = _nearest_cdist(vectors[rows], codewords)
    return labels, dist


def _nearest_screened(
    vectors: np.ndarray, codewords: np.ndarray, distances: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """``_nearest_cdist(vectors, codewords)``, bit for bit, with cdist run
    only on the rows a matrix-product screen cannot settle.

    Per block of ``_SCREEN_ENTRIES // K`` rows, one GEMM of ``[x, 1]`` with
    ``[-2 c; |c|^2]`` estimates each distance less the row's ``|x|^2``.
    A row whose runner-up estimate exceeds its lowest by more than 2E
    (``_estimate_error``) has one strictly nearest codeword; with
    ``distances`` its distance is then summed as cdist sums it, and
    without them None is returned in their place.  Every other row goes to
    cdist.
    """
    n, c = vectors.shape
    k = codewords.shape[0]
    with np.errstate(over="ignore"):  # then no block passes the guard below
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        c2 = np.einsum("ij,ij->i", codewords, codewords)
        max_c = np.sqrt(c2.max())
        weights = np.concatenate([-2.0 * codewords.T, c2[None, :]])
    rows_per = max(1, _SCREEN_ENTRIES // k)
    augmented = np.ones((min(rows_per, n), c + 1))
    buffer = np.empty((min(rows_per, n), k))
    labels = np.zeros(n, dtype=np.int64)
    sure = np.zeros(n, dtype=bool)
    for lo in range(0, n, rows_per):
        x = vectors[lo : lo + rows_per]
        m = x.shape[0]
        max_x = np.sqrt(sq_norms[lo : lo + m].max())
        # Below 2**510 nothing the screen or cdist computes can overflow.
        if not max_x + max_c <= 2.0**510:
            continue
        augmented[:m, :c] = x
        est = np.matmul(augmented[:m], weights, out=buffer[:m])
        flat = est.reshape(-1)
        row_starts = np.arange(0, m * k, k)
        best = np.argmin(est, axis=1)
        lowest = flat[row_starts + best]
        flat[row_starts + best] = np.inf
        gap = flat[row_starts + np.argmin(est, axis=1)] - lowest
        labels[lo : lo + m] = best
        np.greater(gap, 2.0 * _estimate_error(c, max_x, max_c), out=sure[lo : lo + m])
    unsure = np.flatnonzero(~sure)
    if not distances:
        if unsure.size:
            labels[unsure] = _nearest_cdist(vectors[unsure], codewords)[0]
        return labels, None
    # cdist's per-pair order: fl((x_j - c_j)**2) added over j = 0, 1, ...
    diff = codewords[labels]
    with np.errstate(over="ignore"):  # unsure rows are searched again below
        diff -= vectors
        diff *= diff
        dist = diff[:, 0].copy()
        for j in range(1, c):
            dist += diff[:, j]
    if unsure.size:
        labels[unsure], dist[unsure] = _nearest_cdist(vectors[unsure], codewords)
    return labels, dist


def _chunked_sum(values: np.ndarray) -> float:
    """Sum in ``_CHUNK`` partial sums: the order of the chunked cdist search."""
    total = 0.0
    for lo in range(0, values.shape[0], _CHUNK):
        total += values[lo : lo + _CHUNK].sum()
    return total


def nn_quantize(codebook: Codebook, vectors: np.ndarray) -> np.ndarray:
    """Exact nearest codeword per vector; ties break to the lowest index."""
    v = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    if v.ndim != 2 or v.shape[1] != codebook.dim:
        raise ValueError(f"vectors must be (n, {codebook.dim}), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vectors must be finite")
    return _nearest(v, codebook.codewords, codebook._search_table, distances=False)[0]


def rvq_quantize(rvq: ResidualVQ, vectors: np.ndarray, m: int) -> tuple[IndexStack, np.ndarray]:
    """Apply the first ``m`` stages to a vector batch.

    Returns the per-stage indices and the reconstruction (sum of selected
    codewords).  ``m`` selects the operating rate; it must not exceed the
    trained stage count.
    """
    if not 1 <= m <= rvq.stages:
        raise ValueError(f"m must be in [1, {rvq.stages}], got {m}")
    v = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    residual = v.copy()
    recon = np.zeros_like(v)
    stage_indices = []
    for cb in rvq.stage_codebooks[:m]:
        idx = nn_quantize(cb, residual)
        chosen = cb.codewords[idx]
        recon += chosen
        residual -= chosen
        stage_indices.append(idx)
    return IndexStack(indices=tuple(stage_indices)), recon


def _row_norms(vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """(|x|^2 per row, max |x|) for ``_screened_minimum``; may be non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        return sq_norms, float(np.sqrt(sq_norms.max()))


def _estimate_error(c: int, max_x, max_c):
    """E = 8 (C + 4) 2**-53 (max|x| + max|c|)**2 + 8 (C + 4) 2**-1074, a bound
    on how far a matrix-product distance estimate of C-dimensional rows of
    norm at most max|x| and codewords of norm at most max|c| lies from cdist.

    With u = 2**-53, P = (|x| + |c|)^2 >= D = |x - c|^2 and
    gamma_m = m u/(1 - m u):

    - cdist sums C terms fl(fl(x_j - c_j)^2) in a fixed order, so
      |cdist - D| <= gamma_(C+2) D <= gamma_(C+2) P;
    - |x|^2, x.c and |c|^2, summed in any order, are within gamma_C of
      |x|^2, |x||c| (Cauchy-Schwarz) and |c|^2, gamma_C P in all; the two
      additions of ``|x|^2 - 2 x.c + |c|^2`` add at most 2u(1 + gamma_C) P;
    - so |cdist - approx| <= (2C + 4) u P (1 + O(C u)), under a quarter of
      E.  The spare factor covers the rounding of E, of max|x| (taken from
      the computed |x|^2) and of the test that uses E.  Gradual underflow
      voids relative bounds; each underflowing product errs by at most
      2**-1075 absolutely, which the second term of E covers.

    ``_nearest_screened`` leaves the row constant |x|^2 out and adds |c|^2
    inside the product, one (C + 1)-term dot product of ``[x, 1]`` and
    ``[-2 c, fl(|c|^2)]`` in any order: within gamma_(C+1) (2|x||c| + |c|^2)
    plus gamma_C |c|^2 of D - |x|^2, so cdist - |x|^2 is within
    (3C + 3) u P (1 + O(C u)) of it, under half of E.
    """
    return 8.0 * (c + 4) * (2.0**-53 * (max_x + max_c) ** 2 + 2.0**-1074)


def _screened_minimum(
    vectors: np.ndarray, norms: tuple[np.ndarray, float], d2: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """``np.minimum(d2, cdist(vectors, [center]))``, bit for bit, updated in
    place; cdist runs only on the rows a gemv screen cannot rule out.

    ``norms`` is ``_row_norms(vectors)``.  The screen estimates each row's
    distance as ``approx = |x|^2 - 2 x.c + |c|^2``, within E of cdist
    (``_estimate_error``), and sends a row to cdist when ``approx - E < d2``
    or that test is not finite.  A skipped row's cdist is therefore >= its
    ``d2``, where ``np.minimum`` leaves ``d2`` unchanged.  An overflow makes
    the test infinite or NaN, and such rows go to cdist.
    """
    sq_norms, max_norm = norms
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = float(center @ center)
        bound = _estimate_error(center.shape[0], max_norm, np.sqrt(c2))
        test = sq_norms - 2.0 * (vectors @ center) + c2 - bound
        rows = np.flatnonzero((test < d2) | ~np.isfinite(test))
    if rows.size:
        exact = _sq_distances(vectors[rows], center[None, :])[:, 0]
        d2[rows] = np.minimum(d2[rows], exact)
    return d2


def _prefix_search(weights: np.ndarray, r: float) -> int:
    """``np.searchsorted(np.cumsum(weights), r, side="right")`` for
    non-negative weights, summing only up to the ``_CHUNK`` rows where the
    prefix passes ``r``.  Each chunk's first element carries the prefix
    before it, so every prefix is the same sequential sum as ``cumsum``'s,
    and the prefixes never decrease, so the first one above ``r`` lies in
    the first chunk whose last one is; ``len(weights)`` if none is."""
    carry = 0.0
    for lo in range(0, weights.shape[0], _CHUNK):
        prefix = weights[lo : lo + _CHUNK].copy()
        prefix[0] += carry
        np.cumsum(prefix, out=prefix)
        if prefix[-1] > r:
            return lo + int(np.searchsorted(prefix, r, side="right"))
        carry = prefix[-1]
    return weights.shape[0]


def _kmeanspp_seed(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: spread starts by squared-distance sampling.

    ``d2`` holds each row's cdist distance to its nearest center so far; for
    C > 1 each new center lowers it through ``_screened_minimum``, so
    ``d2``, every pick and every center are those of a full cdist pass.
    """
    n, c = vectors.shape
    centers = np.empty((k, c), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = vectors[first]
    if c == 1:
        # The values cdist would return for C = 1, without its call cost.
        def lower(d2, center):
            return np.minimum(d2, (vectors[:, 0] - center[0]) ** 2)
    else:
        norms = _row_norms(vectors)

        def lower(d2, center):
            return _screened_minimum(vectors, norms, d2, center)

    d2 = lower(np.full(n, np.inf), centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining mass sits on existing centers; duplicate uniformly.
            pick = int(rng.integers(n))
        else:
            pick = min(_prefix_search(d2, rng.random() * total), n - 1)
        centers[i] = vectors[pick]
        d2 = lower(d2, centers[i])
    return centers


def train_codebook(
    samples: np.ndarray,
    k: int,
    iterations: int = 25,
    seed: int = 0,
) -> tuple[Codebook, dict]:
    """Fit K codewords by Lloyd iteration from a k-means++ start.

    Each pass assigns every sample to its nearest codeword and moves each
    codeword to the exact mean of the samples assigned to it, so the
    training MSE measured at each assignment never increases.  A codeword
    with no samples assigned is reseeded onto a random training vector;
    since it held no samples, the reseed detaches none, which preserves
    the monotone-MSE property.

    Returns the codebook and a report with the per-iteration MSE trace and
    the final pass's ``labels``, the nearest codeword of every sample (what
    ``nn_quantize(codebook, samples)`` returns).
    """
    x = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"samples must be (n, C), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    n, c = x.shape
    if k < 1 or n < k:
        raise ValueError(f"need at least K={k} samples, got {n}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = rng_for(seed, stream=1)

    centers = _kmeanspp_seed(x, k, rng)
    init_codebook = Codebook(codewords=centers.copy())
    mse_trace = []
    columns = np.ascontiguousarray(x.T)
    if c == 1:
        order = np.argsort(columns[0])
        ranked = (order, columns[0][order])
    else:
        ranked = None

    for _ in range(iterations):
        labels, dist = _nearest(x, centers, _build_search_table(centers), ranked)
        mse_trace.append(_chunked_sum(dist) / (n * c))

        counts = np.bincount(labels, minlength=k).astype(np.float64)
        # bincount adds each column in row order: a fixed summation order.
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in columns])

        centers = sums / np.maximum(counts, 1.0)[:, None]
        dead = counts == 0
        if dead.any():
            centers[dead] = x[rng.integers(n, size=int(dead.sum()))]

    # Final assignment pass so the reported MSE matches the returned centers.
    labels, dist = _nearest(x, centers, _build_search_table(centers), ranked)
    mse_trace.append(_chunked_sum(dist) / (n * c))

    report = {
        "mse_trace": mse_trace,
        "final_mse": mse_trace[-1],
        "init_codebook": init_codebook,
        "labels": labels,
    }
    return Codebook(codewords=centers), report


def train_rvq(
    samples: np.ndarray,
    stage_sizes: tuple[int, ...] | list[int],
    iterations: int = 25,
    seed: int = 0,
    return_indices: bool = False,
) -> ResidualVQ | tuple[ResidualVQ, IndexStack]:
    """Train residual stages on successive residuals.

    Each stage with ``K_t >= 2`` fits all of its codewords to the residual
    left by the stages before it, so its indices carry close to log2 K_t
    bits.  Adding a stage can raise the error of a single vector, so
    held-out MSE is non-increasing in the decoded stage count only on
    average, as measured rather than guaranteed.  ``K_t = 1`` is the zero
    codeword alone, a stage that transmits nothing, so per-group rate
    allocations can assign zero bits to a group.

    With ``return_indices`` the per-stage indices of the samples, equal to
    ``rvq_quantize(rvq, samples, rvq.stages)[0]``, are returned as well.
    """
    x = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"samples must be (n, C), got {x.shape}")
    if not stage_sizes:
        raise ValueError("at least one stage size required")
    residual = x.copy()
    books = []
    stage_indices = []
    for t, k in enumerate(stage_sizes):
        if k < 1:
            raise ValueError("stage sizes must be >= 1")
        if not np.all(np.isfinite(residual)):
            raise ValueError("samples must be finite")
        if k == 1:
            cb = Codebook(np.zeros((1, x.shape[1])))
            idx = np.zeros(x.shape[0], dtype=np.int64)
        else:
            cb, report = train_codebook(residual, int(k), iterations=iterations, seed=seed + t)
            idx = report["labels"]
        residual = residual - cb.codewords[idx]
        books.append(cb)
        stage_indices.append(idx)
    rvq = ResidualVQ(stage_codebooks=tuple(books))
    if return_indices:
        return rvq, IndexStack(indices=tuple(stage_indices))
    return rvq


def write_codebook_file(path, rvq: ResidualVQ) -> None:
    """Serialize stages: magic, version, stage count, then (K, C, float32 data)."""
    with open(path, "wb") as f:
        f.write(_CODEBOOK_MAGIC)
        f.write(struct.pack("<BI", _CODEBOOK_VERSION, rvq.stages))
        for cb in rvq.stage_codebooks:
            f.write(struct.pack("<II", cb.size, cb.dim))
            f.write(cb.codewords.astype("<f4").tobytes(order="C"))


def read_codebook_file(path) -> ResidualVQ:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 9 or raw[:4] != _CODEBOOK_MAGIC:
        raise ValueError(f"{path}: not a codebook file (bad magic)")
    version, stages = struct.unpack("<BI", raw[4:9])
    if version != _CODEBOOK_VERSION:
        raise ValueError(f"{path}: unsupported codebook version {version}")
    off = 9
    books = []
    for _ in range(stages):
        if off + 8 > len(raw):
            raise ValueError(f"{path}: truncated stage header")
        k, c = struct.unpack("<II", raw[off : off + 8])
        off += 8
        nbytes = 4 * k * c
        if off + nbytes > len(raw):
            raise ValueError(f"{path}: truncated stage payload")
        cw = np.frombuffer(raw[off : off + nbytes], dtype="<f4").reshape(k, c)
        off += nbytes
        books.append(Codebook(codewords=cw.astype(np.float64)))
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return ResidualVQ(stage_codebooks=tuple(books))
