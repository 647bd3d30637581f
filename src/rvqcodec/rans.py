"""rANS coder over per-symbol ``(freq, cum)`` integer arrays.

The coder keeps a 32-bit state with lower bound 2**16 and renormalizes one
byte at a time.  Symbols are pushed in reverse order so the decoder pops
them first-in-first-out; the serialized stream is a little-endian 32-bit
symbol count, the 32-bit final state, then the renormalization bytes in
decoder reading order.

A table is a row of integer frequencies summing to ``2**precision`` with
every symbol at frequency >= 1, plus its exclusive prefix sums ``cum``.
``_encode_core`` takes each symbol's ``freq[s]`` and ``cum[s]`` as two
parallel lists.  ``_decode_core`` takes distinct rows and one row index per
symbol, each row restricted to a window ``[lo, hi)`` of symbols outside of
which every frequency is 1.  ``gaussian_table_batch`` builds such rows for
a rounded Gaussian.  It uses a pinned complementary-error-function
implementation (power series below 1.5, Laplace continued fraction above,
both at fixed iteration counts) rather than the platform libm, keeping the
integer tables reproducible across machines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RansStream",
    "RANS_LOWER_BOUND",
    "gaussian_cdf",
    "gaussian_table_batch",
]

RANS_LOWER_BOUND = 1 << 16
_MIN_PRECISION = 8
_MAX_PRECISION = 16


@dataclass(frozen=True)
class RansStream:
    """One coded symbol sequence: count, final state, renorm payload."""

    count: int
    state: int
    payload: bytes

    def to_bytes(self) -> bytes:
        return struct.pack("<II", self.count, self.state) + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RansStream":
        if len(raw) < 8:
            raise ValueError("stream shorter than its 8-byte header")
        count, state = struct.unpack("<II", raw[:8])
        return cls(count=count, state=state, payload=raw[8:])

    @property
    def bits(self) -> int:
        """Coded size in bits: payload plus the 32-bit state."""
        return 8 * len(self.payload) + 32


def _largest_remainder(target: np.ndarray, budget: int, outside: int = 0) -> np.ndarray:
    """Round each row of non-negative ``target`` masses onto ``budget``.

    Floors every entry, hands the shortfall to the largest fractional parts
    (ties to the lowest column), then promotes entries at zero to 1 and
    takes the promoted mass back from the largest bin (the first of equal
    ones), moving to the next largest when a bin reaches 1.

    ``outside`` counts further zero-mass bins per row that ``target`` leaves
    out; they end at 1 and their mass is taken back the same way.  This
    equals rounding the full row whenever each row of ``target`` sums to
    ``budget`` within less than one unit: the shortfall then never exceeds
    the number of positive fractions, so no remainder unit goes to a bin
    with zero mass, and mass is only taken back from bins above 1, none of
    which is outside.
    """
    n, w = target.shape
    freq = np.floor(target).astype(np.int64)
    remainder = budget - freq.sum(axis=1)
    frac = target - freq
    cols = np.broadcast_to(np.arange(w), (n, w))
    order = np.lexsort((cols, -frac), axis=1)
    take = cols < remainder[:, None]
    rows = np.broadcast_to(np.arange(n)[:, None], (n, w))
    freq[rows[take], order[take]] += 1

    zeros = freq == 0
    deficit = zeros.sum(axis=1) + outside
    freq[zeros] = 1
    # Rows whose largest bin covers the whole deficit repay it in one step.
    top = np.argmax(freq, axis=1)
    one_step = freq[np.arange(n), top] > deficit
    freq[one_step, top[one_step]] -= deficit[one_step]
    for i in np.flatnonzero(~one_step):
        d = int(deficit[i])
        row = freq[i]
        while d > 0:
            j = int(np.argmax(row))
            take_i = min(d, int(row[j]) - 1)
            if take_i <= 0:
                raise ValueError("cannot redistribute mass: all bins at minimum")
            row[j] -= take_i
            d -= take_i
    return freq


def _encode_core(freqs: list, cums: list, precision: int) -> tuple[int, bytes]:
    """Push (freq, cum) pairs in reverse; returns final state and payload."""
    lower = RANS_LOWER_BOUND
    renorm_unit = (lower >> precision) << 8
    x = lower
    emitted = bytearray()
    for f, c in zip(reversed(freqs), reversed(cums)):
        limit = renorm_unit * f
        while x >= limit:
            emitted.append(x & 0xFF)
            x >>= 8
        x = ((x // f) << precision) + (x % f) + c
    emitted.reverse()
    return x, bytes(emitted)


def _decode_core(
    stream: RansStream, freq_rows, cum_rows, row_of, lo: int, precision: int
) -> list[int]:
    """Pop one symbol per entry of ``row_of``, symbol ``i`` under row ``row_of[i]``.

    A row covers the symbol window ``[lo, hi)``: ``freq_rows[r]`` holds the
    frequencies of symbols ``lo .. hi-1`` and ``cum_rows[r]`` their
    cumulative frequencies ``cum[lo] .. cum[hi]``.  Every symbol outside the
    window must have frequency 1, so ``cum[s] = s`` below it and ``cum`` rises
    by 1 per symbol above it; those symbols decode without a table lookup.
    Full rows with ``lo = 0`` never leave the window.
    """
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
        if cf < cum[0]:
            s = cf
            x >>= precision
        elif cf < cum[-1]:
            j = bisect_right(cum, cf) - 1
            s = lo + j
            x = freq_rows[r][j] * (x >> precision) + cf - cum[j]
        else:
            s = lo + len(cum) - 1 + cf - cum[-1]
            x >>= precision
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


# ---------------------------------------------------------------------------
# Pinned Gaussian CDF.

_ERF_SERIES_CUTOFF = 1.5
_ERF_SERIES_TERMS = 48
_ERFC_CONTFRAC_DEPTH = 64
_ERFC_ZERO_CUTOFF = 30.0
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)


def _erf_series(x: np.ndarray) -> np.ndarray:
    """erf on |x| <= 1.5 via the Maclaurin-type series with exp damping."""
    x2 = x * x
    acc = np.zeros_like(x)
    term = np.full_like(x, 2.0)
    for k in range(_ERF_SERIES_TERMS):
        acc = acc + term
        term = term * (2.0 * x2 / (2.0 * k + 3.0))
    return x * np.exp(-x2) * _INV_SQRT_PI * acc


def _erfc_contfrac(x: np.ndarray) -> np.ndarray:
    """erfc on x >= 1.5 via the Laplace continued fraction, fixed depth."""
    b = x.copy()
    for k in range(_ERFC_CONTFRAC_DEPTH, 0, -1):
        b = x + (0.5 * k) / b
    out = np.exp(-x * x) * _INV_SQRT_PI / b
    return np.where(x >= _ERFC_ZERO_CUTOFF, 0.0, out)


def _erfc(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.empty_like(x)
    small = ax < _ERF_SERIES_CUTOFF
    if small.any():
        out[small] = 1.0 - _erf_series(x[small])
    big = ~small
    if big.any():
        tail = _erfc_contfrac(ax[big])
        out[big] = np.where(x[big] > 0, tail, 2.0 - tail)
    return out


def gaussian_cdf(t) -> np.ndarray:
    """Standard normal CDF from the pinned erfc; accurate to ~1e-14."""
    t = np.asarray(t, dtype=np.float64)
    return 0.5 * _erfc(-t / np.sqrt(2.0))


def gaussian_table_batch(
    mu_offset: np.ndarray,
    sigma: np.ndarray,
    delta: float,
    support_radius: int = 255,
    precision: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized table construction for one (mu_offset, sigma) pair per row.

    Returns ``(freqs, cums)`` with shapes (n, 2S+1) and (n, 2S+2); row ``i``
    equals the one-row call on ``(mu_offset[i], sigma[i])``.  Symbol ``s``
    is the integer offset ``k = s - S``; its mass is the Gaussian CDF
    increment over [k-0.5, k+0.5) scaled by delta/sigma, with the tails
    beyond +-S folded into the edge bins.  Bin masses outside an active
    window of ``8*max(sigma)/delta + max|mu_offset| + 2`` bins around zero
    are exact zeros by construction of the folded CDF, and such bins always
    end at frequency 1.  So the CDF, the scaling, the largest-remainder
    rounding and the deficit loop run on the window columns only (see
    ``_largest_remainder`` for why that equals rounding the full row: the
    scaled masses sum to ``2**precision`` up to float rounding).  Each row's total mass is still summed over the full
    zero-padded row, which keeps numpy's pairwise-summation order and hence
    every table bit-identical to the full-width computation.
    """
    mu_offset = np.asarray(mu_offset, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if mu_offset.shape != sigma.shape:
        raise ValueError("mu_offset and sigma must have matching shapes")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma entries must be positive and finite")
    if delta <= 0.0 or not np.isfinite(delta):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if support_radius < 1:
        raise ValueError("support radius must be >= 1")
    if not _MIN_PRECISION <= precision <= _MAX_PRECISION:
        raise ValueError(f"precision must be in [8, 16], got {precision}")
    n = sigma.shape[0]
    size = 2 * support_radius + 1
    budget = 1 << precision
    if size > budget:
        raise ValueError(f"support {size} exceeds 2**precision = {budget}")

    # Active window (shared across rows): bins that can hold visible mass.
    reach = 8.0 * sigma.max() / delta + np.abs(mu_offset).max() + 2.0
    half = int(min(support_radius, np.ceil(reach)))
    width = 2 * half + 1
    # width - 1 cut points at k + 0.5 for k = -half .. half-1; the mass
    # outside the outermost cuts folds into the window's edge bins.
    edges_k = np.arange(-half, half, dtype=np.float64) + 0.5
    z = (edges_k[None, :] - mu_offset[:, None]) * (delta / sigma[:, None])
    cdf = gaussian_cdf(z)
    window = np.empty((n, width), dtype=np.float64)
    window[:, 0] = cdf[:, 0]
    window[:, 1:-1] = np.diff(cdf, axis=1)
    window[:, -1] = 1.0 - cdf[:, -1]
    np.clip(window, 0.0, None, out=window)

    lo = support_radius - half
    padded = np.zeros((n, size), dtype=np.float64)
    padded[:, lo : lo + width] = window
    totals = padded.sum(axis=1)
    target = window * (budget / totals)[:, None]

    freq = np.ones((n, size), dtype=np.int64)
    freq[:, lo : lo + width] = _largest_remainder(target, budget, size - width)

    cums = np.zeros((n, size + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cums[:, 1:])
    return freq, cums
