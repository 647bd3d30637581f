"""rANS coder over per-symbol ``(freq, cum)`` integer arrays.

The coder keeps a 32-bit state with lower bound 2**16 and renormalizes one
byte at a time.  Symbols are pushed in reverse order so the decoder pops
them first-in-first-out; the serialized stream is a little-endian 32-bit
symbol count, the 32-bit final state, then the renormalization bytes in
decoder reading order.

A table is a row of integer frequencies summing to ``2**precision`` with
every symbol at frequency >= 1, plus its exclusive prefix sums ``cum``.
``_encode_core`` takes each symbol's ``freq[s]`` and ``cum[s]`` as two
parallel lists.  ``_decode_core`` takes distinct full rows, as
``decode_rows`` builds them, and one row index per symbol.

The decoder finds a symbol from its slot by lookup, as table-driven rANS
decoders do: ``decode_rows`` gives each row a 256-entry start row whose
entry ``b`` is the symbol holding slot ``b << (precision - 8)``.  That
symbol starts at or below every slot of bucket ``b``, so it is the answer
whenever it also ends above the slot; only slots past its end, in buckets
that several symbols share, fall back to a bisect over the row's ``cum``.

``gaussian_table_batch`` builds such rows for a zero-mean rounded Gaussian.
It uses a pinned complementary-error-function implementation (power series
below 1.5, Laplace continued fraction above) rather than the platform libm
erfc, keeping the integer tables reproducible across machines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RansStream",
    "RANS_LOWER_BOUND",
    "decode_rows",
    "gaussian_cdf",
    "gaussian_table_batch",
]

RANS_LOWER_BOUND = 1 << 16
_MIN_PRECISION = 8
_MAX_PRECISION = 16
# Start rows have 2**_START_BITS entries: a full slot table at precision 8.
_START_BITS = 8


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


def _largest_remainder(target: np.ndarray, budget: int) -> np.ndarray:
    """Round each row of non-negative ``target`` masses onto ``budget``.

    Floors every entry, hands the shortfall to the largest fractional parts
    (ties to the lowest column), then promotes entries at zero to 1 and
    takes the promoted mass back from the largest bin (the first of equal
    ones), moving to the next largest when a bin reaches 1.
    """
    n, w = target.shape
    freq = np.floor(target).astype(np.int64)
    remainder = budget - freq.sum(axis=1)
    frac = target - freq
    order = np.argsort(-frac, axis=1, kind="stable")
    take = np.arange(w) < remainder[:, None]
    order += np.arange(0, n * w, w)[:, None]
    freq.ravel()[order[take]] += 1

    zeros = freq == 0
    deficit = zeros.sum(axis=1)
    freq[zeros] = 1
    for i in np.flatnonzero(deficit):
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


def decode_rows(freq: np.ndarray, cum: np.ndarray, precision: int) -> tuple[tuple, tuple, tuple]:
    """The ``(freq_rows, cum_rows, start_rows)`` tuples of Python ints that
    ``_decode_core`` takes, from ``(n, K)`` frequencies and their ``(n, K+1)``
    exclusive prefix sums.

    Entry ``b`` of a start row is the symbol ``s`` with
    ``cum[s] <= b << (precision - 8) < cum[s + 1]``.
    """
    slots = np.arange(1 << _START_BITS, dtype=np.int64) << (precision - _START_BITS)
    start = [np.searchsorted(row, slots, side="right") - 1 for row in cum]
    return (
        tuple(map(tuple, freq.tolist())),
        tuple(map(tuple, cum.tolist())),
        tuple(tuple(row.tolist()) for row in start),
    )


def _decode_core(stream: RansStream, tables, row_of, precision: int) -> list[int]:
    """Pop one symbol per entry of ``row_of``, symbol ``i`` under row ``row_of[i]``.

    ``tables`` is ``decode_rows``' ``(freq_rows, cum_rows, start_rows)``:
    ``freq_rows[r]`` holds the frequency of every symbol, ``cum_rows[r]``
    their exclusive prefix sums ``0 .. 2**precision``, and ``start_rows[r]``
    the symbol at the start of each of 256 slot buckets.
    """
    from bisect import bisect_right

    if len(row_of) != stream.count:
        raise ValueError(f"{len(row_of)} table rows for {stream.count} symbols")

    freq_rows, cum_rows, start_rows = tables
    lower = RANS_LOWER_BOUND
    mask = (1 << precision) - 1
    shift = precision - _START_BITS
    x = stream.state
    payload = stream.payload
    pos = 0
    end = len(payload)
    out = []
    for r in row_of:
        cf = x & mask
        cum = cum_rows[r]
        s = start_rows[r][cf >> shift]
        if cum[s + 1] <= cf:
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


# ---------------------------------------------------------------------------
# Pinned Gaussian CDF.

_ERF_SERIES_CUTOFF = 1.5
_ERF_SERIES_TERMS = 48
_ERFC_CONTFRAC_DEPTH = 64
_ERFC_ZERO_CUTOFF = 30.0
_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc on signed ``x``, every element through every term.

    Below |x| = 1.5 it is 1 - erf from the 48-term Maclaurin-type series
    with exp damping; above, the depth-64 Laplace continued fraction on |x|,
    0 from |x| = 30, and 2 - erfc(-x) for negative x.
    """
    ax = np.abs(x)
    out = np.empty_like(x)
    small = ax < _ERF_SERIES_CUTOFF
    xs = x[small]
    x2 = xs * xs
    two_x2 = 2.0 * x2
    acc = np.zeros_like(xs)
    term = np.full_like(xs, 2.0)
    for k in range(_ERF_SERIES_TERMS):
        acc += term
        term *= two_x2 / (2.0 * k + 3.0)
    out[small] = 1.0 - xs * np.exp(-x2) * _INV_SQRT_PI * acc

    xb = ax[~small]
    b = xb.copy()
    for k in range(_ERFC_CONTFRAC_DEPTH, 0, -1):
        b = xb + (0.5 * k) / b
    tail = np.exp(-xb * xb) * _INV_SQRT_PI / b
    tail[xb >= _ERFC_ZERO_CUTOFF] = 0.0
    out[~small] = np.where(x[~small] > 0, tail, 2.0 - tail)
    return out


def gaussian_cdf(t) -> np.ndarray:
    """Standard normal CDF 0.5 * erfc(-t / sqrt(2)) from the pinned erfc;
    accurate to ~1e-14."""
    return 0.5 * _erfc(-np.asarray(t, dtype=np.float64) / np.sqrt(2.0))


def gaussian_table_batch(
    sigma: np.ndarray,
    delta: float,
    support_radius: int = 255,
    precision: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Tables of a zero-mean Gaussian rounded to ``delta``, one per sigma.

    Symbol ``s`` is the integer offset ``k = s - S`` (``S`` the support
    radius); its mass is the Gaussian CDF increment over [k-0.5, k+0.5)
    scaled by delta/sigma, with the tails beyond +-S folded into the edge
    bins.  Returns ``(freqs, cums)`` with shapes (n, 2S+1) and (n, 2S+2):
    full rows, the ones ``decode_rows`` turns into ``_decode_core``'s.
    """
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
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

    # The mass outside the outermost cuts folds into the edge bins.
    edges = np.arange(-support_radius, support_radius, dtype=np.float64) + 0.5
    cdf = gaussian_cdf(edges[None, :] * (delta / sigma[:, None]))
    masses = np.empty((n, size), dtype=np.float64)
    masses[:, 0] = cdf[:, 0]
    np.subtract(cdf[:, 1:], cdf[:, :-1], out=masses[:, 1:-1])
    np.subtract(1.0, cdf[:, -1], out=masses[:, -1])
    np.maximum(masses, 0.0, out=masses)
    masses *= (budget / masses.sum(axis=1))[:, None]
    freq = _largest_remainder(masses, budget)

    cums = np.zeros((n, size + 1), dtype=np.int64)
    np.cumsum(freq, axis=1, out=cums[:, 1:])
    return freq, cums
