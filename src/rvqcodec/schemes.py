"""The three coding schemes: decorrelated fixed-length (RD), independent
fixed-length (IQ), and entropy-coded scalar quantization (CM).

RD codes the four phase groups sequentially, each held as the ``(n, C)``
rows that ``grids.partition_quadtree`` hands out.  For group i the context
``psi_i`` is the channel concatenation of the already-decoded groups at the
co-located position, the nearest-neighbor-upsampled hyper grid ``phi`` when
enabled, and a bias; ``phi`` comes from the transmitted hyper indices
through ``_phi_rows`` alone, on the encoder, the decoder and in training.
A per-group affine head predicts (mu, log sigma) per position; the group is
standardized as (y - mu)/sigma, residual-quantized, and decoded back
through the same affine map.  The decoder runs the exact same loop on the
transmitted indices, so encoder and decoder reconstructions are
bit-identical: prediction uses an explicit fixed-order accumulation rather
than BLAS (channel-major, one whole-row update per context dimension in
cache-sized blocks, ``_predict_with``), and quantizer decisions have
positive margin almost surely, which is what makes the fixed-length path
robust where entropy-coded pipelines desynchronize on last-ulp drift.
The CM path codes under a fixed scale table instead: 64 sigma levels per
delta whose integer tables are built once, from the pinned erfc, and a
predicted sigma snaps to its level by comparisons alone.  It keeps one
libm dependence, the ``np.exp`` of the predicted sigma (and the erfc's own
``np.exp`` at build time, whose tables are pinned by golden digests): a
last-ulp difference between CPUs moves a symbol's table only when its
sigma sits on a level boundary.

IQ, the ablation anchor, is the same encode and decode loop run with no
predictor: each group is residual-quantized as it stands, with no context,
no prediction and no affine map.  Both charge the fixed-length rate of
``bitstream.fixed_length_bits``, which reads the stream layout ``pack``
writes.  CM replaces the vector quantizer with uniform scalar rounding plus
a conditional-Gaussian range coder: the same predictor interface without a
hyper grid, rate paid in actual coded bits.

An rd or iq model ships as one EFMD file (``write_model_file``): one
header for the scheme, C, the hyper flag and the stage count, then every
codebook and, for rd, the predictor's maps, all as float64.  A model read
back is bit-identical to the one trained and measured in memory.  cm has
no model file yet.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitstream import fixed_length_bits
from .grids import (
    HYPER_BLOCK,
    LatentGrid,
    block_means,
    extract_hyper_context,
    merge_groups,
    partition_quadtree,
)
from .quantizers import (
    Codebook,
    IndexStack,
    QuantizerSet,
    ResidualVQ,
    rvq_quantize,
    train_rvq,
)
from .rans import RansStream, decode_rows, gaussian_table_batch, _decode_core, _encode_core
from .timing import PhaseTimer

__all__ = [
    "SIGMA_FLOOR",
    "CM_SUPPORT_RADIUS",
    "CM_PRECISION",
    "ContextPredictor",
    "SchemeConfig",
    "CodedLatent",
    "rd_encode",
    "rd_decode",
    "iq_encode",
    "iq_decode",
    "cm_encode",
    "cm_decode",
    "train_rd_model",
    "train_iq_model",
    "train_cm_model",
    "write_model_file",
    "read_model_file",
]

SIGMA_FLOOR = 1e-3
CM_SUPPORT_RADIUS = 255
# Frequency precision of cm's rANS tables, in bits.
CM_PRECISION = 16

# cm's scale table: 64 sigma levels from SIGMA_FLOOR up by a ratio of 1.19
# (top about 57.5), made by repeated float multiplication, and the
# geometric midpoints between neighbours.  A predicted sigma snaps to the
# level nearest it on a log scale by comparisons against the midpoints
# alone, so the snap calls no libm function.
_CM_LEVELS = np.multiply.accumulate(np.r_[SIGMA_FLOOR, np.full(63, 1.19)])
_CM_BOUNDS = np.sqrt(_CM_LEVELS[:-1] * _CM_LEVELS[1:])

# (gamma + ln 2)/2: log sigma less E[log|r|] for a Gaussian r of scale sigma.
_LOG_ABS_OFFSET = 0.5 * (np.euler_gamma + np.log(2.0))
# Output elements per block of ``_predict_with``'s channel-major (2C, n)
# accumulator: 2,048 rows at C = 16 and 32,768 at C = 1, so that a block's
# context and output (1.5 MB at C = 16 with 64 context dimensions) stay in
# a 2 MB L2.  Summed over 16-64 context dimensions on 22,528 rows at
# C = 16 (vector-hyper's stacked fit), against 2**16, 2**17 took 1.22x the
# time (2**16 won 14 of 15 alternating rounds), 2**15 1.07x, 2**18 1.63x
# and 2**13 1.8x.  On vector-hyper's 1,024-row groups 2**13 and 2**14 took
# 2.3x and 1.4x the time of one block, which every size from 2**15 up
# gives.  C = 1 read the same at every size from 2**13 to 2**18 (256 to
# 32,768 rows).
_PREDICT_BLOCK = 2**16
# ufunc buffer size, in elements, in effect inside the loop: see
# ``_predict_with``.  A multiple of 16, which numpy 1.x requires.
_PREDICT_BUFSIZE = 64
# L2 penalty of every ridge fit (``_ridge_fit``).
_RIDGE_LAMBDA = 1e-3
_MODEL_MAGIC = b"EFMD"
_MODEL_VERSION = 1
# magic, version, scheme, C, hyper flag, stage count S
_MODEL_HEADER = struct.Struct("<4sBBIBB")


def _context_dims(c: int, uses_hyper: bool) -> list[int]:
    """Context dimensions of groups 1-4: C per previously decoded group, then
    C for phi when the hyper grid is used."""
    return [c * (i + uses_hyper) for i in range(4)]


@dataclass(frozen=True)
class ContextPredictor:
    """Per-group affine maps from flattened context to (mu, log sigma).

    A predictor is its weights: ``weights[i]`` has shape (d_i, 2C) and
    ``biases[i]`` shape (2C,), the first C output columns mu and the last C
    log sigma, and the shapes imply the rest.  ``channels`` is C, half the
    length of a bias; ``uses_hyper`` says group 1 has C weight rows (phi)
    rather than 0 (the bias alone).  Group i then sees d_i = C * (i + 1)
    context dimensions with the hyper grid and C * i without
    (``_context_dims``).  Predicted sigma is floored at ``SIGMA_FLOOR``.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    channels: int = field(init=False)
    uses_hyper: bool = field(init=False)

    def __post_init__(self):
        if len(self.weights) != 4 or len(self.biases) != 4:
            raise ValueError("predictor needs maps for exactly four groups")
        ws = [np.ascontiguousarray(np.asarray(w, dtype=np.float64)) for w in self.weights]
        bs = [np.ascontiguousarray(np.asarray(b, dtype=np.float64)) for b in self.biases]
        c = bs[0].size // 2
        if c < 1:
            raise ValueError(f"group 1 bias shape {bs[0].shape} is not (2C,) for a C >= 1")
        uses_hyper = ws[0].size > 0
        for i, (w, b, d) in enumerate(zip(ws, bs, _context_dims(c, uses_hyper))):
            if w.shape != (d, 2 * c):
                raise ValueError(f"group {i + 1} weight shape {w.shape} != ({d}, {2 * c})")
            if b.shape != (2 * c,):
                raise ValueError(f"group {i + 1} bias shape {b.shape} != ({2 * c},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"group {i + 1} weights and bias must be finite")
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))
        object.__setattr__(self, "channels", c)
        object.__setattr__(self, "uses_hyper", uses_hyper)

    def predict(self, group: int, context: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, sigma) per position, each (n, C); sigma is floored.

        The matrix product is an explicit loop over context dimensions so
        the summation order is fixed on every platform: each output element
        adds ``context[r, d] * w[d, k]`` to its bias in order d = 0, 1, ...
        The loop runs channel-major on a ``(2C, n)`` accumulator, a whole
        row per dimension, in blocks of ``_PREDICT_BLOCK`` elements
        (``_predict_with``); ``context`` may have any memory layout.  It
        runs with numpy's ufunc buffer at ``_PREDICT_BUFSIZE`` elements,
        which keeps the broadcast product of short rows (vector-hyper's
        1,024-row groups) off numpy's buffered path, about 2x faster there;
        the caller's buffer size is restored and no bit depends on it.
        """
        w = self.weights[group]
        if context.shape != (context.shape[0], w.shape[0]):
            raise ValueError(f"context shape {context.shape} != (n, {w.shape[0]})")
        return _predict_with(w, self.biases[group], self.channels, context)


def _check_cm_delta(delta) -> None:
    if delta is None or not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"cm requires a finite delta > 0, got {delta}")


@dataclass(frozen=True)
class SchemeConfig:
    """Operating point of one scheme: stage count m (rd, iq) or step delta (cm)."""

    scheme: str
    m: int | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.scheme not in ("rd", "iq", "cm"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "cm":
            _check_cm_delta(self.delta)
        elif self.m is not None and self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True)
class CodedLatent:
    """Everything one encode produced: indices or coded bytes, plus the
    reconstruction and the measured rate in bits."""

    scheme: str
    shape: tuple[int, int, int]
    reconstruction: LatentGrid
    rate_bits: float
    m: int | None = None
    delta: float | None = None
    group_stacks: tuple[IndexStack, ...] | None = None
    group_streams: tuple[RansStream, ...] | None = None
    hyper_stack: IndexStack | None = None
    clamp_count: int = 0
    self_information_bits: float | None = None


def _phi_rows(hyper: ResidualVQ, stack: IndexStack, shape: tuple[int, int, int]) -> np.ndarray:
    """The decoded hyper grid of a ``shape`` latent, nearest-neighbor
    upsampled to group rows: the one path from hyper indices to context."""
    c, h, w = shape
    hh, hw = h // HYPER_BLOCK, w // HYPER_BLOCK
    if stack.count != hh * hw:
        raise ValueError(f"hyper stack has {stack.count} entries, expected {hh * hw}")
    z = _rvq_reconstruct(hyper, stack).reshape(hh, hw, c)
    return np.repeat(np.repeat(z, 2, axis=0), 2, axis=1).reshape(-1, c)


def _context_for(group: int, decoded: list[np.ndarray], phi, n: int) -> np.ndarray:
    """Context rows for one group: decoded groups in coding order, then phi."""
    parts = decoded[:group]
    if phi is not None:
        parts = parts + [phi]
    if not parts:
        return np.empty((n, 0), dtype=np.float64)
    return np.concatenate(parts, axis=1)


def _check_geometry(shape: tuple[int, int, int], use_hyper: bool) -> None:
    _, h, w = shape
    mult = 4 if use_hyper else 2
    if h % mult or w % mult:
        raise ValueError(
            f"latent {h}x{w} must be a multiple of {mult}:"
            f" 2 for the four phase groups, 4 with a hyper grid of 4x4 blocks"
        )


def _check_corpus(latents: list[LatentGrid], use_hyper: bool) -> None:
    """A training corpus is non-empty, of one channel count, and every
    latent is of a codable shape."""
    if not latents:
        raise ValueError("no training latents")
    c = latents[0].channels
    for lat in latents:
        if lat.channels != c:
            raise ValueError(
                f"training latents must share a channel count, got {c} and {lat.channels}"
            )
        _check_geometry(lat.shape, use_hyper)


def _check_hyper(predictor: ContextPredictor | None, qset: QuantizerSet) -> bool:
    """Whether the coding loop runs a hyper grid: only if the predictor uses
    one (iq has none), and the quantizer set has one exactly then."""
    uses_hyper = predictor is not None and predictor.uses_hyper
    if uses_hyper and qset.hyper is None:
        raise ValueError("predictor uses a hyper grid but quantizer set has none")
    if not uses_hyper and qset.hyper is not None:
        taker = "iq" if predictor is None else "the predictor"
        raise ValueError(f"quantizer set has a hyper quantizer but {taker} takes no hyper grid")
    return uses_hyper


def _encode_fixed(
    latent: LatentGrid,
    predictor: ContextPredictor | None,
    qset: QuantizerSet,
    m: int,
    timer: PhaseTimer | None,
) -> CodedLatent:
    """The rd encode loop; with no predictor it is iq and skips context,
    prediction and the affine map."""
    if not 1 <= m <= qset.stages:
        raise ValueError(f"m={m} outside [1, {qset.stages}]")
    if predictor is not None and latent.channels != predictor.channels:
        raise ValueError(
            f"latent has {latent.channels} channels, predictor {predictor.channels}"
        )
    uses_hyper = _check_hyper(predictor, qset)
    _check_geometry(latent.shape, uses_hyper)
    timer = timer or PhaseTimer()

    hyper_stack = phi = None
    if uses_hyper:
        hyper_stack = extract_hyper_context(latent, qset.hyper, m=m)
        phi = _phi_rows(qset.hyper, hyper_stack, latent.shape)
    groups = partition_quadtree(latent)
    n = groups[0].shape[0]

    decoded: list[np.ndarray] = []
    stacks: list[IndexStack] = []
    for i, y in enumerate(groups):
        if predictor is not None:
            with timer.phase("autoregressive"):
                psi = _context_for(i, decoded, phi, n)
                mu, sigma = predictor.predict(i, psi)
        with timer.phase("quantize"):
            if predictor is not None:
                y = (y - mu) / sigma
            stack, rec = rvq_quantize(qset.groups[i], y, m)
        decoded.append(rec if predictor is None else sigma * rec + mu)
        stacks.append(stack)

    return CodedLatent(
        scheme="iq" if predictor is None else "rd",
        shape=latent.shape,
        reconstruction=merge_groups(decoded, latent.shape),
        rate_bits=fixed_length_bits(qset, m, latent.shape),
        m=m,
        group_stacks=tuple(stacks),
        hyper_stack=hyper_stack,
    )


def _decode_fixed(
    coded: CodedLatent,
    predictor: ContextPredictor | None,
    qset: QuantizerSet,
    timer: PhaseTimer | None,
) -> LatentGrid:
    """The rd decode loop, bit-exact with ``_encode_fixed``; with no
    predictor it is iq."""
    scheme = "iq" if predictor is None else "rd"
    if coded.scheme != scheme:
        raise ValueError(f"expected an {scheme}-coded latent, got {coded.scheme!r}")
    if coded.group_stacks is None:
        raise ValueError("coded latent carries no index stacks")
    if len(coded.group_stacks) != 4:
        raise ValueError(
            f"coded latent carries {len(coded.group_stacks)} index stacks, expected 4"
        )
    m = coded.m
    if m is None or not 1 <= m <= qset.stages:
        raise ValueError(f"coded m={m} outside [1, {qset.stages}]")
    for s in coded.group_stacks:
        if s.stages != m:
            raise ValueError(f"stack has {s.stages} stages, coded m={m}")
    uses_hyper = _check_hyper(predictor, qset)
    _check_geometry(coded.shape, uses_hyper)
    timer = timer or PhaseTimer()
    c, h, w = coded.shape
    n = (h // 2) * (w // 2)

    phi = None
    if uses_hyper:
        if coded.hyper_stack is None:
            raise ValueError("coded latent carries no hyper indices")
        if coded.hyper_stack.stages != m:
            raise ValueError(f"hyper stack has {coded.hyper_stack.stages} stages, coded m={m}")
        phi = _phi_rows(qset.hyper, coded.hyper_stack, coded.shape)

    decoded: list[np.ndarray] = []
    for i, stack in enumerate(coded.group_stacks):
        if stack.count != n:
            raise ValueError(f"group {i + 1} stack has {stack.count} entries, expected {n}")
        if predictor is not None:
            with timer.phase("autoregressive"):
                psi = _context_for(i, decoded, phi, n)
                mu, sigma = predictor.predict(i, psi)
        with timer.phase("quantize"):
            rec = _rvq_reconstruct(qset.groups[i], stack)
        decoded.append(rec if predictor is None else sigma * rec + mu)
    return merge_groups(decoded, coded.shape)


def rd_encode(
    latent: LatentGrid,
    predictor: ContextPredictor,
    qset: QuantizerSet,
    m: int,
    timer: PhaseTimer | None = None,
) -> CodedLatent:
    """Sequentially standardize and residual-quantize the four groups."""
    return _encode_fixed(latent, predictor, qset, m, timer)


def rd_decode(
    coded: CodedLatent,
    predictor: ContextPredictor,
    qset: QuantizerSet,
    timer: PhaseTimer | None = None,
) -> LatentGrid:
    """Rebuild the reconstruction from transmitted indices; bit-exact."""
    return _decode_fixed(coded, predictor, qset, timer)


def iq_encode(
    latent: LatentGrid, qset: QuantizerSet, m: int, timer: PhaseTimer | None = None
) -> CodedLatent:
    """Quantize each group independently: no context, no hyper grid."""
    return _encode_fixed(latent, None, qset, m, timer)


def iq_decode(coded: CodedLatent, qset: QuantizerSet, timer: PhaseTimer | None = None) -> LatentGrid:
    return _decode_fixed(coded, None, qset, timer)


def _rvq_reconstruct(rvq: ResidualVQ, stack: IndexStack) -> np.ndarray:
    """Sum stage codewords in stage order: the encoder's exact accumulation."""
    if stack.stages > rvq.stages:
        raise ValueError(f"stack has {stack.stages} stages, quantizer {rvq.stages}")
    rec = np.zeros((stack.count, rvq.dim), dtype=np.float64)
    for cb, idx in zip(rvq.stage_codebooks, stack.indices):
        if idx.size and idx.max() >= cb.size:
            raise ValueError(f"index {int(idx.max())} out of range for K={cb.size}")
        rec += cb.codewords[idx]
    return rec


# ---------------------------------------------------------------------------
# CM: uniform scalar quantization + conditional-Gaussian range coding.


@functools.lru_cache(maxsize=8)
def _cm_tables(delta: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Full ``(freq, cum)`` rows of every scale level at ``delta``, built once.

    Returns the rows as read-only arrays (the encoder's lookup) and as
    ``decode_rows``' tuples of Python ints (the decoder's): freq and cum
    rows plus each level's 256-entry start row, which finds a symbol from
    its slot by lookup, with a bisect of the cum row as the fallback.
    Every caller shares them.
    """
    freq, cum = gaussian_table_batch(
        _CM_LEVELS, delta, support_radius=CM_SUPPORT_RADIUS, precision=CM_PRECISION
    )
    freq.flags.writeable = False
    cum.flags.writeable = False
    return freq, cum, decode_rows(freq, cum, CM_PRECISION)


def _cm_rows(sigma: np.ndarray) -> np.ndarray:
    """Scale-table row of each sigma, in ravel order: the level ``r`` with
    ``_CM_BOUNDS[r-1] < sigma <= _CM_BOUNDS[r]``."""
    return np.searchsorted(_CM_BOUNDS, sigma.ravel())


def _check_cm_predictor(predictor: ContextPredictor) -> None:
    # train_cm_model fits no hyper heads; a hand-built predictor may have them.
    if predictor.uses_hyper:
        raise ValueError("cm predictors take no hyper grid; this one uses one")


def cm_encode(
    latent: LatentGrid,
    predictor: ContextPredictor,
    config: SchemeConfig,
    timer: PhaseTimer | None = None,
) -> CodedLatent:
    """Round (y - mu)/delta per element and range-code it conditionally.

    Symbols falling outside [-255, 255] are clamped before coding and
    counted; the reconstruction uses the clamped symbol on both sides.
    """
    if config.scheme != "cm":
        raise ValueError("config.scheme must be 'cm'")
    _check_cm_predictor(predictor)
    delta = float(config.delta)
    if latent.channels != predictor.channels:
        raise ValueError(
            f"latent has {latent.channels} channels, predictor {predictor.channels}"
        )
    _check_geometry(latent.shape, use_hyper=False)
    timer = timer or PhaseTimer()
    s_radius = CM_SUPPORT_RADIUS

    groups = partition_quadtree(latent)
    n = groups[0].shape[0]

    decoded: list[np.ndarray] = []
    streams: list[RansStream] = []
    clamps = 0
    self_info = 0.0
    for i, y in enumerate(groups):
        with timer.phase("autoregressive"):
            psi = _context_for(i, decoded, None, n)
            mu, sigma = predictor.predict(i, psi)
        with timer.phase("quantize"):
            k = np.rint((y - mu) / delta)
            clamps += int(np.count_nonzero(np.abs(k) > s_radius))
            np.clip(k, -s_radius, s_radius, out=k)
            k = k.astype(np.int64)
            decoded.append(mu + delta * k)
        with timer.phase("entropy_code"):
            with timer.phase("tables"):
                freq, cum, _ = _cm_tables(delta)
                rows = _cm_rows(sigma)
            syms = k.ravel() + s_radius
            f_sel, c_sel = freq[rows, syms], cum[rows, syms]
            state, payload = _encode_core(f_sel.tolist(), c_sel.tolist(), CM_PRECISION)
            streams.append(RansStream(count=syms.size, state=state, payload=payload))
            self_info += float((CM_PRECISION - np.log2(f_sel)).sum())

    return CodedLatent(
        scheme="cm",
        shape=latent.shape,
        reconstruction=merge_groups(decoded, latent.shape),
        rate_bits=float(sum(s.bits for s in streams)),
        delta=delta,
        group_streams=tuple(streams),
        clamp_count=clamps,
        self_information_bits=self_info,
    )


def cm_decode(
    coded: CodedLatent,
    predictor: ContextPredictor,
    config: SchemeConfig,
    timer: PhaseTimer | None = None,
) -> LatentGrid:
    """Predict sigma from decoded context, snap it to the scale table and
    range-decode each group under the snapped rows."""
    if coded.scheme != "cm" or config.scheme != "cm":
        raise ValueError("cm_decode needs a cm-coded latent and a cm config")
    if coded.group_streams is None:
        raise ValueError("coded latent carries no byte streams")
    if len(coded.group_streams) != 4:
        raise ValueError(
            f"coded latent carries {len(coded.group_streams)} byte streams, expected 4"
        )
    _check_geometry(coded.shape, use_hyper=False)
    _check_cm_predictor(predictor)
    delta = float(config.delta)
    if coded.delta is not None and coded.delta != delta:
        raise ValueError(f"coded delta {coded.delta} != config delta {delta}")
    timer = timer or PhaseTimer()
    s_radius = CM_SUPPORT_RADIUS

    c, h, w = coded.shape
    n = (h // 2) * (w // 2)

    decoded: list[np.ndarray] = []
    for i, stream in enumerate(coded.group_streams):
        with timer.phase("autoregressive"):
            psi = _context_for(i, decoded, None, n)
            mu, sigma = predictor.predict(i, psi)
        with timer.phase("entropy_code"):
            if stream.count != n * c:
                raise ValueError(
                    f"group {i + 1} stream holds {stream.count} symbols, expected {n * c}"
                )
            with timer.phase("tables"):
                _, _, tables = _cm_tables(delta)
                rows = _cm_rows(sigma)
            syms = _decode_core(stream, tables, rows.tolist(), CM_PRECISION)
        with timer.phase("quantize"):
            k = np.asarray(syms, dtype=np.int64).reshape(n, c) - s_radius
            decoded.append(mu + delta * k)
    return merge_groups(decoded, coded.shape)


# ---------------------------------------------------------------------------
# Fitting.


def _ridge_fit(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least squares with the L2 penalty ``_RIDGE_LAMBDA``; returns (d+1, k)
    with bias last.

    Normal equations are accumulated with non-BLAS einsum so refits are
    reproducible across platforms.
    """
    n = design.shape[0]
    a = np.concatenate([design, np.ones((n, 1))], axis=1)
    gram = np.einsum("nd,ne->de", a, a, optimize=False)
    gram[np.diag_indices_from(gram)] += _RIDGE_LAMBDA
    rhs = np.einsum("nd,nk->dk", a, targets, optimize=False)
    return np.linalg.solve(gram, rhs)


def _fit_group_heads(psi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit mu by ridge onto y, and log sigma by ridge onto log|residual|.

    For a Gaussian residual r of scale sigma, E[log|r|] = log sigma -
    (gamma + ln 2)/2, with gamma Euler's constant; so the log-sigma head is
    the ridge fit of ``0.5 * log(max(r^2, SIGMA_FLOOR^2)) + _LOG_ABS_OFFSET``
    on the same context, where r is the mu head's residual.  When r is
    Gaussian and its log scale is linear in the context, the expected
    target is that linear function wherever |r| seldom falls below the
    floor, so the fit recovers it; a homoscedastic source gives a constant
    head.
    """
    sol_mu = _ridge_fit(psi, y)
    resid = y - (psi @ sol_mu[:-1] + sol_mu[-1])
    targets = 0.5 * np.log(np.maximum(resid * resid, SIGMA_FLOOR**2)) + _LOG_ABS_OFFSET
    sol_sig = _ridge_fit(psi, targets)

    wmat = np.concatenate([sol_mu[:-1], sol_sig[:-1]], axis=1)
    bias = np.concatenate([sol_mu[-1], sol_sig[-1]])
    return wmat, bias


def _predict_with(w, b, c, psi):
    """(mu, sigma) of raw heads, each a C-contiguous (n, C) array with sigma
    floored at ``SIGMA_FLOOR``, for ``ContextPredictor.predict`` and the fit
    loop.

    The heads accumulate channel-major: a ``(2C, n)`` array starts at the
    bias, and context dimension d adds ``w[d][:, None] * context[d]`` in
    order d = 0, 1, ..., where ``context`` is a block of ``psi`` rows
    transposed to a C-contiguous ``(d, rows)`` array.  Each element sees
    ``fl(acc + fl(psi * w))`` in d order, the sequence of a row-major
    loop over ``(n, 2C)`` rows, so the layout changes no bit, and a C = 1
    update is whole-row work.  Rows go in blocks so that a block's context
    and output stay in cache across the loop over d; blocking is per
    element too.

    The loop runs with numpy's ufunc buffer set to ``_PREDICT_BUFSIZE``
    and restores the caller's size on the way out, also on an exception.
    At the default 8,192 elements, numpy 2.4 sends the broadcast product
    ``(2C, 1) * (rows,)`` through its buffered path when the rows are
    short: at 2C = 4 to 128 and 1,024 to 2,049 rows it ran at 0.9-1.3
    ns/elem, against 0.2-0.4 with a 64-element buffer, and from 3,000 rows
    both read the same.  vector-hyper's groups are 1,024 rows at C = 16,
    where one call at d = 16/32/48/64 took 0.79/1.63/2.43/3.15 ms at the
    default size and 0.42/0.75/1.09/1.59 ms at 64.  The buffer size
    changes no element's operations or their order, so no bit.
    ``np.errstate`` does not scope it on numpy 1.x, hence the explicit save
    and restore.  The scope stays this narrow because the loop has no
    reductions: a buffered reduction blocks its pairwise sum by the buffer
    size (``x[:, ::3].sum()`` on a (300, 1000) array gives other bits at
    64 than at 8,192), so a scope over the quantizers' or rANS code could
    move bytes.

    ``exp`` runs on contiguous log-sigma rows; numpy 2.4's AVX-512 ``exp``
    gives the same bytes on them as on a strided column (4 million values
    and every golden latent), but ``exp`` itself is not yet pinned across
    CPUs."""
    n = psi.shape[0]
    out = np.empty((w.shape[1], n))
    out[:] = b[:, None]
    rows = max(1, _PREDICT_BLOCK // out.shape[0])
    old = np.setbufsize(_PREDICT_BUFSIZE)
    try:
        for lo in range(0, n, rows):
            block = out[:, lo : lo + rows]
            context = np.ascontiguousarray(psi[lo : lo + rows].T)
            for d in range(w.shape[0]):
                block += w[d][:, None] * context[d]
    finally:
        np.setbufsize(old)
    sigma = np.maximum(np.exp(out[c:]), SIGMA_FLOOR)
    return np.ascontiguousarray(out[:c].T), np.ascontiguousarray(sigma.T)


def _run_sequential_fit(latents, phi, close_group):
    """Fit the four heads in coding order, each on context decoded through
    ``close_group(i, mu, sigma, y)``, which gets group i's rows of every
    latent at once; ``phi`` holds the stacked hyper context rows, or None.
    Prediction and closing act row by row, so one call on the stacked
    latents equals one call per latent."""
    c = latents[0].channels
    grouped = [partition_quadtree(lat) for lat in latents]

    decoded: list[np.ndarray] = []
    weights, biases = [], []
    for i in range(4):
        y = np.concatenate([g[i] for g in grouped], axis=0)
        psi = _context_for(i, decoded, phi, y.shape[0])
        params = (psi.shape[1] + 1) * 2 * c
        if psi.shape[0] < 10 * params:
            raise ValueError(
                f"group {i + 1}: {psi.shape[0]} training positions < 10x {params} parameters"
            )
        w, b = _fit_group_heads(psi, y)
        weights.append(w)
        biases.append(b)
        mu, sigma = _predict_with(w, b, c, psi)
        decoded.append(close_group(i, mu, sigma, y))
    return weights, biases


def train_rd_model(
    latents: list[LatentGrid],
    stage_sizes: tuple[int, ...],
    hyper_stage_sizes: tuple[int, ...] | None = None,
    m: int | None = None,
    iterations: int = 20,
    seed: int = 0,
    group_stage_sizes: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[ContextPredictor, QuantizerSet]:
    """Interleaved training of predictor heads and residual quantizers.

    The quantizer of group i must be trained on standardized residuals,
    which need group i's fitted head, which needs groups < i decoded through
    *their* quantizers; so heads and quantizers are fit in one sequential
    pass.  ``stage_sizes`` applies to every group unless per-group ladders
    are given via ``group_stage_sizes``.
    """
    use_hyper = hyper_stage_sizes is not None
    _check_corpus(latents, use_hyper)
    per_group = group_stage_sizes or tuple([tuple(stage_sizes)] * 4)
    if len(per_group) != 4:
        raise ValueError("need stage sizes for exactly four groups")

    hyper_q = phi = None
    if use_hyper:
        z_rows = [block_means(lat).data.reshape(lat.channels, -1).T for lat in latents]
        hyper_q = train_rvq(
            np.concatenate(z_rows, axis=0), hyper_stage_sizes, iterations=iterations,
            seed=seed * 7 + 11,
        )
        phi = np.concatenate([
            _phi_rows(hyper_q, extract_hyper_context(lat, hyper_q, m=m), lat.shape)
            for lat in latents
        ], axis=0)

    trained: list[ResidualVQ] = []

    def close_group(i, mu, sigma, y):
        # The closed loop decodes the training rows through the indices
        # their own training assigned, summed in stage order as
        # rvq_quantize sums them.
        rvq, stack = train_rvq(
            (y - mu) / sigma, per_group[i], iterations=iterations, seed=seed * 7 + 30 + i,
            return_indices=True,
        )
        trained.append(rvq)
        mm = m if m is not None else rvq.stages
        if not 1 <= mm <= rvq.stages:
            raise ValueError(f"m must be in [1, {rvq.stages}], got {mm}")
        rec = _rvq_reconstruct(rvq, IndexStack(indices=stack.indices[:mm]))
        return sigma * rec + mu

    weights, biases = _run_sequential_fit(latents, phi, close_group)
    predictor = ContextPredictor(weights=tuple(weights), biases=tuple(biases))
    qset = QuantizerSet(groups=tuple(trained), hyper=hyper_q)
    return predictor, qset


def train_iq_model(
    latents: list[LatentGrid],
    stage_sizes: tuple[int, ...],
    iterations: int = 20,
    seed: int = 0,
    group_stage_sizes: tuple[tuple[int, ...], ...] | None = None,
) -> QuantizerSet:
    """Train one residual quantizer per group on the raw group vectors."""
    _check_corpus(latents, use_hyper=False)
    per_group = group_stage_sizes or tuple([tuple(stage_sizes)] * 4)
    grouped = [partition_quadtree(lat) for lat in latents]
    books = []
    for i in range(4):
        pool = np.concatenate([g[i] for g in grouped], axis=0)
        books.append(train_rvq(pool, per_group[i], iterations=iterations, seed=seed * 7 + 50 + i))
    return QuantizerSet(groups=tuple(books), hyper=None)


def train_cm_model(
    latents: list[LatentGrid],
    delta: float,
    seed: int = 0,
) -> ContextPredictor:
    """Fit the per-group affine heads on context decoded closed-loop through
    uniform rounding at delta, as cm_encode decodes it.

    cm training draws no random numbers: both heads are closed-form ridge
    fits, so ``seed`` changes no bit.  It stays because ``perfbench/run.py``
    passes it.
    """
    _check_cm_delta(delta)
    _check_corpus(latents, use_hyper=False)

    def close_group(i, mu, sigma, y):
        k = np.rint((y - mu) / delta)
        np.clip(k, -CM_SUPPORT_RADIUS, CM_SUPPORT_RADIUS, out=k)
        return mu + delta * k

    weights, biases = _run_sequential_fit(latents, None, close_group)
    return ContextPredictor(weights=tuple(weights), biases=tuple(biases))


# ---------------------------------------------------------------------------
# Model file format.


def write_model_file(path, qset: QuantizerSet, predictor: ContextPredictor | None = None) -> None:
    """EFMD v1: magic, version, scheme (0 iq, 1 rd), C (u32), hyper flag
    (u8) and stage count S (u8); every stage size K as u32, hyper first when
    flagged, then groups 1-4; every codebook's K x C codewords as ``<f8`` in
    the same order; then for rd each group's weights and bias as ``<f8``."""
    hyper = _check_hyper(predictor, qset)
    c = qset.groups[0].dim
    if predictor is not None and predictor.channels != c:
        raise ValueError(f"predictor has {predictor.channels} channels, codebooks {c}")
    if qset.stages > 255:
        raise ValueError(f"{qset.stages} stages; a model file holds at most 255")
    rvqs = ((qset.hyper,) if hyper else ()) + qset.groups
    books = [cb.codewords for rvq in rvqs for cb in rvq.stage_codebooks]
    maps = []
    if predictor is not None:
        maps = [a for pair in zip(predictor.weights, predictor.biases) for a in pair]
    with open(path, "wb") as f:
        f.write(_MODEL_HEADER.pack(
            _MODEL_MAGIC, _MODEL_VERSION, predictor is not None, c, hyper, qset.stages
        ))
        f.write(struct.pack(f"<{len(books)}I", *(cw.shape[0] for cw in books)))
        for a in books + maps:
            f.write(a.astype("<f8").tobytes())


def read_model_file(path) -> tuple[ContextPredictor | None, QuantizerSet]:
    """(predictor, or None for iq; quantizers) of an EFMD file.  Every shape
    follows from the header and the stage sizes, so the file must be exactly
    the length they imply; no array is built before that holds."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _MODEL_HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than a model header")
    magic, version, scheme, c, hyper, stages = _MODEL_HEADER.unpack_from(raw)
    if magic != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    if version != _MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    if scheme > 1 or hyper > scheme or c < 1 or stages < 1:  # a hyper grid only for rd
        raise ValueError(
            f"{path}: bad header: scheme {scheme}, C={c}, hyper flag {hyper}, S={stages}"
        )
    count = stages * (4 + hyper)
    table = _MODEL_HEADER.size + 4 * count
    if len(raw) < table:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than its {count} stage sizes")
    sizes = struct.unpack_from(f"<{count}I", raw, _MODEL_HEADER.size)
    if min(sizes) < 1:
        raise ValueError(f"{path}: a stage size is 0")
    dims = _context_dims(c, hyper) if scheme else []
    expected = table + 8 * c * (sum(sizes) + sum(2 * (d + 1) for d in dims))
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes where its header needs {expected}")
    # An aligned native copy: the header and size table may leave it misaligned.
    values = np.frombuffer(raw, dtype="<f8", offset=table).astype(np.float64)
    counts = [k * c for k in sizes] + [2 * c * n for d in dims for n in (d, 1)]
    parts = np.split(values, np.cumsum(counts)[:-1])
    rvqs = [
        ResidualVQ(tuple(Codebook(p.reshape(-1, c)) for p in parts[i : i + stages]))
        for i in range(0, count, stages)
    ]
    qset = QuantizerSet(groups=tuple(rvqs[hyper:]), hyper=rvqs[0] if hyper else None)
    if not scheme:
        return None, qset
    weights = tuple(p.reshape(-1, 2 * c) for p in parts[count::2])
    return ContextPredictor(weights=weights, biases=tuple(parts[count + 1 :: 2])), qset
