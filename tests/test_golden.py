"""Golden digests: a tiny fixed-seed C=1 model must code to known bytes.

Training, nearest-neighbour search, packing, table building and the range
coder are all promised to be deterministic.  These constants pin that
promise: any change to the numerics of a C=1 rd/iq/cm round trip (a
reordered sum, a different tie break, a changed table) changes a digest.
A deliberate change of format or numerics must update them in the same
commit and say why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rvqcodec import schemes
from rvqcodec.bitstream import StreamHeader, pack, unpack
from rvqcodec.grids import LATENT_DOWNSAMPLE, LatentGrid, SourceConfig, gauss_markov_sample
from rvqcodec.rans import RansStream
from rvqcodec.schemes import (
    CM_SUPPORT_RADIUS,
    CodedLatent,
    SchemeConfig,
    cm_decode,
    cm_encode,
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    train_cm_model,
    train_iq_model,
    train_rd_model,
)

SIZE = 32
STAGES = (16, 16)
DELTAS = (1.0, 0.25)

GOLDEN = {
    "rd-m1-stream": "18b7bf4e7016006f5412ea82d5a6e3c68219cbe2bc4e9bea050a500aaa4b27cf",
    "rd-m1-latent": "9cb794bab4edfd25b183c59a762e7fd86622326af629833e61a6887f5a581856",
    "rd-m2-stream": "72fbfafee06a13a525898701ab13bd50270ec26a6cc872849870a4d6750ac472",
    "rd-m2-latent": "e913ea0c0b127f34f73fd5f81f5fc087786abfc631dfaf4146385e985d874a01",
    "iq-m1-stream": "5883baff12c447849ac3801e36c299212fc2539ddbaa7cf9afc4f8177f97ae9c",
    "iq-m1-latent": "3859ed890a1f6b8d42d84211a78e94533f0a132fef04381270cabeb2e7b82879",
    "iq-m2-stream": "146c20f2503e00c9aaaf83877d333139440662dd75a402bee25e9682d3ae9996",
    "iq-m2-latent": "f1c097841580a6c608f146c9565cac8119d1dc947538e053df3a8d6648d277c1",
    "cm-d1.0-stream": "4c781026fcfd25a3f78aaf3495f4c3150fc734cdc3f0ba5b3ac99024e2ad3baa",
    "cm-d1.0-latent": "55107b01434005444c4762020425faaf5c8e150fade1dc254d1b6d64298da865",
    "cm-d0.25-stream": "0983bf5ca5de6639adf8add2eacc1a331d9d35e14b8a8243784e144456261c8f",
    "cm-d0.25-latent": "e50f46751c1a52d1d0968c005dd6a79db4e287b2cc83aca2658ad2ab5c94014e",
    "cm-outliers-stream": "120fcd2a2b05c9a5db37ac17d57dd116965862d18464be30bd260388a9a244fd",
    "cm-outliers-latent": "82c4346d22a2bf53891159d0ad41b1107ed6bc6765fd6e6ce7171b7157ac25f9",
}


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _latent_bytes(latent) -> bytes:
    return np.ascontiguousarray(latent.data, dtype="<f8").tobytes()


def _fixed_round_trip(scheme, latent, model, m):
    predictor, qset = model if scheme == "rd" else (None, model)
    header = StreamHeader(
        height=latent.height * LATENT_DOWNSAMPLE, width=latent.width * LATENT_DOWNSAMPLE, q=m
    )
    if scheme == "rd":
        coded = rd_encode(latent, predictor, qset, m)
    else:
        coded = iq_encode(latent, qset, m)
    stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)
    _, hyper_stack, group_stacks = unpack(stream, qset)
    received = CodedLatent(
        scheme=scheme, shape=coded.shape, reconstruction=None, rate_bits=0.0, m=m,
        group_stacks=group_stacks, hyper_stack=hyper_stack,
    )
    if scheme == "rd":
        decoded = rd_decode(received, predictor, qset)
    else:
        decoded = iq_decode(received, qset)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    return stream.header.to_bytes() + stream.payload, decoded


def _cm_round_trip(latent, predictor, delta):
    config = SchemeConfig(scheme="cm", delta=delta)
    coded = cm_encode(latent, predictor, config)
    blobs = [s.to_bytes() for s in coded.group_streams]
    received = CodedLatent(
        scheme="cm", shape=coded.shape, reconstruction=None, rate_bits=0.0, delta=delta,
        group_streams=tuple(RansStream.from_bytes(b) for b in blobs),
    )
    decoded = cm_decode(received, predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    return b"".join(blobs), decoded


def _training_set():
    return [
        gauss_markov_sample(SourceConfig(1, SIZE, SIZE, rho=0.9, seed=5), index=i)
        for i in range(6)
    ]


def _golden_latent():
    return gauss_markov_sample(SourceConfig(1, SIZE, SIZE, rho=0.9, seed=6), index=0)


def _outlier_latent():
    """The golden latent with spikes of both signs: +-1000 is clamped to the
    support edge, +-60 and +-40 are coded but lie far outside the table
    window of a unit-delta group.  The first four sit in group 1, whose sigma
    field is constant (its context is the bias alone)."""
    data = _golden_latent().data.copy()
    data[0, 0, 0], data[0, 0, 2] = 1000.0, -1000.0
    data[0, 2, 0], data[0, 2, 2] = 60.0, -60.0
    data[0, 31, 31], data[0, 31, 29] = 40.0, -40.0
    return LatentGrid(data)


def _compute_digests():
    train = _training_set()
    latent = _golden_latent()
    rd_model = train_rd_model(train, STAGES, iterations=10, seed=3)
    iq_qset = train_iq_model(train, STAGES, iterations=10, seed=3)
    out = {}
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    for delta in DELTAS:
        predictor = train_cm_model(train, delta=delta, seed=3)
        raw, decoded = _cm_round_trip(latent, predictor, delta)
        out[f"cm-d{delta}-stream"] = _sha(raw)
        out[f"cm-d{delta}-latent"] = _sha(_latent_bytes(decoded))
        if delta == 1.0:
            raw, decoded = _cm_round_trip(_outlier_latent(), predictor, delta)
            out["cm-outliers-stream"] = _sha(raw)
            out["cm-outliers-latent"] = _sha(_latent_bytes(decoded))
    return out


@pytest.fixture(scope="module")
def digests():
    return _compute_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_cm_outliers_are_clamped_and_decode_outside_the_window(monkeypatch):
    """The outlier stream reaches both out-of-window decoder branches."""
    decode_core = schemes._decode_core
    seen = []

    def spy(stream, freq_rows, cum_rows, row_of, lo, precision):
        syms = decode_core(stream, freq_rows, cum_rows, row_of, lo, precision)
        seen.append((lo, lo + len(freq_rows[0]), syms))
        return syms

    monkeypatch.setattr(schemes, "_decode_core", spy)
    predictor = train_cm_model(_training_set(), delta=1.0, seed=3)
    config = SchemeConfig(scheme="cm", delta=1.0)
    coded = cm_encode(_outlier_latent(), predictor, config)
    assert coded.clamp_count > 0
    decoded = cm_decode(replace(coded, reconstruction=None), predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    lo, hi, syms = seen[0]
    assert min(syms) < lo and max(syms) >= hi
    assert {0, 2 * CM_SUPPORT_RADIUS} <= set(syms)  # the clamped spikes
