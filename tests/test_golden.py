"""Golden digests: tiny fixed-seed models must train and code to known bytes.

Training, nearest-neighbour search, packing, table building and the range
coder are all promised to be deterministic.  These constants pin that
promise: any change to the numerics of a C=1 rd/iq/cm round trip, or of a
C=4 model with a hyper grid (its trained codebooks and predictors as well as
its streams), changes a digest: a reordered sum, a different tie break, a
changed table or seeding.  A deliberate change of format or numerics must
update them in the same commit and say why.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rvqcodec
from rvqcodec import schemes
from rvqcodec.bitstream import StreamHeader, pack, unpack
from rvqcodec.grids import LATENT_DOWNSAMPLE, LatentGrid, SourceConfig, gauss_markov_sample
from rvqcodec.quantizers import QuantizerSet, read_codebook_file, write_codebook_file
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
    write_predictor_file,
)
from rvqcodec.schemes import _cm_tables

SIZE = 32
STAGES = (16, 16)
DELTAS = (1.0, 0.25)

GOLDEN = {
    "rd-m1-stream": "35a6467842a1bd9e87c74b6cbdb143aad41f7bb6168b73bd04624b4c8091bfab",
    "rd-m1-latent": "e9d6ca61f80ec701e49f6350ec5b76173e9b76b46e67130dbe205d46fd1ca208",
    "rd-m2-stream": "119a128f32f51ddbee445a95cdcd4e71e219528c44be99402356ef19cf94fd66",
    "rd-m2-latent": "9af856627c665626b0fe03c8873b890e923d3bd13e5b25c3b860de7a3f6494a7",
    "iq-m1-stream": "65d7105628464c423468a9737bd2522c9094ccd48fc0a8b77e636791981c252c",
    "iq-m1-latent": "480d0eea24082a05b41de4419646ed76d7815e3214c271473141531753f67d5f",
    "iq-m2-stream": "214454b84e1e484712a150c18e7cef728ef9a746096596b200cb36d38d009e5a",
    "iq-m2-latent": "b2ad077332180b2348e8afedc6aee53c127a27ddc5d09e84d6d871d16f3c2958",
    "cm-d1.0-stream": "8170381161cab897ee2a0c8f28a94f0855dca80130e339412024460fe4165bd9",
    "cm-d1.0-latent": "55107b01434005444c4762020425faaf5c8e150fade1dc254d1b6d64298da865",
    "cm-d0.25-stream": "4fec19676e1f6acaefdc95a333106b873f7ab1df605d4664acadd79b9c709665",
    "cm-d0.25-latent": "e50f46751c1a52d1d0968c005dd6a79db4e287b2cc83aca2658ad2ab5c94014e",
    "cm-outliers-stream": "0ab77b1935a9a8aadcb3e8abc88d333a985e29dff48de58146dd2a4c438ece22",
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
    support edges, +-60 and +-40 are coded in bins at the floor mass of 1.
    The first four sit in group 1, whose sigma field is constant (its
    context is the bias alone)."""
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


# C = 4 with a hyper grid: the vector (cdist) search, k-means++ seeding over
# 4-D rows, the hyper path of rd and the multi-channel predictor heads.
VEC_CHANNELS = 4
VEC_STAGES = (16, 16)
VEC_DELTA = 0.5

GOLDEN_VECTOR = {
    "cm-d0.5-latent": "5784f6d31f4bd32a29a006afb2f9df29ef4923aedfc978f0b08d4839fb242cd9",
    "cm-d0.5-predictor": "35183e432523168f3f8d91be1f121b2800fb324e325d66d44f9f7d5e302b93bc",
    "cm-d0.5-stream": "1bf58e1a9199dfdaf614b3cd3550c565a88b141c1c8d945ac3afd4df869ef1a9",
    "iq-codebooks": "0030a61d6b23d8b777b3950fa128144d30c3a349c082e681cd893d26cf4e10a8",
    "iq-m1-latent": "b49cefe2b61fe293f82883792ddb8c990b41a8f735f81c7d99c3647789c2f90c",
    "iq-m1-stream": "f58ceabda039fe1305a06d871e4d7837dedf6b4ca96d0f456108f5f8a450d069",
    "iq-m2-latent": "27a1d1a12c04daf8a176115d3e8b79832a599fbf647415641bfdaccb9a27e126",
    "iq-m2-stream": "ef4540a2cee2d661d2c118b1a29f3898831ed6d7a2e8bd77c237b65f58d5faab",
    "rd-closed-m1-codebooks": "fb30ca5db6f201594bcb8ef8cd7e7cc039e9daa0a988fc1242e10031859a856f",
    "rd-closed-m1-predictor": "196c7d840ec8a5f1314ea402c81f90f01438b2455c4c69c018d455ecebdd53c7",
    "rd-codebooks": "ef503c35ae0e28bb6450ca4019766dcdea02a17e5d0146d8745235bb480f0827",
    "rd-m1-latent": "7050907ccc5b4e9a606559e205d20a7ff9d806fc57cfef7bfce5c9886fa497aa",
    "rd-m1-stream": "120e546d4d44545ab0a75a8c9c6f59804afa9bd3c2c504480d78eab7af161ae4",
    "rd-m2-latent": "ed07c4db14bf0579cffd1f40b37094f2c3a801a3505c2f0e8b88d81e13dd32b2",
    "rd-m2-stream": "326f41a0feae56e7d50f44b96dfb7d052c6a2a0a4a6e07525a795dcf6b94b4d3",
    "rd-predictor": "9d13035915d5fa96054d88e1988ece936497fd5a5b634664b0dd36a6bd1b698a",
}


def _vector_training_set():
    return [
        gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=7), index=i)
        for i in range(6)
    ]


def _codebook_bytes(qset) -> bytes:
    rvqs = qset.groups + ((qset.hyper,) if qset.hyper is not None else ())
    return b"".join(
        np.ascontiguousarray(cb.codewords, dtype="<f8").tobytes()
        for rvq in rvqs
        for cb in rvq.stage_codebooks
    )


def _predictor_bytes(predictor, path) -> bytes:
    write_predictor_file(path, predictor)
    return path.read_bytes()


def _compute_vector_digests(tmp):
    train = _vector_training_set()
    latent = gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=8), index=0)
    rd_model = train_rd_model(
        train, VEC_STAGES, hyper_stage_sizes=VEC_STAGES, iterations=10, seed=3
    )
    # Closed loop through the first stage only: the predictor of groups 2-4
    # sees context decoded at m = 1.
    rd_m1_model = train_rd_model(
        train, VEC_STAGES, hyper_stage_sizes=VEC_STAGES, m=1, iterations=10, seed=3
    )
    iq_qset = train_iq_model(train, VEC_STAGES, iterations=10, seed=3)
    cm_predictor = train_cm_model(train, delta=VEC_DELTA, seed=3)
    out = {
        "rd-codebooks": _sha(_codebook_bytes(rd_model[1])),
        "rd-predictor": _sha(_predictor_bytes(rd_model[0], tmp / "rd.efpr")),
        "rd-closed-m1-codebooks": _sha(_codebook_bytes(rd_m1_model[1])),
        "rd-closed-m1-predictor": _sha(_predictor_bytes(rd_m1_model[0], tmp / "rd1.efpr")),
        "iq-codebooks": _sha(_codebook_bytes(iq_qset)),
        f"cm-d{VEC_DELTA}-predictor": _sha(_predictor_bytes(cm_predictor, tmp / "cm.efpr")),
    }
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    raw, decoded = _cm_round_trip(latent, cm_predictor, VEC_DELTA)
    out[f"cm-d{VEC_DELTA}-stream"] = _sha(raw)
    out[f"cm-d{VEC_DELTA}-latent"] = _sha(_latent_bytes(decoded))
    return out


@pytest.fixture(scope="module")
def vector_digests(tmp_path_factory):
    return _compute_vector_digests(tmp_path_factory.mktemp("golden-vector"))


@pytest.mark.parametrize("name", sorted(GOLDEN_VECTOR))
def test_golden_vector_digest(vector_digests, name):
    assert vector_digests[name] == GOLDEN_VECTOR[name]


def test_cm_outliers_are_clamped_and_decode_as_the_support_edges(monkeypatch):
    """The clamped +-1000 spikes of group 1 decode as symbols 0 and 510."""
    decode_core = schemes._decode_core
    seen = []

    def spy(*args):
        syms = decode_core(*args)
        seen.append(syms)
        return syms

    monkeypatch.setattr(schemes, "_decode_core", spy)
    predictor = train_cm_model(_training_set(), delta=1.0, seed=3)
    config = SchemeConfig(scheme="cm", delta=1.0)
    coded = cm_encode(_outlier_latent(), predictor, config)
    assert coded.clamp_count == 2
    decoded = cm_decode(replace(coded, reconstruction=None), predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    assert seen[0][:2] == [2 * CM_SUPPORT_RADIUS, 0]


# cm's scale tables: the integer rows of all 64 levels at each delta.
GOLDEN_TABLES = {
    "d0.25-cum": "9412527ce5b0038cf9b92b3ac7c934913feab1b31eb202d4877460c13cbcb14b",
    "d0.25-freq": "b3a7946c8a75c1e338ce670ea14cb2a1cd6009ffaf39861b7690db5eb6acd8e3",
    "d0.5-cum": "6f5d118bf9dff2d779166f40137f045157a6d3dea7fa073e42a1bed5b4fdf40a",
    "d0.5-freq": "87d17a55bebb42bd9ac28b1893bfff96191af3cd2486b48c078b9c10beef0d1d",
    "d1.0-cum": "4eec31611951718a0506e8d065980e3aca109c0a0cb2332c3d1a44e0a6f460e5",
    "d1.0-freq": "4075d0c104ed4c736a70349cf740282b4a044d68c25c801fafb6918dc4d33585",
}


def _compute_table_digests():
    out = {}
    for delta in (1.0, 0.5, 0.25):
        freq, cum, _ = _cm_tables(delta)
        out[f"d{delta}-freq"] = _sha(np.ascontiguousarray(freq, dtype="<i8").tobytes())
        out[f"d{delta}-cum"] = _sha(np.ascontiguousarray(cum, dtype="<i8").tobytes())
    return out


@pytest.fixture(scope="module")
def table_digests():
    return _compute_table_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_golden_table_digest(table_digests, name):
    assert table_digests[name] == GOLDEN_TABLES[name]


_BASELINE_PRELUDE = """
import hashlib, json, sys
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

payload, targets = json.loads(sys.stdin.read())
out = {"enabled": [t for t in targets if umath.__cpu_features__.get(t)]}
"""

_DISPATCH_DECODE = _BASELINE_PRELUDE + """
from rvqcodec.rans import RansStream
from rvqcodec.schemes import CodedLatent, SchemeConfig, cm_decode, read_predictor_file

out["latents"] = {}
for name, case in payload.items():
    predictor = read_predictor_file(case["predictor"])
    received = CodedLatent(
        scheme="cm", shape=tuple(case["shape"]), reconstruction=None, rate_bits=0.0,
        delta=case["delta"],
        group_streams=tuple(RansStream.from_bytes(bytes.fromhex(b)) for b in case["streams"]),
    )
    try:
        decoded = cm_decode(received, predictor, SchemeConfig(scheme="cm", delta=case["delta"]))
    except ValueError as e:
        out["latents"][name] = f"ValueError: {e}"
        continue
    raw = np.ascontiguousarray(decoded.data, dtype="<f8").tobytes()
    out["latents"][name] = hashlib.sha256(raw).hexdigest()
print(json.dumps(out))
"""

_DISPATCH_TRAIN_CM = _BASELINE_PRELUDE + """
from rvqcodec.grids import LatentGrid
from rvqcodec.schemes import train_cm_model, write_predictor_file

train = [LatentGrid(x) for x in np.load(payload["latents"])]
write_predictor_file(payload["predictor"], train_cm_model(train, delta=payload["delta"]))
with open(payload["predictor"], "rb") as f:
    out["predictor"] = hashlib.sha256(f.read()).hexdigest()
print(json.dumps(out))
"""


_DISPATCH_IQ_ENCODE = _BASELINE_PRELUDE + """
from rvqcodec.bitstream import StreamHeader, pack
from rvqcodec.grids import LATENT_DOWNSAMPLE, LatentGrid
from rvqcodec.quantizers import QuantizerSet, read_codebook_file
from rvqcodec.schemes import iq_encode

qset = QuantizerSet(groups=tuple(read_codebook_file(p) for p in payload["codebooks"]))
latent = LatentGrid(np.load(payload["latent"]))
out["streams"] = {}
for m in payload["ms"]:
    header = StreamHeader(
        height=latent.height * LATENT_DOWNSAMPLE, width=latent.width * LATENT_DOWNSAMPLE, q=m
    )
    coded = iq_encode(latent, qset, m)
    stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)
    out["streams"][str(m)] = hashlib.sha256(stream.header.to_bytes() + stream.payload).hexdigest()
print(json.dumps(out))
"""


def _dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets above its baseline that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _run_at_baseline(script: str, payload) -> dict:
    """Run ``script`` on ``payload`` in a process with every dispatch target
    above numpy's baseline disabled, as on a CPU without the extensions."""
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no target above its baseline on this CPU")
    src = str(Path(rvqcodec.__file__).resolve().parent.parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps([payload, targets]),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["enabled"] == []
    return result


def test_cm_streams_decode_exactly_with_every_dispatch_target_disabled(tmp_path):
    """The golden C=1 cm streams, encoded here, decode to the encoder's exact
    reconstruction in a process that runs numpy at its baseline SIMD target,
    as on a CPU without the dispatched extensions."""
    train = _training_set()
    cases, expected = {}, {}
    for delta in DELTAS:
        predictor = train_cm_model(train, delta=delta, seed=3)
        path = tmp_path / f"cm-d{delta}.efpr"
        write_predictor_file(path, predictor)
        latents = {f"cm-d{delta}": _golden_latent()}
        if delta == 1.0:
            latents["cm-outliers"] = _outlier_latent()
        for name, latent in latents.items():
            coded = cm_encode(latent, predictor, SchemeConfig(scheme="cm", delta=delta))
            cases[name] = {
                "predictor": str(path), "delta": delta, "shape": list(coded.shape),
                "streams": [st.to_bytes().hex() for st in coded.group_streams],
            }
            expected[name] = _sha(_latent_bytes(coded.reconstruction))
    assert _run_at_baseline(_DISPATCH_DECODE, cases)["latents"] == expected


def test_cm_training_is_golden_with_every_dispatch_target_disabled(tmp_path):
    """The C=4 cm predictor, retrained from the same latents in a process
    that runs numpy at its baseline SIMD target, writes the golden bytes:
    the log-sigma targets' ``np.log`` and the ridge solves give the same
    bits at numpy's baseline as with its dispatched targets."""
    latents = tmp_path / "train.npy"
    np.save(latents, np.stack([lat.data for lat in _vector_training_set()]))
    payload = {"latents": str(latents), "predictor": str(tmp_path / "cm.efpr"),
               "delta": VEC_DELTA}
    result = _run_at_baseline(_DISPATCH_TRAIN_CM, payload)
    assert result["predictor"] == GOLDEN_VECTOR[f"cm-d{VEC_DELTA}-predictor"]


# C = 4 with 128-codeword stages, group and hyper: every search of training
# and encoding takes the screened search of ``quantizers._nearest``
# (K >= 64, K * C >= 512).  Recorded with the plain cdist search, so the
# screen is pinned to its bytes.  The 1,792 training rows of a group make
# 1.75 screened blocks.
SCREEN_STAGES = (128, 128)

GOLDEN_SCREEN = {
    "iq-codebooks": "d6035676c670ae4d7fd8f0c5d6bcee20e544fe387d45fc0bcdb68dca2119f306",
    "iq-m1-latent": "bfe5b53bc30f9f7ff2e2b84cd165be927e139f21b03b4dc9e90fc0d8853ff044",
    "iq-m1-stream": "aa67300a22e1e3c88ee487cffb509b700e4c90936c80c16594493af1e7f06772",
    "iq-m2-latent": "82a2548ec563375b19cc0e4f11b38e79fbea076cdbd84fa30dfb4f09b4eda9d1",
    "iq-m2-stream": "fea66e37a95f721c880858a9482efe4d5faa2a972401a814bb3f7488fccc94b6",
    "rd-codebooks": "2e1bf3da350d29c2c5f62a937a38eaa2f1052d963e7a4f301ce4a8aaa0b5eaa5",
    "rd-m1-latent": "795152cf4c64542287b799b745c5e6197b1f3a48b77dc4f0601a4b736215f795",
    "rd-m1-stream": "0e7e91ca2167d73feeff0369b356730f9c15cd0b97a41c2e9303c7446a9e57ad",
    "rd-m2-latent": "18c2a7ecb957718f6058f98b83aa77b138459a107eaf4be1e17187a4a1e383ca",
    "rd-m2-stream": "da3b704fc9fb72d5be94fd8fa92905b99bf017d70e8d78d2e5015d1a02d727a3",
    "rd-predictor": "72657933aee1cc74e01877b4559234cb230edff70044dc5870c7285f70311c0e",
}


def _model_digests(tmp, train, latent, stages, seed, hyper_stage_sizes=None):
    """Codebooks, rd predictor, and rd/iq streams and latents at m = 1, 2."""
    rd_model = train_rd_model(
        train, stages, hyper_stage_sizes=hyper_stage_sizes, iterations=10, seed=seed
    )
    iq_qset = train_iq_model(train, stages, iterations=10, seed=seed)
    out = {
        "rd-codebooks": _sha(_codebook_bytes(rd_model[1])),
        "rd-predictor": _sha(_predictor_bytes(rd_model[0], tmp / "rd.efpr")),
        "iq-codebooks": _sha(_codebook_bytes(iq_qset)),
    }
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    return out


def _compute_screen_digests(tmp):
    train = [
        gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=9), index=i)
        for i in range(7)
    ]
    latent = gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=10), index=0)
    return _model_digests(tmp, train, latent, SCREEN_STAGES, 4, hyper_stage_sizes=SCREEN_STAGES)


@pytest.fixture(scope="module")
def screen_digests(tmp_path_factory):
    return _compute_screen_digests(tmp_path_factory.mktemp("golden-screen"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SCREEN))
def test_golden_screen_digest(screen_digests, name):
    assert screen_digests[name] == GOLDEN_SCREEN[name]


# C = 1 with 64-codeword stages over 64 x 64 latents: every encode search
# places a 1,024-row group among 64 values, above the bucket lookup's gate
# in ``quantizers._nearest`` (every other C = 1 golden codes 256-row groups
# at K = 16, below it).  Recorded with the plain ``searchsorted`` search, so
# the buckets are pinned to its bytes.  Training places the codeword values
# among the sorted samples and does no bucket work.
BUCKET_SIZE = 64
BUCKET_STAGES = (64, 64)

GOLDEN_BUCKET = {
    "iq-codebooks": "50a4a03a4b1903c5c3016953ea45e3a0f66885e951c386b9803a9d5a6f8194ba",
    "iq-m1-latent": "b0a03f8e78cf5c4bdf2b1f60ff54fc2647f7a8765c5f95ce128d4bfa99a4852f",
    "iq-m1-stream": "1e29b3faa283525f1e3b3d078dd23ec7ab88befc63776d314ce0699d055e8151",
    "iq-m2-latent": "b2d20c9255c3703bec13d0c1b3789a975df2a5d57f80f44bd575649fd9029053",
    "iq-m2-stream": "617822e29d87d6a010a7e6220f27bac082e4fbc310d614d0f67a0a23698d6aab",
    "rd-codebooks": "cdd68204bc4147afa3a526bb9a5df8515056c677093fbdebeab6fd90169c0931",
    "rd-m1-latent": "8a363d0ff7fe36834954c6535f280d72081047d7324007f3de0290dc33a0d9b9",
    "rd-m1-stream": "93d5899ee1ed90cb8ef7dc704c26e924c752289d1ec77bede344dce26356265a",
    "rd-m2-latent": "3b3a29a9971be52ae705480de4000a691b053e6afedbc81c297c5a2f2c6a4c03",
    "rd-m2-stream": "1a9bb81be484719a1ef4e5222b64e70d74b08482bd0624d90571a9de708c8214",
    "rd-predictor": "6d757335c5e44037e8e4d6ea17724078fb0305e4a83c8f60d17af1e0e9beb343",
}


def _bucket_training_set():
    return [
        gauss_markov_sample(SourceConfig(1, BUCKET_SIZE, BUCKET_SIZE, rho=0.9, seed=11), index=i)
        for i in range(6)
    ]


def _bucket_latent():
    return gauss_markov_sample(SourceConfig(1, BUCKET_SIZE, BUCKET_SIZE, rho=0.9, seed=12), index=0)


def _compute_bucket_digests(tmp):
    return _model_digests(tmp, _bucket_training_set(), _bucket_latent(), BUCKET_STAGES, 5)


@pytest.fixture(scope="module")
def bucket_digests(tmp_path_factory):
    return _compute_bucket_digests(tmp_path_factory.mktemp("golden-bucket"))


@pytest.mark.parametrize("name", sorted(GOLDEN_BUCKET))
def test_golden_bucket_digest(bucket_digests, name):
    assert bucket_digests[name] == GOLDEN_BUCKET[name]


def test_bucket_iq_encode_is_exact_with_every_dispatch_target_disabled(tmp_path):
    """The bucket section's iq codebooks, written to files and read back,
    encode its latent to the same stream bytes in a process that runs numpy
    at its baseline SIMD target: the bucket index arithmetic and the exact
    neighbour check place every row alike at any dispatch target.  iq has
    no predictor, so no ``exp`` enters the stream."""
    qset = train_iq_model(_bucket_training_set(), BUCKET_STAGES, iterations=10, seed=5)
    paths = [str(tmp_path / f"group{i}.efcb") for i in range(len(qset.groups))]
    for path, rvq in zip(paths, qset.groups):
        write_codebook_file(path, rvq)
    read_back = QuantizerSet(groups=tuple(read_codebook_file(p) for p in paths))
    latent = _bucket_latent()
    np.save(tmp_path / "latent.npy", latent.data)
    expected = {str(m): _sha(_fixed_round_trip("iq", latent, read_back, m)[0]) for m in (1, 2)}
    payload = {"codebooks": paths, "latent": str(tmp_path / "latent.npy"), "ms": [1, 2]}
    assert _run_at_baseline(_DISPATCH_IQ_ENCODE, payload)["streams"] == expected
