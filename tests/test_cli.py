"""Command-line front end: exit codes, manifests, golden artifacts."""

import hashlib
import json
import shutil
import struct
import time

import numpy as np
import pytest

import rvqcodec.cli as cli
from rvqcodec.analysis import CodebookEntropyRow, EntropyReport
from rvqcodec.bitstream import fixed_length_bits
from rvqcodec.cli import IO_ERROR, USAGE_ERROR, VERIFY_ERROR, main
from rvqcodec.quantizers import Codebook, ResidualVQ, write_codebook_file
from rvqcodec.schemes import ContextPredictor, write_predictor_file

# Frozen fixture: the pipeline below (fixed seeds, fixed model) must keep
# producing this exact bitstream.
_GOLDEN_STREAM_SHA256 = "0268d1e8130e4cdd630350d523b36faba4117996746fa40c903c7242677663ca"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth(out_dir, name, index, shape="1,32,32", rho="0.9", seed="3"):
    rc = main(
        [
            "synth", "--shape", shape, "--rho", rho, "--seed", seed,
            "--index", str(index), "--out", name, "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    return out_dir / name


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth corpus -> train rd -> encode holdout, shared by several tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    data.mkdir()
    paths = [_synth(data, f"lat{i}.eflt", i) for i in range(10)]
    hold = _synth(data, "hold.eflt", 1000)

    model = root / "model"
    rc = main(
        [
            "train", "--scheme", "rd",
            "--data", ",".join(str(p) for p in paths[:5]),
            "--data", ",".join(str(p) for p in paths[5:]),
            "--stages", "1", "--Ks", "8,8,8,8", "--iters", "4", "--seed", "0",
            "--out-dir", str(model),
        ]
    )
    assert rc == 0

    enc = root / "enc"
    rc = main(
        [
            "encode", "--scheme", "rd", "--latent", str(hold),
            "--model-dir", str(model), "--m", "1",
            "--out", "stream.efbs", "--recon", "recon.eflt",
            "--out-dir", str(enc),
        ]
    )
    assert rc == 0
    return {"root": root, "data": data, "hold": hold, "model": model, "enc": enc}


def test_synth_is_deterministic_and_writes_manifest(tmp_path):
    a = _synth(tmp_path / "a", "x.eflt", 0)
    b = _synth(tmp_path / "b", "x.eflt", 0)
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["rho"] == 0.9
    assert set(manifest) == {"command", "version", "config", "artifacts", "timings_ms"}


def test_synth_usage_errors(tmp_path, capsys):
    rc = main(
        ["synth", "--shape", "1,8,8", "--rho", "1.5",
         "--out", "x.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    assert "(-1, 1)" in capsys.readouterr().err  # names the bound
    rc = main(
        ["synth", "--shape", "1,8", "--out", "x.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--shape", "1,8,8"])  # missing required --out
    assert exc.value.code == USAGE_ERROR


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--shape", "1,8,8", "--out", "x", "--bogus"])
    assert exc.value.code == USAGE_ERROR


@pytest.mark.parametrize("command", [
    ["synth", "--shape", "1,8,8", "--out", "a.eflt", "--seed", "-1"],
    ["synth", "--shape", "1,8,8", "--out", "a.eflt", "--index", "-1"],
    ["train", "--data", "a.eflt", "--seed", "-1"],
    ["verify-props", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--source-seed", "-1"],
])
def test_negative_seed_or_index_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out-dir", str(tmp_path)])
    assert exc.value.code == USAGE_ERROR
    assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command,value", [
    (["train", "--data", "a.eflt", "--iters"], "0"),
    (["train", "--data", "a.eflt", "--stages"], "0"),
    (["train", "--data", "a.eflt", "--Kz"], "0"),
    (["sweep", "--train-count"], "0"),
    (["sweep", "--holdout-count"], "-3"),
    (["sweep", "--iters"], "0"),
    (["sweep", "--stages"], "0"),
    (["encode", "--latent", "a.eflt", "--model-dir", "m", "--m"], "0"),
])
def test_non_positive_count_is_a_usage_error(tmp_path, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, value, "--out-dir", str(tmp_path)])
    assert exc.value.code == USAGE_ERROR
    assert f"expected a positive integer, got {value!r}" in capsys.readouterr().err


def test_train_writes_model_files_and_manifest(pipeline):
    model = pipeline["model"]
    for i in range(1, 5):
        assert (model / f"codebook_group{i}.efcb").is_file()
    assert (model / "predictor.efpr").is_file()
    assert not (model / "codebook_hyper.efcb").is_file()  # hyper off
    manifest = json.loads((model / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["Ks"] == [8, 8, 8, 8]
    assert "predictor" in manifest["artifacts"]


def test_train_iq_writes_no_predictor(pipeline, tmp_path):
    data = pipeline["data"]
    rc = main(
        [
            "train", "--scheme", "iq",
            "--data", ",".join(str(data / f"lat{i}.eflt") for i in range(10)),
            "--stages", "1", "--Ks", "4,4,4,4", "--iters", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert not (tmp_path / "predictor.efpr").is_file()
    assert (tmp_path / "codebook_group1.efcb").is_file()


def test_train_toy_corpus_is_fast(pipeline, tmp_path):
    data = pipeline["data"]
    start = time.perf_counter()
    rc = main(
        [
            "train", "--scheme", "rd",
            "--data", ",".join(str(data / f"lat{i}.eflt") for i in range(10)),
            "--stages", "1", "--Ks", "4,4,4,4", "--iters", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 5.0


def test_train_usage_errors(pipeline, tmp_path, capsys):
    data = str(pipeline["data"] / "lat0.eflt")
    rc = main(["train", "--data", data, "--Ks", "8,8", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    rc = main(
        ["train", "--scheme", "iq", "--data", data, "--hyper", "on",
         "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    rc = main(["train", "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR  # no --data
    capsys.readouterr()


@pytest.mark.parametrize("scheme", ["rd", "iq"])
def test_train_on_unusable_latents_is_a_usage_error(tmp_path, capsys, scheme):
    one = _synth(tmp_path, "c1.eflt", 0, shape="1,16,16")
    two = _synth(tmp_path, "c2.eflt", 1, shape="2,16,16")
    rc = main(["train", "--scheme", scheme, "--data", f"{one},{two}",
               "--Ks", "4,4,4,4", "--iters", "2", "--out-dir", str(tmp_path / "mixed")])
    assert rc == USAGE_ERROR
    assert "share a channel count, got 1 and 2" in capsys.readouterr().err
    # 64 positions per group cannot train the default K=1024 codebooks
    rc = main(["train", "--scheme", scheme, "--data", str(one),
               "--out-dir", str(tmp_path / "few")])
    assert rc == USAGE_ERROR
    assert "need at least K=1024 samples, got 64" in capsys.readouterr().err


def test_train_default_ladder_matches_contract():
    _, subparsers = cli.build_parser()
    assert subparsers["train"].get_default("Ks") == "1024,512,256,128"
    assert subparsers["train"].get_default("Kz") == 1024


def test_encode_golden_bitstream(pipeline):
    enc = pipeline["enc"]
    assert _sha256(enc / "stream.efbs") == _GOLDEN_STREAM_SHA256


def test_encode_reports_formula_bpp(pipeline, capsys):
    enc2 = pipeline["root"] / "enc2"
    rc = main(
        [
            "encode", "--scheme", "rd", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(enc2),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # a 1x32x32 latent is 512x512 pixels with 16x16 positions per group
    qset, _ = cli._load_model(str(pipeline["model"]), "rd")
    expected = fixed_length_bits(qset, 1, (1, 32, 32)) / 512**2
    assert f"bpp={expected:.6f}" in out
    manifest = json.loads((enc2 / "manifest.json").read_text())
    timings = manifest["timings_ms"]
    assert set(timings) == {"quantize", "autoregressive", "pack", "entropy_code", "tables"}
    # no entropy-coding phase exists, so no tables are built
    assert timings["entropy_code"] == timings["tables"] == 0.0
    assert timings["quantize"] > 0.0


def test_encode_is_deterministic(pipeline):
    enc3 = pipeline["root"] / "enc3"
    rc = main(
        [
            "encode", "--scheme", "rd", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(enc3),
        ]
    )
    assert rc == 0
    assert (enc3 / "stream.efbs").read_bytes() == (
        pipeline["enc"] / "stream.efbs"
    ).read_bytes()


def test_decode_round_trip_matches_encoder_reconstruction(pipeline, capsys):
    dec = pipeline["root"] / "dec"
    rc = main(
        [
            "decode", "--scheme", "rd", "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(pipeline["model"]), "--out", "dec.eflt",
            "--ref", str(pipeline["hold"]), "--out-dir", str(dec),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mse=" in out
    assert (dec / "dec.eflt").read_bytes() == (
        pipeline["enc"] / "recon.eflt"
    ).read_bytes()


def test_encode_rejects_cm(pipeline, tmp_path):
    # cm writes entropy-coded streams, not fixed-length bitstream files
    for argv in (
        ["encode", "--scheme", "cm", "--latent", str(pipeline["hold"]),
         "--model-dir", str(pipeline["model"]), "--m", "1"],
        ["decode", "--scheme", "cm", "--stream", str(pipeline["enc"] / "stream.efbs"),
         "--model-dir", str(pipeline["model"])],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == USAGE_ERROR


def test_encode_m_beyond_model_stages_fails_verification(pipeline, tmp_path):
    rc = main(
        [
            "encode", "--scheme", "rd", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == VERIFY_ERROR


def test_missing_inputs_are_io_errors(pipeline, tmp_path):
    rc = main(
        [
            "encode", "--scheme", "rd", "--latent", "no-such-file.eflt",
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    rc = main(
        [
            "decode", "--scheme", "rd", "--stream", "no-such-file.efbs",
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR


def test_decode_truncated_stream_fails(pipeline, tmp_path, capsys):
    stream = (pipeline["enc"] / "stream.efbs").read_bytes()
    cut = tmp_path / "cut.efbs"
    cut.write_bytes(stream[:-5])
    rc = main(
        [
            "decode", "--scheme", "rd", "--stream", str(cut),
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    assert "missing" in capsys.readouterr().err


def test_decode_padded_stream_is_an_io_error(pipeline, tmp_path, capsys):
    stream = (pipeline["enc"] / "stream.efbs").read_bytes()
    padded = tmp_path / "padded.efbs"
    padded.write_bytes(stream + b"\xff" * 100)
    rc = main(
        [
            "decode", "--scheme", "rd", "--stream", str(padded),
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    assert "100 trailing" in capsys.readouterr().err


def test_decode_shape_mismatch_is_a_verification_error(pipeline, tmp_path):
    other = _synth(tmp_path, "other.eflt", 0, shape="1,16,16")
    rc = main(
        [
            "decode", "--scheme", "rd", "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(pipeline["model"]), "--ref", str(other),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == VERIFY_ERROR


def _encode_and_decode_exit_codes(pipeline, model, out, scheme="rd"):
    """Exit codes of encode and decode of the pipeline's holdout with ``model``."""
    encode = main(
        [
            "encode", "--scheme", scheme, "--latent", str(pipeline["hold"]),
            "--model-dir", str(model), "--m", "1", "--out-dir", str(out / "enc"),
        ]
    )
    decode = main(
        [
            "decode", "--scheme", scheme, "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(model), "--out-dir", str(out / "dec"),
        ]
    )
    return encode, decode


def _train(pipeline, out, *flags):
    data = ",".join(str(pipeline["data"] / f"lat{i}.eflt") for i in range(10))
    rc = main(
        ["train", "--data", data, "--stages", "1", "--Ks", "8,8,8,8", "--iters", "4",
         "--seed", "0", "--out-dir", str(out), *flags]
    )
    assert rc == 0
    return out


def test_model_files_that_disagree_are_an_io_error(pipeline, tmp_path, capsys):
    hyper = _train(pipeline, tmp_path / "hyper", "--scheme", "rd", "--hyper", "on", "--Kz", "4")
    iq = _train(pipeline, tmp_path / "iq", "--scheme", "iq")
    plain = tmp_path / "plain"
    shutil.copytree(pipeline["model"], plain)
    shutil.copy(hyper / "codebook_hyper.efcb", plain)
    shutil.copy(hyper / "codebook_hyper.efcb", iq)
    (hyper / "codebook_hyper.efcb").unlink()
    wide = tmp_path / "wide"
    shutil.copytree(pipeline["model"], wide)
    write_predictor_file(wide / "predictor.efpr", ContextPredictor(
        weights=tuple(np.zeros((2 * i, 4)) for i in range(4)),
        biases=tuple(np.zeros(4) for _ in range(4)),
    ))
    cases = [
        (hyper, "rd", "the rd model uses a hyper grid, yet codebook_hyper.efcb is missing"),
        (plain, "rd", "the rd model takes no hyper grid, yet codebook_hyper.efcb is present"),
        (iq, "iq", "the iq model takes no hyper grid, yet codebook_hyper.efcb is present"),
        (wide, "rd", "predictor has 2 channels, codebooks 1"),
    ]
    for model, scheme, message in cases:
        codes = _encode_and_decode_exit_codes(pipeline, model, tmp_path / model.name, scheme)
        assert codes == (IO_ERROR, IO_ERROR)
        assert capsys.readouterr().err.count(message) == 2


def test_non_finite_predictor_fields_are_an_io_error(pipeline, tmp_path, capsys):
    raw = (pipeline["model"] / "predictor.efpr").read_bytes()
    c, hyper = struct.unpack("<IB", raw[5:10])
    bias = 10 + 8 * (c * hyper) * 2 * c  # group 1's first bias entry
    cases = [
        ("truncated", raw[:-1], f"{len(raw) - 1} bytes where C={c}, hyper flag {hyper} needs"),
        ("inf-bias", raw[:bias] + struct.pack("<d", float("inf")) + raw[bias + 8:],
         "group 1 weights and bias must be finite"),
    ]
    for name, data, message in cases:
        model = tmp_path / name
        shutil.copytree(pipeline["model"], model)
        (model / "predictor.efpr").write_bytes(data)
        codes = _encode_and_decode_exit_codes(pipeline, model, tmp_path / name)
        assert codes == (IO_ERROR, IO_ERROR)
        assert capsys.readouterr().err.count(message) == 2


def test_codebooks_of_mixed_dimension_are_an_io_error(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    wide = ResidualVQ(stage_codebooks=(Codebook(codewords=np.zeros((8, 2))),))
    write_codebook_file(model / "codebook_group2.efcb", wide)
    assert _encode_and_decode_exit_codes(pipeline, model, tmp_path) == (IO_ERROR, IO_ERROR)
    assert capsys.readouterr().err.count("vector dimension, got [1, 2, 1, 1]") == 2


def test_malformed_hyper_codebook_is_an_io_error(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    (model / "codebook_hyper.efcb").write_bytes(b"EFCBjunk")
    assert _encode_and_decode_exit_codes(pipeline, model, tmp_path) == (IO_ERROR, IO_ERROR)
    err = capsys.readouterr().err
    assert err.count("error: codebook file") == 2 and "codebook_hyper.efcb" in err


def test_stage_count_mismatched_model_is_an_io_error(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["model"], model)
    two_stages = tuple(Codebook(codewords=np.zeros((2, 1))) for _ in range(2))
    write_codebook_file(model / "codebook_hyper.efcb", ResidualVQ(stage_codebooks=two_stages))
    assert _encode_and_decode_exit_codes(pipeline, model, tmp_path) == (IO_ERROR, IO_ERROR)
    assert capsys.readouterr().err.count("share a stage count") == 2


def test_config_file_overrides_defaults_but_not_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho=0.5  # source memory\nseed=11\n")
    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "a")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.5
    assert manifest["config"]["seed"] == 11

    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8", "--rho", "0.2",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "b")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.2  # explicit flag wins

    # a given flag wins even when its value equals the builtin default
    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8", "--rho", "0.0",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.0
    assert manifest["config"]["seed"] == 11
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_flag=1\n")
    rc = main(
        ["--config", str(bad), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    rc = main(
        ["--config", str(tmp_path / "missing.cfg"), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == IO_ERROR
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just a line\n")
    rc = main(
        ["--config", str(malformed), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    capsys.readouterr()


def test_config_values_are_parsed_by_the_flags_own_type(monkeypatch, tmp_path, capsys):
    """A config value reaches the command as the flag's parser would have
    made it, also where the flag's default is None or a list."""
    _fake_experiments(monkeypatch)
    seeds = []

    def entropy(seed):
        seeds.append(seed)
        return {"gap": 0.0, "threshold": 0.05, "sparse_warning": False,
                "report": EntropyReport(gap=0.0, rows=(), sparse_warning=False),
                "passed": True}

    monkeypatch.setattr(cli, "pipeline_entropy_experiment", entropy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    rc = main(["--config", str(cfg), "verify-props", "--only", "entropy",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seeds == [7] and type(seeds[0]) is int

    seen = {}
    monkeypatch.setattr(cli, "cmd_train", lambda args: seen.update(vars(args)) or 0)
    cfg.write_text("data=a.eflt,b.eflt\nstages=3\nscheme=iq\n")
    rc = main(["--config", str(cfg), "train", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seen["data"] == ["a.eflt,b.eflt"]  # a repeatable flag given once
    assert seen["stages"] == 3 and seen["scheme"] == "iq"
    capsys.readouterr()


@pytest.mark.parametrize("command,line", [
    (["verify-props", "--only", "entropy"], "seed=seven"),
    (["synth", "--shape", "1,8,8", "--out", "a.eflt"], "rho=high"),
    (["train"], "scheme=cm"),  # not one of the flag's choices
    (["synth", "--shape", "1,8,8", "--out", "a.eflt"], "seed=-1"),
    (["train"], "iters=0"),
    (["sweep"], "holdout_count=0"),
])
def test_config_value_the_flag_would_reject_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, line
):
    _fake_experiments(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), *command, "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    assert f"config key {line.split('=')[0]!r}" in capsys.readouterr().err


def _fake_experiments(monkeypatch, fail=()):
    sentinel = object()

    def shaping(seed):
        return {
            "initial_gap": 0.5, "final_gap": 0.01, "threshold": 0.05,
            "passed": "shaping" not in fail, "codebook": sentinel,
        }

    def density(codebook, seed):
        assert codebook is sentinel  # the trained codebook flows through
        return {"tv_distance": 0.05, "tolerance": 0.1, "passed": True}

    calls = []

    def decorrelation(seed):
        calls.append("decorrelation")
        return {"rows": [], "passed": "decorrelation" not in fail}

    def dominance(seed):
        calls.append("dominance")
        row = {"delta": 1.0, "cm_rate": 1.2, "cm_mse": 0.08, "rate_cap": 1.3333,
               "sizes": (8, 3, 3, 1), "rd_rate": 1.3329, "rd_mse": 0.083, "slack": 0.0004,
               "passed": True}
        return {"rows": [row], "passed": "dominance" not in fail}

    def entropy(seed):
        calls.append("entropy")
        row = CodebookEntropyRow("group1", 1, 256, 0.98, 0.01, 7.9, False)
        return {
            "gap": 0.02, "threshold": 0.05, "sparse_warning": False,
            "report": EntropyReport(gap=0.02, rows=(row,), sparse_warning=False),
            "passed": "entropy" not in fail,
        }

    monkeypatch.setattr(cli, "index_shaping_experiment", shaping)
    monkeypatch.setattr(cli, "density_law_experiment", density)
    monkeypatch.setattr(cli, "decorrelation_gain_experiment", decorrelation)
    monkeypatch.setattr(cli, "rate_dominance_experiment", dominance)
    monkeypatch.setattr(cli, "pipeline_entropy_experiment", entropy)
    return calls


def test_verify_props_all_pass(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch)
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for claim in ("shaping", "decorrelation", "dominance", "entropy"):
        assert f"{claim}: PASS" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert set(report["claims"]) == {"shaping", "decorrelation", "dominance", "entropy"}
    # the codebook object is consumed by the density check, not serialized
    assert "codebook" not in report["claims"]["shaping"]["training"]
    # the entropy report's rows are serialized as plain records
    entropy = report["claims"]["entropy"]
    assert "report" not in entropy
    assert entropy["rows"][0]["quantizer"] == "group1"
    assert entropy["gap"] <= entropy["threshold"]
    # criterion 4's rows carry their slack under the rate cap
    assert report["claims"]["dominance"]["rows"][0]["slack"] == 0.0004


def test_verify_props_failure_exits_nonzero(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch, fail={"dominance"})
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == VERIFY_ERROR
    assert "dominance: FAIL" in capsys.readouterr().out


def test_verify_props_entropy_gap_failure_exits_nonzero(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch, fail={"entropy"})
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == VERIFY_ERROR
    out = capsys.readouterr().out
    assert "entropy: FAIL" in out and "dominance: PASS" in out


def test_verify_props_only_filters_claims(monkeypatch, tmp_path, capsys):
    calls = _fake_experiments(monkeypatch)
    rc = main(["verify-props", "--only", "decorrelation", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert calls == ["decorrelation"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert set(report["claims"]) == {"decorrelation"}
    rc = main(["verify-props", "--only", "entropy", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert calls == ["decorrelation", "entropy"]
    rc = main(["verify-props", "--only", "nonsense", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    capsys.readouterr()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rc = main(
        [
            "sweep", "--shape", "1,32,32", "--rho", "0.9", "--source-seed", "44",
            "--schemes", "rd,iq,cm", "--ms", "1,2", "--deltas", "1.0,0.5",
            "--Ks", "4,4,4,4", "--stages", "2", "--train-count", "6",
            "--holdout-count", "2", "--iters", "3", "--seed", "3",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


def test_sweep_writes_curves_and_manifest(sweep_dir):
    csv_path = sweep_dir / "rd_curves.csv"
    assert csv_path.is_file()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scheme,m_or_delta,rate_bits,bpp,mse"
    assert len(lines) == 1 + 6  # three schemes x two points
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    points = manifest["config"]["points"]
    assert len(points) == 6
    assert all({"scheme", "operating_point", "seed"} <= set(p) for p in points)


def test_sweep_rejects_m_beyond_stages(tmp_path):
    rc = main(
        ["sweep", "--shape", "1,32,32", "--ms", "1,2,3", "--stages", "2",
         "--schemes", "rd", "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR


@pytest.mark.parametrize("flag,value", [
    ("--ms", "0"), ("--deltas", "0"), ("--deltas", "nan"), ("--schemes", "rd,bogus"),
])
def test_sweep_rejects_invalid_operating_points(tmp_path, capsys, flag, value):
    points = {"--schemes": "rd,cm", "--ms": "1", "--deltas": "1.0", flag: value}
    rc = main(
        ["sweep", "--shape", "1,32,32", "--stages", "2", "--Ks", "4,4,4,4",
         *(a for item in points.items() for a in item), "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_bdrate_identical_curves_prints_zero(sweep_dir, tmp_path, capsys):
    csv_path = sweep_dir / "rd_curves.csv"
    out = tmp_path / "bd"
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(csv_path),
         "--anchor-scheme", "rd", "--test-scheme", "rd", "--out-dir", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "0.00%"
    assert (out / "bdrate.txt").read_text().strip() == "0.00%"


def test_bdrate_half_rate_curve(sweep_dir, tmp_path, capsys):
    csv_path = sweep_dir / "rd_curves.csv"
    halved = tmp_path / "half.csv"
    lines = csv_path.read_text().splitlines()
    out_lines = [lines[0]]
    for line in lines[1:]:
        scheme, op, rate, bpp, mse = line.split(",")
        if scheme == "rd":
            rate = repr(float(rate) / 2.0)
            bpp = repr(float(bpp) / 2.0)
            out_lines.append(",".join([scheme, op, rate, bpp, mse]))
    halved.write_text("\n".join(out_lines) + "\n")
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(halved),
         "--anchor-scheme", "rd", "--out-dir", str(tmp_path / "bd")]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "-50.00%"


def test_bdrate_unknown_scheme_is_usage_error(sweep_dir, tmp_path):
    csv_path = sweep_dir / "rd_curves.csv"
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(csv_path),
         "--anchor-scheme", "vq", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR


def test_default_sweep_ladder_gives_bdrate_against_cm(tmp_path, capsys):
    # the default codebook ladder and delta ladder overlap in distortion,
    # so the README's sweep -> bdrate recipe yields a number
    rc = main(["sweep", "--schemes", "rd,iq,cm", "--shape", "1,32,32", "--train-count", "4",
               "--holdout-count", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv_path = str(tmp_path / "rd_curves.csv")
    rc = main(["bdrate", "--anchor", csv_path, "--test", csv_path, "--anchor-scheme", "cm",
               "--test-scheme", "rd", "--out-dir", str(tmp_path / "bd")])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith("%")
