"""Command-line front end: synthesis, training, coding, verification, sweeps.

Every command writes a manifest.json under --out-dir capturing the full
configuration, the artifact paths, and per-phase wall-clock timings, so a
run can be reproduced exactly from its manifest.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bd_rate,
    decorrelation_gain_experiment,
    density_law_experiment,
    index_shaping_experiment,
    pipeline_entropy_experiment,
    rate_dominance_experiment,
    rd_sweep,
    read_rd_curves_csv,
    write_rd_curves_csv,
)
from .bitstream import (
    StreamHeader,
    _geometry,
    pack,
    read_bitstream_file,
    unpack,
    write_bitstream_file,
)
from .grids import (
    LATENT_DOWNSAMPLE,
    SourceConfig,
    gauss_markov_sample,
    read_latent_file,
    write_latent_file,
)
from .schemes import (
    CodedLatent,
    SchemeConfig,
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    read_model_file,
    train_iq_model,
    train_rd_model,
    write_model_file,
)
from .timing import PhaseTimer

USAGE_ERROR = 2
IO_ERROR = 3
VERIFY_ERROR = 1

_MODEL_FILE = "model.efmd"


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _non_negative_int(text: str) -> int:
    """argparse ``type`` of the seed and index flags."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse ``type`` of the count flags: iterations, stages, sizes, m."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise _CliError(f"{flag} expects comma-separated integers, got {text!r}", USAGE_ERROR)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _CliError(f"{flag} expects comma-separated numbers, got {text!r}", USAGE_ERROR)


def _load_config_file(path: str | None) -> dict[str, str]:
    """key=value per line; '#' starts a comment; keys are flag dest names."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"config file {path} not found", IO_ERROR)
    out = {}
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected key=value, got {line!r}", USAGE_ERROR)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _given_flags(argv) -> set[str]:
    """Dest names of the flags given on the command line, whatever their
    values: the same parse with every default suppressed."""
    parser, subparsers = build_parser()
    for p in (parser, *subparsers.values()):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _apply_config(
    args: argparse.Namespace, actions: dict[str, argparse.Action], given: set[str],
    config: dict[str, str],
):
    """Config file values override builtin defaults but not given flags.

    A value is parsed as the command line would parse it: by the flag's own
    ``type`` and ``choices``, and as a one-item list for a repeatable flag.
    """
    for key, raw in config.items():
        action = actions.get(key)
        if action is None:
            raise _CliError(f"config key {key!r} matches no flag", USAGE_ERROR)
        if key in given:
            continue  # explicit flag wins
        try:
            value = action.type(raw) if action.type is not None else raw
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            raise _CliError(f"config key {key!r}: cannot parse {raw!r}", USAGE_ERROR)
        if action.choices is not None and value not in action.choices:
            raise _CliError(
                f"config key {key!r}: {raw!r} is not one of {sorted(action.choices)}",
                USAGE_ERROR,
            )
        if isinstance(action, argparse._AppendAction):
            value = [value]
        setattr(args, key, value)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, artifacts: dict, timer: PhaseTimer | None):
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "timings_ms": (timer or PhaseTimer()).as_dict(),
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_required(path: str, reader, what: str):
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"{what} file {path} not found", IO_ERROR)
    try:
        return reader(p)
    except ValueError as e:
        # Most reader messages start with the path; print it once.
        raise _CliError(f"{what} file {path}: {str(e).removeprefix(f'{p}: ')}", IO_ERROR)


def _load_model(model_dir: str) -> tuple:
    """(predictor, or None for iq; quantizers) of ``model_dir``'s model file."""
    return _read_required(str(Path(model_dir) / _MODEL_FILE), read_model_file, "model")


def _source_config(args, seed: int) -> SourceConfig:
    """The synthetic source that ``--shape``, ``--rho`` and ``--var`` name."""
    shape = _parse_ints(args.shape, "--shape")
    if len(shape) != 3:
        raise _CliError(f"--shape expects C,H,W, got {args.shape!r}", USAGE_ERROR)
    try:
        return SourceConfig(
            channels=shape[0], height=shape[1], width=shape[2],
            rho=args.rho, variance=args.var, seed=seed,
        )
    except ValueError as e:
        raise _CliError(str(e), USAGE_ERROR)


# ---------------------------------------------------------------------------
# Commands.


def cmd_synth(args) -> int:
    out = _out_dir(args)
    config = _source_config(args, args.seed)
    latent = gauss_markov_sample(config, index=args.index)
    path = out / args.out
    write_latent_file(path, latent)
    manifest_config = {
        "shape": [config.channels, config.height, config.width], "rho": args.rho,
        "var": args.var, "seed": args.seed, "index": args.index,
    }
    _write_manifest(out, "synth", manifest_config, {"latent": path}, None)
    print(f"wrote {path}: shape {latent.shape}, rho={args.rho}, seed={args.seed}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    sizes = _parse_ints(args.Ks, "--Ks")
    if len(sizes) != 4:
        raise _CliError(f"--Ks expects four group sizes, got {len(sizes)}", USAGE_ERROR)
    if args.scheme == "iq" and args.hyper == "on":
        raise _CliError("iq has no context and therefore no hyper grid", USAGE_ERROR)
    data_paths = [p for chunk in args.data for p in chunk.split(",")]
    if not data_paths:
        raise _CliError("--data requires at least one latent file", USAGE_ERROR)
    latents = [_read_required(p, read_latent_file, "latent") for p in data_paths]

    group_stage_sizes = tuple((k,) * args.stages for k in sizes)
    hyper_sizes = (args.Kz,) * args.stages if args.hyper == "on" else None

    try:
        if args.scheme == "rd":
            predictor, qset = train_rd_model(
                latents, (), hyper_stage_sizes=hyper_sizes, m=None,
                iterations=args.iters, seed=args.seed, group_stage_sizes=group_stage_sizes,
            )
        else:
            predictor, qset = None, train_iq_model(
                latents, (), iterations=args.iters, seed=args.seed,
                group_stage_sizes=group_stage_sizes,
            )
    except ValueError as e:
        raise _CliError(f"training data unusable: {e}", USAGE_ERROR)
    try:
        write_model_file(out / _MODEL_FILE, qset, predictor)
    except ValueError as e:
        raise _CliError(str(e), USAGE_ERROR)
    artifacts = {"model": out / _MODEL_FILE}

    config = {
        "scheme": args.scheme, "stages": args.stages, "Ks": list(sizes), "Kz": args.Kz,
        "hyper": args.hyper, "iters": args.iters, "seed": args.seed, "data": data_paths,
    }
    manifest = _write_manifest(out, "train", config, artifacts, None)
    print(f"trained {args.scheme} model {out / _MODEL_FILE}, manifest {manifest}")
    return 0


def cmd_encode(args) -> int:
    out = _out_dir(args)
    latent = _read_required(args.latent, read_latent_file, "latent")
    predictor, qset = _load_model(args.model_dir)
    scheme = "iq" if predictor is None else "rd"
    timer = PhaseTimer()
    try:
        if predictor is not None:
            coded = rd_encode(latent, predictor, qset, args.m, timer=timer)
        else:
            coded = iq_encode(latent, qset, args.m, timer=timer)
        header = StreamHeader(
            height=latent.height * LATENT_DOWNSAMPLE,
            width=latent.width * LATENT_DOWNSAMPLE,
            q=args.m,
        )
        with timer.phase("pack"):
            stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)
    except ValueError as e:
        raise _CliError(str(e), VERIFY_ERROR)
    write_bitstream_file(out / args.out, stream)
    if args.recon is not None:
        write_latent_file(out / args.recon, coded.reconstruction)

    bpp = coded.rate_bits / (header.height * header.width)
    config = {
        "scheme": scheme, "m": args.m, "latent": args.latent,
        "model_dir": args.model_dir,
    }
    artifacts = {"bitstream": out / args.out}
    if args.recon is not None:
        artifacts["reconstruction"] = out / args.recon
    _write_manifest(out, "encode", config, artifacts, timer)
    print(f"encoded {args.latent}: {stream.bits} bits, bpp={bpp:.6f}")
    return 0


def cmd_decode(args) -> int:
    out = _out_dir(args)
    stream = _read_required(args.stream, read_bitstream_file, "bitstream")
    predictor, qset = _load_model(args.model_dir)
    scheme = "iq" if predictor is None else "rd"
    timer = PhaseTimer()
    try:
        with timer.phase("pack"):
            header, hyper_stack, group_stacks = unpack(stream, qset)
    except ValueError as e:
        raise _CliError(f"bitstream file {args.stream}: {e}", IO_ERROR)
    try:
        coded = CodedLatent(
            scheme=scheme, shape=_geometry(header, qset.groups[0].dim),
            reconstruction=None, rate_bits=float(8 * len(stream.payload)), m=header.q,
            group_stacks=group_stacks, hyper_stack=hyper_stack,
        )
        if predictor is not None:
            recon = rd_decode(coded, predictor, qset, timer=timer)
        else:
            recon = iq_decode(coded, qset, timer=timer)
    except ValueError as e:
        raise _CliError(str(e), VERIFY_ERROR)
    write_latent_file(out / args.out, recon)
    artifacts = {"reconstruction": out / args.out}
    message = f"decoded {args.stream} -> {out / args.out}"
    config = {"scheme": scheme, "stream": args.stream, "model_dir": args.model_dir}
    if args.ref is not None:
        ref = _read_required(args.ref, read_latent_file, "reference latent")
        if ref.shape != recon.shape:
            raise _CliError(
                f"reference shape {ref.shape} does not match decoded {recon.shape}",
                VERIFY_ERROR,
            )
        mse = float(np.mean((ref.data - recon.data) ** 2))
        config["ref"] = args.ref
        message += f", mse={mse:.6e}"
    _write_manifest(out, "decode", config, artifacts, timer)
    print(message)
    return 0


_CLAIMS = ("shaping", "decorrelation", "dominance", "entropy")


def cmd_verify_props(args) -> int:
    out = _out_dir(args)
    only = args.only
    if only is not None and only not in _CLAIMS:
        raise _CliError(f"--only must be one of {', '.join(_CLAIMS)}", USAGE_ERROR)
    claims = {}
    if only in (None, "shaping"):
        seed = args.seed if args.seed is not None else 1
        shaping = index_shaping_experiment(seed=seed)
        codebook = shaping.pop("codebook")
        density = density_law_experiment(codebook, seed=seed + 1)
        claims["shaping"] = {
            "training": shaping, "density_law": density,
            "passed": bool(shaping["passed"] and density["passed"]),
        }
    if only in (None, "decorrelation"):
        seed = args.seed if args.seed is not None else 5
        claims["decorrelation"] = decorrelation_gain_experiment(seed=seed)
    if only in (None, "dominance"):
        seed = args.seed if args.seed is not None else 5
        claims["dominance"] = rate_dominance_experiment(seed=seed)
    if only in (None, "entropy"):
        seed = args.seed if args.seed is not None else 5
        entropy = pipeline_entropy_experiment(seed=seed)
        entropy["rows"] = [asdict(row) for row in entropy.pop("report").rows]
        claims["entropy"] = entropy

    passed = all(c["passed"] for c in claims.values())
    report = {"claims": claims, "passed": passed}
    report_path = out / "verify_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "verify-props", {"only": only, "seed": args.seed},
                    {"report": report_path}, None)
    for name, claim in claims.items():
        print(f"{name}: {'PASS' if claim['passed'] else 'FAIL'}")
    print(f"report: {report_path}")
    return 0 if passed else VERIFY_ERROR


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    source = _source_config(args, args.source_seed)
    schemes = args.schemes.split(",")
    ms = _parse_ints(args.ms, "--ms")
    deltas = _parse_floats(args.deltas, "--deltas") if "cm" in schemes else ()
    sizes = _parse_ints(args.Ks, "--Ks")
    if len(sizes) != 4:
        raise _CliError(f"--Ks expects four group sizes, got {len(sizes)}", USAGE_ERROR)

    points = []
    try:
        for scheme in schemes:
            if scheme == "cm":
                points.extend(SchemeConfig(scheme="cm", delta=d) for d in deltas)
            else:
                points.extend(SchemeConfig(scheme=scheme, m=m) for m in ms)
    except ValueError as e:  # an unknown scheme, m < 1 or a bad delta
        raise _CliError(str(e), USAGE_ERROR)
    if max(ms, default=0) > args.stages:
        raise _CliError(f"--ms reaches {max(ms)} but --stages is {args.stages}", USAGE_ERROR)

    try:
        curves = rd_sweep(
            source, points, tuple((k,) * args.stages for k in sizes),
            args.train_count, args.holdout_count, iterations=args.iters, seed=args.seed,
        )
    except ValueError as e:
        raise _CliError(str(e), VERIFY_ERROR)
    csv_path = out / "rd_curves.csv"
    write_rd_curves_csv(csv_path, curves)
    config = {
        "shape": [source.channels, source.height, source.width], "rho": args.rho,
        "var": args.var, "source_seed": args.source_seed, "schemes": schemes, "ms": list(ms),
        "deltas": list(deltas), "Ks": list(sizes), "stages": args.stages,
        "iters": args.iters, "seed": args.seed,
        "train_count": args.train_count, "holdout_count": args.holdout_count,
        "points": [
            {"scheme": c.scheme, "operating_point": p.operating_point, "seed": args.seed}
            for c in curves for p in c.points
        ],
    }
    _write_manifest(out, "sweep", config, {"rd_curves": csv_path}, None)
    for curve in curves:
        print(f"{curve.scheme}: {len(curve.points)} points")
    print(f"wrote {csv_path}")
    return 0


def _pick_curve(curves, scheme: str | None, path: str):
    if scheme is None:
        return curves[0]
    match = [c for c in curves if c.scheme == scheme]
    if not match:
        raise _CliError(f"{path} has no scheme {scheme!r}", USAGE_ERROR)
    return match[0]


def cmd_bdrate(args) -> int:
    out = _out_dir(args)
    anchor_curves = _read_required(args.anchor, read_rd_curves_csv, "curve CSV")
    test_curves = _read_required(args.test, read_rd_curves_csv, "curve CSV")
    anchor = _pick_curve(anchor_curves, args.anchor_scheme, args.anchor)
    test = _pick_curve(test_curves, args.test_scheme, args.test)
    try:
        value = bd_rate(anchor, test)
    except ValueError as e:
        raise _CliError(str(e), VERIFY_ERROR)
    text = f"{value:.2f}%"
    (out / "bdrate.txt").write_text(text + "\n")
    _write_manifest(
        out, "bdrate",
        {"anchor": args.anchor, "test": args.test,
         "anchor_scheme": anchor.scheme, "test_scheme": test.scheme},
        {"bdrate": out / "bdrate.txt"}, None,
    )
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="rvqcodec",
        description="Entropy-coding-free latent codec: train, code, verify, sweep.",
    )
    parser.add_argument("--config", default=None, help="key=value file overriding defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample a Gauss-Markov latent to an EFLT file")
    p.add_argument("--shape", required=True, help="C,H,W")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--var", type=float, default=1.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--index", type=_non_negative_int, default=0, help="latent index within the corpus"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train codebooks (and predictor for rd)")
    p.add_argument("--scheme", default="rd", choices=("rd", "iq"))
    p.add_argument("--data", action="append", default=[], help="latent file(s), repeatable")
    p.add_argument("--stages", type=_positive_int, default=1)
    p.add_argument("--Ks", default="1024,512,256,128", help="per-group codebook sizes")
    p.add_argument("--Kz", type=_positive_int, default=1024, help="hyper codebook size")
    p.add_argument("--hyper", default="off", choices=("on", "off"))
    p.add_argument("--iters", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a latent to a fixed-length bitstream")
    p.add_argument("--latent", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--m", type=_positive_int, required=True, help="stage count to transmit")
    p.add_argument("--out", default="stream.efbs")
    p.add_argument("--recon", default=None, help="also write the local reconstruction")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream to a latent")
    p.add_argument("--stream", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--out", default="recon.eflt")
    p.add_argument("--ref", default=None, help="reference latent for MSE reporting")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify-props", help="run the claim-verification battery")
    p.add_argument("--only", default=None, help="|".join(_CLAIMS))
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_verify_props)

    p = sub.add_parser("sweep", help="rate-distortion sweep over schemes")
    p.add_argument("--shape", default="1,128,128")
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--var", type=float, default=1.0)
    p.add_argument("--source-seed", type=_non_negative_int, default=21)
    p.add_argument("--schemes", default="rd,iq")
    p.add_argument("--ms", default="1,2,3")
    p.add_argument("--deltas", default="1.0,0.5,0.25,0.125,0.0625")
    p.add_argument("--Ks", default="8,4,4,2")
    p.add_argument("--stages", type=_positive_int, default=3)
    p.add_argument("--train-count", type=_positive_int, default=8)
    p.add_argument("--holdout-count", type=_positive_int, default=8)
    p.add_argument("--iters", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=5)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bdrate", help="BD-rate between two curve CSV files")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--anchor-scheme", default=None)
    p.add_argument("--test-scheme", default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_bdrate)
    return parser, dict(sub.choices)


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    actions = {a.dest: a for a in subparsers[args.command]._actions if a.dest != "help"}
    try:
        config = _load_config_file(args.config)
        _apply_config(args, actions, _given_flags(argv), config)
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
