"""Command-line entry point.

Commands: extract-features, train, eval, diagnose, export-embeddings.

Exit codes are stable: 0 success, 2 configuration error, 3 data error,
4 non-finite value in training or in a trained model's forward pass,
5 checkpoint/config hash mismatch.
All commands accept --json for machine-readable output; every file output
is written atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import config as cfgmod
from . import data as datakit
from . import features as feats
from . import training
from .errors import (
    BadSampleRate,
    CheckpointMismatch,
    ConfigError,
    DvmerError,
    EmptySplit,
    NonFiniteValue,
    TrackTooShort,
)
from .ioutil import atomic_open, atomic_write_text, text_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NONFINITE = 4
EXIT_CHECKPOINT = 5


@dataclass
class CommandResult:
    exit_code: int
    summary: str
    payload: dict | None = None


def _emit(result: CommandResult, as_json: bool) -> int:
    if as_json:
        body = {"exit_code": result.exit_code, "summary": result.summary}
        if result.payload:
            body.update(result.payload)
        print(json.dumps(body))
    else:
        print(result.summary)
    return result.exit_code


def _read_pair(track_id: str, path: str, shapes: tuple | None) -> feats.FeaturePair:
    """A track's cache, read and checked: nonempty grams with one frame count, shaped as
    shapes, the first track's (mel, coch) gram shapes; None, for the first track, takes any."""
    pair = feats.read_feature_cache(path)
    mel, coch = pair.mel.shape, pair.coch.shape
    if (mel, coch) != (shapes or (mel, coch)) or mel[1] != coch[1] or 0 in mel + coch:
        raise ValueError(f"track {track_id}: Mel gram {mel} and cochleagram {coch}; every track needs "
                         "nonempty grams with one frame count, shaped like the first track's")
    return pair


@dataclass(frozen=True)
class _CachedSample:
    """A manifest track whose grams stay on disk: each read of `pair` reads
    and checks its cache again, so memory holds only the batch in use."""

    track_id: str
    label: int
    path: str
    shapes: tuple

    @property
    def pair(self) -> feats.FeaturePair:
        return _read_pair(self.track_id, self.path, self.shapes)


def _load_run(args) -> tuple:
    """The run flags' configs, manifest records and cache-backed samples by track id. Every
    cache is read and checked here, before any work; only the first track's pair, which
    resolves the ModelConfig, is kept, and each sample reads its cache again when used."""
    train_cfg, model_cfg = cfgmod.load_train_configs(args.config, overrides=_overrides_from_args(args))
    records = datakit.parse_manifest(args.manifest)
    samples, first, shapes = {}, None, None
    for rec in records:
        path = os.path.join(args.features, f"{rec.track_id}.dmrf")
        pair = _read_pair(rec.track_id, path, shapes)
        first, shapes = first or pair, shapes or (pair.mel.shape, pair.coch.shape)
        samples[rec.track_id] = _CachedSample(rec.track_id, rec.label(train_cfg.dimension), path, shapes)
    if first is None:
        raise EmptySplit(f"manifest has no tracks: {args.manifest}")
    return train_cfg, training.model_config_for(train_cfg, first, model_cfg), records, samples


def _overrides_from_args(args) -> dict:
    """The run-config fields that flags set; each flag's dest is its field."""
    return {k: v for k, v in vars(args).items() if k in cfgmod.RUN_CONFIG_KEYS and v is not None}


def _write_csv(path, header: list, rows) -> None:
    """header and rows as UTF-8 CSV at path, each line ending in a bare
    newline, written row by row as rows yields them; csv quotes a cell that
    holds a comma or a quote, and writes a float as its repr."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# -- commands -----------------------------------------------------------------


def _extract_track(wav_path, cache_path, track_id, cfg):
    """One track from WAV to cache; only the analysis window is read, and
    everything is freed before the next WAV is read."""
    pair = feats.extract_pair(feats.read_segment(wav_path, cfg), cfg)
    feats.write_feature_cache(cache_path, pair, track_id, cfg)


def cmd_extract_features(args) -> CommandResult:
    cfg = cfgmod.load_feature_config(args.config)
    in_dir, out_dir = args.in_dir, args.out
    if not os.path.isdir(in_dir):
        raise FileNotFoundError(f"input directory not found: {in_dir}")
    os.makedirs(out_dir, exist_ok=True)
    wavs = sorted(p for p in os.listdir(in_dir) if p.lower().endswith(".wav"))
    if not wavs:
        raise FileNotFoundError(f"no .wav files in {in_dir}")

    done, failed, wav_of = [], [], {}
    for name in wavs:
        track_id = os.path.splitext(name)[0]
        if track_id in wav_of:  # Song.WAV and Song.wav: the second would overwrite the first's cache
            failed.append(track_id)
            print(f"skipped {track_id}: {wav_of[track_id]} and {name} give the same track id", file=sys.stderr)
            continue
        wav_of[track_id] = name
        try:
            _extract_track(os.path.join(in_dir, name), os.path.join(out_dir, f"{track_id}.dmrf"), track_id, cfg)
            done.append(track_id)
        except (TrackTooShort, BadSampleRate, ConfigError) as exc:
            failed.append(track_id)
            print(f"skipped {track_id}: {exc}", file=sys.stderr)

    payload = {"extracted": done, "failed": failed, "config_hash": cfg.config_hash()}
    if failed:
        return CommandResult(EXIT_DATA, f"extracted {len(done)} track(s), {len(failed)} failed", payload)
    return CommandResult(EXIT_OK, f"extracted {len(done)} track(s) to {out_dir}", payload)


def cmd_train(args) -> CommandResult:
    train_cfg, model_cfg, records, samples = _load_run(args)
    split = datakit.stratified_split(records, train_cfg.dimension, seed=train_cfg.seed)
    train_samples = [samples[i] for i in split.train_ids]
    test_samples = [samples[i] for i in split.test_ids]

    os.makedirs(args.out, exist_ok=True)

    def log_epoch(record):
        print(
            f"epoch {record.epoch:3d}  lr {record.lr:.2e}  tau {record.tau:.3f}  "
            f"theta {record.theta:.3f}  loss {record.loss_total:.4f}  acc {record.train_acc:.3f}",
            file=sys.stderr,
        )

    result = training.run_training(train_samples, train_cfg, model_cfg, on_epoch=log_epoch)
    # both splits' forward passes run before any file is written, so a model
    # that diverges there leaves --out as empty as a diverging step does
    train_metrics = training.evaluate(result.model, train_samples, ensemble=train_cfg.ensemble_eval)
    test_metrics = training.evaluate(result.model, test_samples, ensemble=train_cfg.ensemble_eval)

    config_hash = cfgmod.run_config_hash(train_cfg, result.model_config)
    training.save_checkpoint(os.path.join(args.out, "checkpoint.dmrc"), result, config_hash)
    atomic_write_text(
        os.path.join(args.out, "epochs.log"),
        "\n".join(json.dumps(asdict(r)) for r in result.records) + "\n",
    )
    atomic_write_text(os.path.join(args.out, "split.json"), json.dumps(asdict(split), indent=1) + "\n")
    summary = {
        "dimension": train_cfg.dimension,
        "config_hash": config_hash,
        "epochs": train_cfg.epochs,
        "train": asdict(train_metrics),
        "test": asdict(test_metrics),
    }
    atomic_write_text(os.path.join(args.out, "result.json"), json.dumps(summary, indent=1) + "\n")

    return CommandResult(
        EXIT_OK,
        f"trained {train_cfg.epochs} epoch(s); test acc {test_metrics.acc:.4f} "
        f"f1 {test_metrics.f1:.4f} auc {test_metrics.auc:.4f}",
        summary,
    )


def cmd_eval(args) -> CommandResult:
    train_cfg, model_cfg, records, samples = _load_run(args)
    expected_hash = cfgmod.run_config_hash(train_cfg, model_cfg)
    model, _ = training.load_model_from_checkpoint(args.checkpoint, model_cfg, expected_hash=expected_hash)
    split = datakit.stratified_split(records, train_cfg.dimension, seed=train_cfg.seed)
    ids = split.train_ids if args.split == "train" else split.test_ids
    subset = [samples[i] for i in ids]
    metrics = training.evaluate(model, subset, ensemble=train_cfg.ensemble_eval)

    payload = {
        "dimension": train_cfg.dimension,
        "split": args.split,
        **asdict(metrics),
    }
    return CommandResult(
        EXIT_OK,
        f"{train_cfg.dimension} {args.split}: acc {metrics.acc:.4f} f1 {metrics.f1:.4f} auc {metrics.auc:.4f}",
        payload,
    )


def _diagnose_cells(rec, columns: list | None) -> dict:
    """One epoch record as CSV cells, column to value: the EpochRecord
    fields in order, with queue_coverage spread over coverage_0 ..
    coverage_{C-1}. columns, the first record's cells, fixes C for the rest;
    a malformed record raises ValueError."""
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    names = [f.name for f in fields(training.EpochRecord)]
    missing = [k for k in names if k not in rec]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    coverage = rec["queue_coverage"]
    if not isinstance(coverage, list):
        raise ValueError(f"queue_coverage must be a list, got {coverage!r}")
    cells = {}
    for name in names:
        if name == "queue_coverage":
            cells.update((f"coverage_{c}", value) for c, value in enumerate(coverage))
        else:
            cells[name] = rec[name]
    if columns is not None and list(cells) != columns:
        expected = sum(c.startswith("coverage_") for c in columns)
        raise ValueError(f"queue_coverage has {len(coverage)} entries, the first record's {expected}")
    return cells


def cmd_diagnose(args) -> CommandResult:
    if not os.path.exists(args.log):
        raise FileNotFoundError(f"epoch log not found: {args.log}")
    columns, rows = None, []
    for lineno, line in text_lines(args.log, ValueError):
        line = line.strip()
        if not line:
            continue
        try:
            cells = _diagnose_cells(json.loads(line), columns)
        except ValueError as exc:  # json.JSONDecodeError is one too
            raise ValueError(f"{args.log}:{lineno}: bad record: {exc}") from exc
        columns = columns or list(cells)
        rows.append(cells.values())
    if not rows:
        raise ValueError(f"{args.log}: no epoch records")
    _write_csv(args.out, columns, rows)
    return CommandResult(EXIT_OK, f"wrote {len(rows)} row(s) to {args.out}", {"rows": len(rows)})


def cmd_export_embeddings(args) -> CommandResult:
    train_cfg, model_cfg, _, samples = _load_run(args)
    expected_hash = cfgmod.run_config_hash(train_cfg, model_cfg)
    model, _ = training.load_model_from_checkpoint(args.checkpoint, model_cfg, expected_hash=expected_hash)
    z_fuse = training.embed(model, list(samples.values())).z_fuse

    header = ["track_id", "label"] + [f"f_{i}" for i in range(model_cfg.fusion_dim)]
    _write_csv(args.out, header, ([s.track_id, str(s.label)] + [repr(float(v)) for v in vec]
                                  for s, vec in zip(samples.values(), z_fuse)))
    return CommandResult(
        EXIT_OK,
        f"exported {len(samples)} embedding(s) of width {model_cfg.fusion_dim} to {args.out}",
        {"rows": len(samples), "columns": len(header)},
    )


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dvmer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    # the run flags: --seed, --dimension and --no-* each set the run-config
    # field named by their dest; their None default keeps the file's value
    run = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    run.add_argument("--config", required=True, help="run config file (requires epochs, batch_size)")
    run.add_argument("--manifest", required=True, help="tab-separated track manifest")
    run.add_argument("--features", required=True, help="feature cache directory")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--dimension", choices=datakit.DIMENSIONS, default=None)
    run.add_argument("--no-dsaf", dest="use_dsaf", action="store_const", const=False, default=None,
                     help="encode views independently")
    run.add_argument("--no-pcl", dest="use_pcl", action="store_const", const=False, default=None,
                     help="disable pseudo-label learning")
    run.add_argument("--no-saml", dest="use_saml", action="store_const", const=False, default=None,
                     help="disable the contrastive memory")

    trained = argparse.ArgumentParser(add_help=False, parents=[run])
    trained.add_argument("--checkpoint", required=True)

    p = sub.add_parser("extract-features", parents=[json_flag], help="turn WAV tracks into feature caches")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of 44.1 kHz 16-bit WAV files")
    p.add_argument("--out", required=True, help="cache output directory")
    p.add_argument("--config", default=None, help="feature config file")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("train", parents=[run], help="train a model from cached features")
    p.add_argument("--out", required=True, help="output directory for checkpoint and logs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[trained], help="evaluate a checkpoint on a split")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--ensemble", dest="ensemble_eval", action="store_const", const=True, default=None,
                   help="average the three heads' probabilities")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", parents=[json_flag], help="convert an epoch log into a plotting CSV")
    p.add_argument("--log", required=True, help="epoch log from a training run")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("export-embeddings", parents=[trained], help="dump fused features per track as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or Inf surfaces as an op output naming the op
            result = args.func(args)
    except ConfigError as exc:
        return _emit(CommandResult(EXIT_CONFIG, f"config error: {exc}"), as_json)
    except NonFiniteValue as exc:
        return _emit(CommandResult(EXIT_NONFINITE, f"numeric error: {exc}"), as_json)
    except CheckpointMismatch as exc:
        return _emit(CommandResult(EXIT_CHECKPOINT, f"checkpoint mismatch: {exc}"), as_json)
    except (OSError, ValueError, DvmerError) as exc:
        return _emit(CommandResult(EXIT_DATA, f"data error: {exc}"), as_json)
    return _emit(result, as_json)


if __name__ == "__main__":
    sys.exit(main())
