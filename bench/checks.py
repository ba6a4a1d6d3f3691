"""Output checks for each workload's rounds.

Each check returns a list of problems (empty when the output is correct).
The feature cache is parsed here from its documented byte layout rather than
with dvmer's reader, one extracted track is compared with a float64
reference computed here from the documented frame geometry, and the eval
metrics are recomputed with an O(n^2) AUC.
"""

from __future__ import annotations

import json
import math
import os
import struct
import wave

import numpy as np

MEL_SHAPE = (128, 87)
COCH_SHAPE = (84, 87)
# max |program - float64 reference| of the log-energy views; the program
# stores float32, whose rounding alone is ~1e-6 here
REFERENCE_TOL = 1e-3
METRIC_TOL = 1e-9
EVAL_BATCH = 64  # the batch size of training.predict_scores, which eval uses


# -- extract -------------------------------------------------------------------


def read_cache(path) -> list[np.ndarray]:
    """Grams of a `.dmrf` file by the README layout; raises ValueError on
    any deviation from it."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"DMRF":
        raise ValueError("bad magic")
    if len(buf) < 8 or struct.unpack_from("<I", buf, 4)[0] != 1:
        raise ValueError("bad version")
    offset, grams = 8, []
    while offset < len(buf):
        if offset + 2 > len(buf):
            raise ValueError("truncated gram header")
        tag, rank = struct.unpack_from("<BB", buf, offset)
        offset += 2
        if tag != 0 or offset + 4 * rank > len(buf):
            raise ValueError(f"bad gram header (tag {tag}, rank {rank})")
        dims = struct.unpack_from(f"<{rank}I", buf, offset)
        offset += 4 * rank
        n_bytes = 4 * math.prod(dims)
        if offset + n_bytes > len(buf):
            raise ValueError("truncated payload")
        grams.append(np.frombuffer(buf, dtype="<f4", count=n_bytes // 4, offset=offset).reshape(dims))
        offset += n_bytes
    return grams


def check_cache(cache_path: str, track_id: str, config_hash: str) -> list[str]:
    """Shapes, finiteness and sidecar of one track's cache."""
    try:
        grams = read_cache(cache_path)
        with open(cache_path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{track_id}: {exc}"]
    problems = []
    shapes = [g.shape for g in grams]
    if shapes != [MEL_SHAPE, COCH_SHAPE]:
        problems.append(f"{track_id}: gram shapes {shapes}")
    if not all(np.all(np.isfinite(g)) for g in grams):
        problems.append(f"{track_id}: non-finite values")
    expected = {"track_id": track_id, "config_hash": config_hash,
                "grams": [{"name": "mel", "dims": list(MEL_SHAPE)}, {"name": "coch", "dims": list(COCH_SHAPE)}]}
    if sidecar != expected:
        problems.append(f"{track_id}: sidecar {sidecar}")
    return problems


def reference_views(wav_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Float64 Mel and cochleagram views of a WAV by the README geometry:
    60 s from 15 s (zero-padded), pre-emphasis 0.97, hop = ceil(len / 87),
    frame = 2 hop, Hamming window, FFT size 2 frame, then 128 unit-peak
    triangular Mel filters with a natural log, and 84 log-spaced 4th-order
    gammatone power responses (50 Hz - 18 kHz) with ^0.3 and log10; floor 1e-10."""
    with wave.open(wav_path, "rb") as wf:
        rate, channels = wf.getframerate(), wf.getnchannels()
        raw = wf.readframes(wf.getnframes())
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64).reshape(-1, channels).mean(axis=1) / 32768.0
    seg_len = 60 * rate
    seg = np.zeros(seg_len)
    piece = x[15 * rate:15 * rate + seg_len]
    seg[:piece.shape[0]] = piece
    y = seg.copy()
    y[1:] -= 0.97 * seg[:-1]

    hop = -(-seg_len // 87)
    frame = 2 * hop
    n_fft = 2 * frame
    n_frames = -(-seg_len // hop)
    y = np.concatenate([y, np.zeros((n_frames - 1) * hop + frame - seg_len)])
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(frame) / (frame - 1))
    power = np.empty((n_frames, n_fft // 2 + 1))
    for i in range(n_frames):
        spec = np.fft.rfft(y[i * hop:i * hop + frame] * window, n_fft)
        power[i] = spec.real ** 2 + spec.imag ** 2

    freqs = np.arange(n_fft // 2 + 1) * rate / n_fft
    mel_pts = np.linspace(0.0, 2595.0 * np.log10(1.0 + 22050.0 / 700.0), 130)
    edges = 700.0 * (10.0 ** (mel_pts / 2595.0) - 1.0)
    mel_bank = np.array([
        np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)
        for lo, mid, hi in zip(edges[:-2], edges[1:-1], edges[2:])
    ])
    centres = np.geomspace(50.0, 18000.0, 84)
    bandwidth = 1.019 * 24.7 * (4.37 * centres / 1000.0 + 1.0)
    gt_bank = (1.0 + ((freqs[None, :] - centres[:, None]) / bandwidth[:, None]) ** 2) ** -4.0

    mel = np.log(np.maximum(mel_bank @ power.T, 1e-10))
    coch = 0.3 * np.log10(np.maximum(gt_bank @ power.T, 1e-10))
    return mel, coch


def check_reference(cache_path: str, wav_path: str) -> list[str]:
    try:
        mel, coch = read_cache(cache_path)
    except (OSError, ValueError) as exc:
        return [f"reference track: {exc}"]
    ref_mel, ref_coch = reference_views(wav_path)
    problems = []
    for name, got, ref in (("mel", mel, ref_mel), ("coch", coch, ref_coch)):
        err = float(np.max(np.abs(got.astype(np.float64) - ref))) if got.shape == ref.shape else math.inf
        if not err <= REFERENCE_TOL:
            problems.append(f"reference track: {name} differs from the float64 reference by {err:.3g}")
    return problems


# -- train ---------------------------------------------------------------------


def check_train_run(run_dir: str, config_path: str, epochs: int) -> tuple[list[str], float]:
    """Epoch log records and a loadable checkpoint; returns the problems and
    the last record's total loss."""
    from dvmer import config as cfgmod
    from dvmer import training

    problems, loss_final = [], math.nan
    try:
        with open(os.path.join(run_dir, "epochs.log"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        return [f"epochs.log: {exc}"], loss_final
    if [r.get("epoch") for r in records] != list(range(epochs)):
        problems.append(f"epochs.log has epochs {[r.get('epoch') for r in records]}")
    for r in records:
        values = [v for v in r.values() if isinstance(v, (int, float))] + list(r.get("queue_coverage", []))
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epochs.log: non-finite value in epoch {r.get('epoch')}")
    if records:
        loss_final = float(records[-1].get("loss_total", math.nan))
    try:
        train_cfg, model_cfg = cfgmod.load_train_configs(config_path)
        model, _ = training.load_model_from_checkpoint(
            os.path.join(run_dir, "checkpoint.dmrc"), model_cfg,
            expected_hash=cfgmod.run_config_hash(train_cfg, model_cfg))
        if not all(np.all(np.isfinite(p.data)) for p in model.parameters().values()):
            problems.append("checkpoint: non-finite parameters")
    except Exception as exc:  # any refusal of the checkpoint is a failed check
        problems.append(f"checkpoint: {type(exc).__name__}: {exc}")
    return problems, loss_final


# -- infer ---------------------------------------------------------------------


def auc_oracle(labels, scores) -> float:
    """Pairwise AUC: the share of (positive, negative) pairs ranked right,
    ties counting one half; 0.5 when a class is absent."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return 0.5
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def metrics_oracle(labels, scores, preds) -> dict:
    labels, preds = np.asarray(labels), np.asarray(preds)
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    return {
        "acc": float(np.mean(preds == labels)),
        "f1": 2.0 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        "auc": auc_oracle(list(labels), list(scores)),
    }


def infer_expectations(inputs: dict) -> dict:
    """Per split, the metrics `eval` should print, recomputed from the
    checkpoint's fused-head probabilities; plus the manifest labels."""
    from dvmer import config as cfgmod
    from dvmer import data as datakit
    from dvmer import features as feats
    from dvmer import nncore as nc
    from dvmer import training

    train_cfg, model_cfg = cfgmod.load_train_configs(inputs["config"])
    model, _ = training.load_model_from_checkpoint(inputs["checkpoint"], model_cfg)
    records = datakit.parse_manifest(inputs["manifest"])
    labels = {r.track_id: r.label(train_cfg.dimension) for r in records}
    split = datakit.stratified_split(records, train_cfg.dimension, seed=train_cfg.seed)
    expected = {"labels": labels, "fusion_dim": model_cfg.fusion_dim}
    for name, ids in (("train", split.train_ids), ("test", split.test_ids)):
        scores, preds = [], []
        for start in range(0, len(ids), EVAL_BATCH):
            pairs = [feats.read_feature_cache(os.path.join(inputs["caches"], f"{i}.dmrf"))
                     for i in ids[start:start + EVAL_BATCH]]
            out = model.forward(np.stack([p.mel for p in pairs]), np.stack([p.coch for p in pairs]))
            probs = nc.softmax(out.logits_fuse).data
            scores.extend(float(p) for p in probs[:, 1])
            preds.extend(int(k) for k in np.argmax(probs, axis=1))
        expected[name] = metrics_oracle([labels[i] for i in ids], scores, preds)
    return expected


def check_eval_payload(payload, expected: dict, split: str) -> list[str]:
    if not isinstance(payload, dict) or payload.get("exit_code") != 0:
        return [f"eval {split}: payload {payload}"]
    return [
        f"eval {split}: {key} {payload.get(key)} != recomputed {value}"
        for key, value in expected[split].items()
        if not (isinstance(payload.get(key), float) and abs(payload[key] - value) <= METRIC_TOL)
    ]


def check_export_csv(path: str, expected: dict) -> list[str]:
    """One row per manifest track with its label and fusion_dim finite
    features."""
    width = expected["fusion_dim"]
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except OSError as exc:
        return [f"export: {exc}"]
    if not rows or rows[0] != ["track_id", "label"] + [f"f_{i}" for i in range(width)]:
        return ["export: bad header"]
    body = rows[1:]
    problems = []
    if sorted(r[0] for r in body) != sorted(expected["labels"]):
        problems.append(f"export: {len(body)} rows do not match the {len(expected['labels'])} manifest tracks")
    for r in body:
        try:
            ok = (len(r) == 2 + width and int(r[1]) == expected["labels"].get(r[0])
                  and all(math.isfinite(float(v)) for v in r[2:]))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"export: bad row for {r[0]}")
    return problems
