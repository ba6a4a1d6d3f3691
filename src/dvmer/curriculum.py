"""Curriculum pseudo-labelling: linear temperature and threshold schedules,
cross-view agreement via Jensen-Shannon divergence, reliability-weighted
confidence scoring, pseudo-label selection, and the weighted pseudo-label
loss.

Temperature descends linearly from tau_max to tau_min and the selection
threshold from theta_start to theta_min as training progresses, both by one
rule; an epoch's pair of values is a CurriculumState(tau, theta).
Cross-view disagreement JS(p, q) is bounded by ln 2 (nats); reliability
r = exp(-JS) therefore lives in [0.5, 1]. Confidence is c = r * max(p_fuse)
with p_fuse the mean of the two branch distributions; samples whose
confidence clears the current threshold receive pseudo-labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nncore as nc
from .errors import BadEpoch, NotADistribution
from .nncore import Tensor

TAU_MAX_DEFAULT = 1.5
TAU_MIN_DEFAULT = 0.7
THETA_START_DEFAULT = 0.65
THETA_MIN_DEFAULT = 0.35


class CurriculumState(NamedTuple):
    """One epoch's softmax temperature and selection threshold."""

    tau: float
    theta: float


@dataclass
class SampleConfidence:
    p_mel: np.ndarray
    p_coch: np.ndarray
    p_fuse: np.ndarray
    js: float
    r: float
    c: float
    pseudo_label: int
    selected: bool = False


def _descend(t: int, total: int, start: float, end: float) -> float:
    """Linear descent from start at t=0 to end at t=total."""
    if total <= 0:
        raise BadEpoch(f"total epochs must be positive, got {total}")
    if t < 0 or t > total:
        raise BadEpoch(f"epoch {t} outside [0, {total}]")
    return start - (start - end) * (t / total)


def temperature_at(t: int, total: int, tau_max: float = TAU_MAX_DEFAULT, tau_min: float = TAU_MIN_DEFAULT) -> float:
    """Linear descent from tau_max at t=0 to tau_min at t=total."""
    return _descend(t, total, tau_max, tau_min)


def threshold_at(t: int, total: int, theta_start: float = THETA_START_DEFAULT, theta_min: float = THETA_MIN_DEFAULT) -> float:
    """Linear descent from theta_start at t=0 to theta_min at t=total."""
    return _descend(t, total, theta_start, theta_min)


def curriculum_state(epoch: int, total_epochs: int, tau_max=TAU_MAX_DEFAULT, tau_min=TAU_MIN_DEFAULT,
                     theta_start=THETA_START_DEFAULT, theta_min=THETA_MIN_DEFAULT) -> CurriculumState:
    """Schedule values for one epoch of a run with total_epochs epochs.

    Epochs are indexed 0..total_epochs-1 and mapped onto the full schedule
    range so the logged trajectory hits both endpoints exactly: the first
    epoch uses the maximum values and the last epoch the minimums. Unpacks
    as `tau, theta`.
    """
    if total_epochs <= 0:
        raise BadEpoch(f"total_epochs must be positive, got {total_epochs}")
    if epoch < 0 or epoch >= total_epochs:
        raise BadEpoch(f"epoch {epoch} outside [0, {total_epochs})")
    span = max(total_epochs - 1, 1)
    return CurriculumState(_descend(epoch, span, tau_max, tau_min), _descend(epoch, span, theta_start, theta_min))


def _validate_pair(p, q, names, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """p and q as float64 arrays of one shape with `ndim` axes, whose every
    vector along the last axis is a distribution."""
    out = []
    for arr, name in zip((p, q), names):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != ndim:
            raise NotADistribution(f"{name} must have {ndim} axis(es), got shape {arr.shape}")
        if not np.all(arr >= 0):  # also false for NaN
            raise NotADistribution(f"{name} has negative or NaN entries")
        sums = arr.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise NotADistribution(f"{name} sums to {sums!r}, not 1")
        out.append(arr)
    if out[0].shape != out[1].shape:
        raise NotADistribution(f"shape mismatch {out[0].shape} vs {out[1].shape}")
    return out[0], out[1]


def _js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """JS divergence in nats over the last axis, with 0*log(0/x) := 0."""
    m = 0.5 * (p + q)

    def kl(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0, a * np.log(a / m), 0.0).sum(axis=-1)

    return 0.5 * kl(p) + 0.5 * kl(q)


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats, with 0*log(0/x) := 0.

    Symmetric and bounded by ln 2.
    """
    return float(_js(*_validate_pair(p, q, ("p", "q"), ndim=1)))


def reliability(p_mel, p_coch) -> float:
    """exp(-JS); 1 for perfect agreement, 0.5 at maximal disagreement."""
    return float(np.exp(-js_divergence(p_mel, p_coch)))


def confidence_and_pseudo_label(p_mel, p_coch, theta: float | None = None) -> SampleConfidence:
    """Fuse branch distributions, score the sample, and pick its label.

    Argmax ties break toward the lowest class index. When theta is given
    the selected flag is set from c >= theta.
    """
    p_mel, p_coch = _validate_pair(p_mel, p_coch, ("p_mel", "p_coch"), ndim=1)
    row = batch_confidences(p_mel[None], p_coch[None], np.inf if theta is None else theta)[0]
    return SampleConfidence(
        p_mel=p_mel, p_coch=p_coch, p_fuse=0.5 * (p_mel + p_coch),
        js=float(row.js), r=float(row.r), c=float(row.c),
        pseudo_label=int(row.pseudo_label), selected=bool(row.selected),
    )


def batch_confidences(p_mel_batch, p_coch_batch, theta: float, js=None) -> np.recarray:
    """Score a batch of [B, C] branch distributions at once.

    Returns a record array of B rows with fields js, r = exp(-js),
    c = r * max(p_fuse), pseudo_label = argmax(p_fuse) (ties to the lowest
    class), selected = c >= theta, and p_max = max(p_fuse). Any row that is
    not a distribution raises NotADistribution. js is the per-row JS the
    caller already has (the training step passes the detached values of its
    js_divergence_tensor); without it, JS is computed here in float64.
    """
    p_mel, p_coch = _validate_pair(p_mel_batch, p_coch_batch, ("p_mel", "p_coch"), ndim=2)
    js = _js(p_mel, p_coch) if js is None else np.asarray(js, dtype=np.float64)
    r = np.exp(-js)
    p_fuse = 0.5 * (p_mel + p_coch)
    p_max = p_fuse.max(axis=1)
    c = r * p_max
    return np.rec.fromarrays([js, r, c, np.argmax(p_fuse, axis=1), c >= theta, p_max],
                             names="js,r,c,pseudo_label,selected,p_max")


def pseudo_label_loss(confidences: np.recarray, fused_logits: Tensor, eligible=None) -> Tensor:
    """Reliability-weighted cross-entropy over the selected samples.

    Labels, reliabilities and the selection mask are all detached from the
    graph; gradients reach only the fused logits. Returns zero when nothing
    is selected. The optional eligible mask restricts which samples may
    contribute (the unlabeled partition in semi mode).
    """
    keep = confidences.selected if eligible is None else confidences.selected & eligible
    idx = np.flatnonzero(keep)
    if not idx.size:
        return Tensor(np.zeros((), dtype=fused_logits.dtype))
    weights = confidences.r[idx].astype(fused_logits.dtype)
    per_sample = nc.cross_entropy(nc.take_rows(fused_logits, idx), confidences.pseudo_label[idx])
    return nc.tmean(nc.mul(per_sample, Tensor(weights)))


def js_divergence_tensor(p: Tensor, q: Tensor) -> Tensor:
    """Differentiable JS over the last axis of probability tensors.

    Hard zeros in the inputs contribute 0 (log floor keeps them finite);
    softmax outputs never hit the floor, so the training path is exact.
    """
    m = nc.mul(nc.add(p, q), 0.5)
    log_m = nc.log_clipped(m)
    term_p = nc.tsum(nc.mul(p, nc.sub(nc.log_clipped(p), log_m)), axis=-1)
    term_q = nc.tsum(nc.mul(q, nc.sub(nc.log_clipped(q), log_m)), axis=-1)
    return nc.mul(nc.add(term_p, term_q), 0.5)


class EpochCurriculumStats(list):
    """An epoch's `batch_confidences` records, one per batch, in batch order."""

    record = list.append


def curriculum_diagnostics(batches: list, tau: float, theta: float) -> dict:
    """Epoch summary of pseudo-label behaviour from its `batch_confidences`
    records (0.0 for every statistic with none, as without PCL); the
    strength is the mean max(p_fuse) of the selected samples."""
    if not batches:
        return {**dict.fromkeys(("mean_confidence", "std_confidence", "mean_reliability", "std_reliability",
                                 "mask_ratio", "pseudo_label_strength"), 0.0), "tau": tau, "theta": theta}
    epoch = np.concatenate(batches)
    strength = epoch["p_max"][epoch["selected"]]
    return {
        "mean_confidence": float(np.mean(epoch["c"])),
        "std_confidence": float(np.std(epoch["c"])),
        "mean_reliability": float(np.mean(epoch["r"])),
        "std_reliability": float(np.std(epoch["r"])),
        "mask_ratio": float(epoch["selected"].mean()),
        "pseudo_label_strength": float(np.mean(strength)) if strength.size else 0.0,
        "tau": tau,
        "theta": theta,
    }
