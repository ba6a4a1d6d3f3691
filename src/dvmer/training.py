"""Composite training objective, optimiser, and the epoch/batch loop.

The total loss is a weighted sum of four parts: supervised cross-entropy on
all three heads, reliability-weighted pseudo-label cross-entropy on the
fused head, cross-view consistency (mean Jensen-Shannon divergence between
the temperature-scaled branch distributions), and the supervised contrastive
loss against the memory queue. Default weights are 1.0 / 0.8 / 0.2 / 0.1.
With PCL or SAML switched off, its term is one zero scalar, and without PCL
the temperature is 1 and the threshold 0 in every epoch.

Optimisation is adaptive moment estimation with bias correction and
decoupled weight decay, cosine-annealed learning rate over the run, and
global gradient-norm clipping. Two runs with one seed at the same BLAS
thread count, in one process or two, write byte-identical checkpoints; the
thread count changes the bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import curriculum
from . import memory
from . import nncore as nc
from .data import Sample, _check_dimension, labeled_mask
from .errors import CheckpointMismatch, ConfigError, EmptySplit, NonFiniteLoss, NonFiniteValue, check_fields, check_finite
from .features import FeaturePair
from .ioutil import BinaryReader, open_framed, pack_array_table, write_framed
from .model import BranchOutputs, DualViewModel, ModelConfig
from .nncore import Tensor

CHECKPOINT_MAGIC = b"DMRC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LossWeights:
    classification: float = 1.0
    pseudo: float = 0.8
    consistency: float = 0.2
    contrast: float = 0.1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    cosine_annealing: bool = True
    seed: int = 0
    mode: str = "full"              # "semi": labeled_mask picks the labeled rows, PCL pseudo-labels the rest
    labeled_fraction: float = 1.0
    use_dsaf: bool = True
    use_pcl: bool = True
    use_saml: bool = True
    lambda_cls: float = LossWeights.classification
    lambda_pl: float = LossWeights.pseudo
    lambda_cons: float = LossWeights.consistency
    lambda_cont: float = LossWeights.contrast
    tau_max: float = curriculum.TAU_MAX_DEFAULT
    tau_min: float = curriculum.TAU_MIN_DEFAULT
    theta_start: float = curriculum.THETA_START_DEFAULT
    theta_min: float = curriculum.THETA_MIN_DEFAULT
    contrast_temperature: float = memory.CONTRAST_TEMPERATURE_DEFAULT
    queue_size: int = 512
    queue_momentum: float | None = None
    contrastive_normalized: bool = False
    ensemble_eval: bool = False
    dimension: str = "arousal"

    def __post_init__(self):
        check_fields(self, positive=("epochs", "batch_size", "queue_size", "learning_rate", "grad_clip",
                                     "contrast_temperature", "tau_min", "tau_max"),
                     non_negative=("seed", "weight_decay", "lambda_cls", "lambda_pl", "lambda_cons", "lambda_cont"),
                     below_one=("queue_momentum",))
        if self.use_saml and self.queue_size < self.batch_size:
            raise ConfigError(f"queue_size {self.queue_size} must be at least batch_size {self.batch_size} "
                              "when use_saml is on")
        if not 0 <= self.theta_min <= self.theta_start <= 1:
            raise ConfigError(f"theta_min and theta_start must satisfy 0 <= theta_min <= theta_start <= 1, "
                              f"got {self.theta_min} and {self.theta_start}")
        if not self.tau_min <= self.tau_max:
            raise ConfigError(f"tau_min {self.tau_min} must not exceed tau_max {self.tau_max}")
        if not 0 < self.labeled_fraction <= 1:
            raise ConfigError(f"labeled_fraction must lie in (0, 1], got {self.labeled_fraction}")
        if self.mode not in ("full", "semi"):
            raise ConfigError(f"mode must be 'full' or 'semi', got {self.mode!r}")
        _check_dimension(self.dimension)

    def weights(self) -> LossWeights:
        return LossWeights(
            classification=self.lambda_cls,
            pseudo=self.lambda_pl,
            consistency=self.lambda_cons,
            contrast=self.lambda_cont,
        )


def model_config_for(config: TrainConfig, pair: FeaturePair, model_config: ModelConfig | None = None) -> ModelConfig:
    """The model for data shaped like pair (one token per gram frame), with DSAF as `use_dsaf` says."""
    return replace(model_config or ModelConfig(), cross_attention=config.use_dsaf, mel_bands=pair.mel.shape[0],
                   coch_channels=pair.coch.shape[0], frame_count=pair.mel.shape[1])


@dataclass
class Metrics:
    acc: float
    f1: float
    auc: float


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    tau: float
    theta: float
    loss_total: float
    loss_cls: float
    loss_pl: float
    loss_cons: float
    loss_cont: float
    mask_ratio: float
    mean_reliability: float
    mean_confidence: float
    queue_entropy: float
    queue_coverage: list
    train_acc: float


# -- loss pieces -----------------------------------------------------------


def classification_loss(outputs: BranchOutputs, labels, mask=None) -> Tensor:
    """Sum of the three heads' temperature-1 cross-entropies, batch-averaged.

    mask restricts the average to labeled samples; with an empty mask the
    loss is zero.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if mask is not None:
        keep = np.flatnonzero(np.asarray(mask, dtype=bool))
        if keep.size == 0:
            return Tensor(np.zeros((), dtype=outputs.logits_fuse.dtype))
    total = None
    for logits in (outputs.logits_mel, outputs.logits_coch, outputs.logits_fuse):
        per_sample = nc.cross_entropy(logits, labels)
        if mask is not None:
            per_sample = nc.take_rows(per_sample, keep)
        term = nc.tmean(per_sample)
        total = term if total is None else nc.add(total, term)
    return total


def consistency_loss(p_mel: Tensor, p_coch: Tensor) -> Tensor:
    """Batch mean of the cross-view JS divergence; differentiable through
    both branch distributions. The training step takes the same mean of the
    JS tensor whose values it also scores confidences with."""
    return nc.tmean(curriculum.js_divergence_tensor(p_mel, p_coch))


def total_loss(components: dict, weights: LossWeights) -> Tensor:
    """Weighted sum of the four loss components; disabled modules pass
    zero-valued components."""
    return nc.add(
        nc.add(
            nc.mul(components["cls"], weights.classification),
            nc.mul(components["pl"], weights.pseudo),
        ),
        nc.add(
            nc.mul(components["cons"], weights.consistency),
            nc.mul(components["cont"], weights.contrast),
        ),
    )


# -- optimiser -------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Adaptive moment estimation with bias correction and decoupled weight
    decay applied as p -= lr * (update + wd * p). A step that leaves a
    parameter non-finite raises NonFiniteValue naming that parameter."""

    def __init__(self, params: dict, lr: float = 1e-3, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None):
        """Update each parameter that holds a gradient. `p.data`, `m` and `v`
        are written in place, so they keep their arrays for the whole run; the
        element operations run in the order of the out-of-place formula, so
        the bits are its bits."""
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = m / (1.0 - ADAM_BETA1 ** t)
            denom = np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
            denom += ADAM_EPS
            update /= denom
            update += self.weight_decay * p.data
            update *= lr
            p.data -= update
            check_finite(p.data, NonFiniteValue, f"the update left parameter {name} non-finite")


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Half-cosine decay over the full run, floored at zero, no restarts."""
    return base_lr * 0.5 * (1.0 + float(np.cos(np.pi * epoch / total_epochs)))


def clip_grad_norm(params: dict, max_norm: float) -> tuple[float, float]:
    """Scale all gradients so the global L2 norm is at most max_norm.
    Returns (pre-clip norm, post-clip norm)."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    pre = float(np.sqrt(total))
    if pre > max_norm and pre > 0.0:
        scale = max_norm / pre
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
        return pre, max_norm
    return pre, pre


# -- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    model: DualViewModel
    queue: memory.MemoryQueue
    records: list
    model_config: ModelConfig


def _stack_batch(samples: list[Sample], idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pairs = [samples[i].pair for i in idx]  # one read per sample: a cache-backed sample reads its file anew
    mel = np.stack([p.mel for p in pairs])
    coch = np.stack([p.coch for p in pairs])
    labels = np.array([samples[i].label for i in idx], dtype=np.int64)
    return mel, coch, labels


def _train_step(model: DualViewModel, optimizer: AdamW, queue: memory.MemoryQueue, config: TrainConfig,
                batch: tuple, labeled: np.ndarray | None, tau: float, theta: float, lr: float, rng: np.random.Generator):
    """One optimiser step on one batch, then the memory enqueue: clear the
    gradients, forward, losses, backward, clipping, AdamW, enqueue. Returns
    plain values only, so the batch's graph dies on return: the loss floats
    by name, the `batch_confidences` records (None without PCL), and the
    counts of correct and of scored fused-head predictions. Only the labels
    of the rows `labeled` marks (every row when it is None) are read and scored."""
    mel, coch, labels = batch
    optimizer.zero_grad()  # the last step's gradients die before this step's graph is built
    outputs = model.forward(mel, coch, rng=rng, training=True)
    p_mel = nc.softmax(outputs.logits_mel, temperature=tau)
    p_coch = nc.softmax(outputs.logits_coch, temperature=tau)
    js = curriculum.js_divergence_tensor(p_mel, p_coch)  # feeds both the consistency loss and the confidences

    off = Tensor(0.0, dtype=np.float32)  # the term of a module that is switched off
    terms = {"cls": classification_loss(outputs, labels, mask=labeled), "pl": off, "cons": nc.tmean(js), "cont": off}
    confidences = None
    if config.use_pcl:
        confidences = curriculum.batch_confidences(p_mel.data, p_coch.data, theta, js=js.data)
        terms["pl"] = curriculum.pseudo_label_loss(confidences, outputs.logits_fuse,
                                                   eligible=None if labeled is None else ~labeled)
    if config.use_saml:
        kept, kept_labels = memory_rows(labels, labeled, confidences)
        z_kept = outputs.z_fuse if kept is None else nc.take_rows(outputs.z_fuse, kept)
        terms["cont"] = memory.contrastive_loss(
            nc.l2_normalize(z_kept), kept_labels, queue,
            tau_cont=config.contrast_temperature,
            normalized=config.contrastive_normalized,
        )
    loss = total_loss(terms, config.weights())

    loss.backward()
    clip_grad_norm(optimizer.params, config.grad_clip)
    optimizer.step(lr=lr)
    if config.use_saml:
        queue.enqueue(z_kept.data, kept_labels)
    losses = {name: float(t.data) for name, t in {"total": loss, **terms}.items()}
    hits = np.argmax(outputs.logits_fuse.data, axis=1) == labels
    if labeled is not None:
        hits = hits[labeled]
    return losses, confidences, int(hits.sum()), hits.size


def _epoch_record(epoch: int, lr: float, tau: float, theta: float, steps: list,
                  queue: memory.MemoryQueue) -> EpochRecord:
    """An epoch's record from its steps' returns, in batch order, and the
    queue after its last step. Each loss mean adds one batch at a time: a
    compensated `sum()`, as in Python 3.12, would give other bits. The two
    diagnostics give the curriculum and queue figures, and zeros without PCL or SAML."""
    losses, confidences, correct, scored = zip(*steps)
    totals = dict.fromkeys(losses[0], 0.0)
    for batch in losses:
        for name, value in batch.items():
            totals[name] += value
    diag = curriculum.curriculum_diagnostics([c for c in confidences if c is not None], tau, theta)
    qdiag = memory.queue_diagnostics(queue)
    return EpochRecord(
        epoch=epoch, lr=lr, tau=tau, theta=theta,
        **{f"loss_{name}": total / len(steps) for name, total in totals.items()},
        mask_ratio=diag["mask_ratio"], mean_reliability=diag["mean_reliability"],
        mean_confidence=diag["mean_confidence"], queue_entropy=qdiag["label_entropy"],
        queue_coverage=list(qdiag["class_coverage"]),
        train_acc=sum(correct) / sum(scored) if sum(scored) else 0.0,
    )


def run_training(
    train_samples: list[Sample],
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    on_epoch=None,
) -> TrainResult:
    """Train on the given samples per the curriculum loop.

    Per epoch: fix the temperature and threshold from the linear schedules
    and the learning rate from the cosine schedule, draw the batch order,
    run one `_train_step` per batch, and build the epoch's EpochRecord from
    the list of what the steps returned; `on_epoch` gets each record, and
    there is no per-step hook. A step returns no tensor, so at most one
    batch's autodiff graph is alive at a time. A non-finite loss or tensor
    raises NonFiniteLoss carrying the epoch and batch index. Deterministic
    given the seed, from which semi mode draws, per class, the rows whose
    labels it reads (`labeled_mask`); full mode reads every label.
    """
    if not train_samples:
        raise EmptySplit("training requires a nonempty sample list")
    model_config = model_config_for(config, train_samples[0].pair, model_config)

    init_rng, loop_rng = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)]
    model = DualViewModel(model_config, init_rng)
    optimizer = AdamW(model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    queue = memory.MemoryQueue(
        capacity=config.queue_size,
        dim=model_config.fusion_dim,
        n_classes=model_config.n_classes,
        momentum=config.queue_momentum,
    )

    n = len(train_samples)
    labeled = (labeled_mask([s.label for s in train_samples], config.labeled_fraction, config.seed)
               if config.mode == "semi" else None)
    records: list[EpochRecord] = []
    for epoch in range(config.epochs):
        tau, theta = curriculum.curriculum_state(
            epoch, config.epochs,
            tau_max=config.tau_max, tau_min=config.tau_min,
            theta_start=config.theta_start, theta_min=config.theta_min,
        ) if config.use_pcl else (1.0, 0.0)

        lr = cosine_lr(epoch, config.epochs, config.learning_rate) if config.cosine_annealing else config.learning_rate

        order = loop_rng.permutation(n)
        steps = []
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            batch, rows = _stack_batch(train_samples, idx), None if labeled is None else labeled[idx]
            try:
                steps.append(_train_step(model, optimizer, queue, config, batch, rows, tau, theta, lr, loop_rng))
            except NonFiniteValue as exc:
                raise NonFiniteLoss(
                    f"non-finite value in the step at epoch {epoch}, batch {batch_index}: {exc}",
                    epoch=epoch, batch_index=batch_index,
                ) from exc

        record = _epoch_record(epoch, lr, tau, theta, steps, queue)
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)

    return TrainResult(model=model, queue=queue, records=records, model_config=model_config)


def memory_rows(labels, labeled, confidences) -> tuple[np.ndarray | None, np.ndarray]:
    """Batch rows that join the memory, both as contrastive queries and as
    queue keys, and the labels they carry. With no labeled mask (None) every
    row joins with its ground truth and the rows come back as None, so
    callers add no gather (one would regroup the float32 gradient sums into
    z_fuse). With a mask the labeled rows join with their ground truth and
    the selected unlabeled rows with their pseudo-labels."""
    if labeled is None:
        return None, labels
    if confidences is None:
        kept = np.flatnonzero(labeled)
        return kept, labels[kept]
    kept = np.flatnonzero(labeled | confidences.selected)
    return kept, np.where(labeled, labels, confidences.pseudo_label)[kept]


# -- evaluation ---------------------------------------------------------------


def accuracy_score(labels, preds) -> float:
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    return float(np.mean(labels == preds))


def f1_score(labels, preds) -> float:
    """F1 of the positive class; zero when precision + recall is zero."""
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def auc_score(labels, scores) -> float:
    """Mann-Whitney rank AUC on positive-class scores; ties count one half.
    Returns 0.5 when a class is absent."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inv]  # mid-rank of each tie group, 1-based
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class Embeddings:
    """Forward-only outputs for a sample list, one row per sample in order."""

    z_fuse: np.ndarray
    logits_mel: np.ndarray
    logits_coch: np.ndarray
    logits_fuse: np.ndarray


# the training batch: inference's peak memory is one such batch's activations
INFER_BATCH = 16


def embed(model: DualViewModel, samples: list[Sample]) -> Embeddings:
    """Inference forward pass over samples in batches of INFER_BATCH, building
    no autodiff graph, so only one batch's activations are alive at a time."""
    if not samples:
        raise EmptySplit("no samples to embed")
    parts = {f.name: [] for f in fields(Embeddings)}
    with nc.no_grad():
        for start in range(0, len(samples), INFER_BATCH):
            mel, coch, _ = _stack_batch(samples, range(start, min(start + INFER_BATCH, len(samples))))
            outputs = model.forward(mel, coch, training=False)
            for name, chunks in parts.items():
                chunks.append(getattr(outputs, name).data)
    return Embeddings(**{name: np.concatenate(chunks) for name, chunks in parts.items()})


def predict_scores(model: DualViewModel, samples: list[Sample],
                   ensemble: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-class probabilities and argmax predictions for a sample list.

    Uses the fused head; ensemble mode averages the three heads'
    temperature-1 probabilities.
    """
    labels = np.array([s.label for s in samples], dtype=np.int64)
    out = embed(model, samples)
    probs = nc.softmax(Tensor(out.logits_fuse)).data
    if ensemble:
        probs = (
            nc.softmax(Tensor(out.logits_mel)).data
            + nc.softmax(Tensor(out.logits_coch)).data
            + probs
        ) / 3.0
    return labels, probs[:, 1].astype(np.float64), np.argmax(probs, axis=1)


def evaluate(model: DualViewModel, samples: list[Sample], ensemble: bool = False) -> Metrics:
    labels, scores, preds = predict_scores(model, samples, ensemble=ensemble)
    return Metrics(
        acc=accuracy_score(labels, preds),
        f1=f1_score(labels, preds),
        auc=auc_score(labels, scores),
    )


# -- checkpointing -------------------------------------------------------------


def save_checkpoint(path, result: TrainResult, config_hash: str):
    """Container with one section, the named parameters (`PARM`), stamped
    with the run config hash."""
    params = pack_array_table({n: p.data for n, p in result.model.parameters().items()})
    hash_raw = config_hash.encode("utf-8")
    write_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, [
        struct.pack("<H", len(hash_raw)), hash_raw,
        struct.pack("<I", 1), b"PARM", struct.pack("<Q", len(params)), params,
    ])


def read_checkpoint(path) -> dict:
    """Parse a checkpoint container; any short, malformed or trailing byte,
    or a repeated section tag, raises CheckpointMismatch."""
    reader = open_framed(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointMismatch, "checkpoint")
    (hash_len,) = reader.unpack("<H")
    config_hash = reader.text(hash_len)
    (n_sections,) = reader.unpack("<I")
    sections = {}
    for _ in range(n_sections):
        tag = reader.text(4, "ascii")
        if tag in sections:
            raise CheckpointMismatch(f"{path}: repeated section {tag}")
        (length,) = reader.unpack("<Q")
        section = BinaryReader(reader.take(length), f"{path}: section {tag}", CheckpointMismatch)
        sections[tag] = section.table()
        section.done("the table")
    reader.done("the last section")
    return {"config_hash": config_hash, "sections": sections}


class _NoDraws:
    """Stands in for the init generator when a checkpoint replaces every
    parameter: each draw is zeros of its size, so building the parts draws
    no random number. A load refuses a missing, extra or misshapen
    parameter, so no zero of this init survives it."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size, np.float32)

    normal = uniform


def load_model_from_checkpoint(path, model_config: ModelConfig, expected_hash: str | None = None) -> tuple[DualViewModel, dict]:
    """Rebuild a model from a checkpoint's `PARM` section; raises
    CheckpointMismatch when the stored config hash differs from
    expected_hash, or a parameter is missing, misshapen or non-finite.
    Other sections, such as the `ADAM` and `QUEU` sections of older
    checkpoints, are ignored."""
    payload = read_checkpoint(path)
    if expected_hash is not None and payload["config_hash"] != expected_hash:
        raise CheckpointMismatch(
            f"{path}: checkpoint hash {payload['config_hash']} != config hash {expected_hash}"
        )
    model = DualViewModel(model_config, _NoDraws())
    params = model.parameters()
    if "PARM" not in payload["sections"]:
        raise CheckpointMismatch(f"{path}: no parameter section")
    stored = payload["sections"]["PARM"]
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise CheckpointMismatch(f"{path}: parameter table mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, p in params.items():
        arr = np.asarray(stored[name], dtype=p.data.dtype)
        if arr.shape != p.data.shape:
            raise CheckpointMismatch(f"{path}: shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
        check_finite(arr, CheckpointMismatch, f"{path}: parameter {name} holds a non-finite value")
        p.data = arr  # the payload's own fresh array: a copy would only add a transient
    return model, payload
