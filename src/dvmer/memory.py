"""Contrastive feature memory: a fixed-capacity circular queue of unit-norm
fused features with labels, plus the supervised InfoNCE loss over it and
queue-health diagnostics. Anchoring same-class features from earlier batches
counteracts stylistic drift across tracks.

The loss for one query q with label y sums -log softmax mass over every
same-class key in the queue (softmax over all valid keys at the contrastive
temperature). There is no division by the positive count by default; the
normalised variant is available behind a flag. Queries with no same-class
key contribute zero, as does an entirely invalid queue.
"""

from __future__ import annotations

import numpy as np

from . import nncore as nc
from .errors import BadTemperature, BatchTooLarge, NonFiniteValue, check_finite
from .nncore import Tensor

CONTRAST_TEMPERATURE_DEFAULT = 0.07


class MemoryQueue:
    """Circular buffer of L2-normalised feature keys and their labels.

    Writes advance a modular pointer, overwriting the oldest entries.
    Zero-vector features are stored but flagged invalid so they never join
    the loss. An optional momentum mode blends overwritten valid slots as
    normalise(m * old + (1 - m) * new) instead of replacing them.
    """

    def __init__(self, capacity: int = 512, dim: int = 256, n_classes: int = 2,
                 momentum: float | None = None, dtype=np.float32):
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        self.momentum = momentum
        self.keys = np.zeros((self.capacity, self.dim), dtype=dtype)
        self.labels = np.zeros(self.capacity, dtype=np.int64)
        self.valid = np.zeros(self.capacity, dtype=bool)
        self.write_index = 0

    def __len__(self) -> int:
        return int(self.valid.sum())

    def enqueue(self, features, labels):
        """Normalise and write a batch at consecutive (wrapping) positions."""
        features = np.asarray(features, dtype=self.keys.dtype)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != self.dim:
            raise BatchTooLarge(f"features must be [B, {self.dim}], got {features.shape}")
        batch = features.shape[0]
        if batch > self.capacity:
            raise BatchTooLarge(f"batch {batch} exceeds queue capacity {self.capacity}")
        if labels.shape != (batch,):
            raise BatchTooLarge(f"labels shape {labels.shape} does not match batch {batch}")
        check_finite(features, NonFiniteValue, "queue features must be finite")

        pos = (self.write_index + np.arange(batch)) % self.capacity
        norms = np.linalg.norm(features, axis=1)
        nonzero = norms != 0.0
        new_keys = np.zeros_like(features)
        new_keys[nonzero] = features[nonzero] / norms[nonzero, None]
        if self.momentum is not None:
            blend = np.flatnonzero(nonzero & self.valid[pos])
            blended = self.momentum * self.keys[pos[blend]] + (1.0 - self.momentum) * new_keys[blend]
            # row-wise dot products: a vector's np.linalg.norm is sqrt(dot), and
            # these sum in the same order, where norm(axis=1) would not
            blended_norms = np.sqrt((blended[:, None, :] @ blended[:, :, None]).reshape(-1))
            ok = blended_norms > 0
            new_keys[blend[ok]] = blended[ok] / blended_norms[ok, None]
        self.keys[pos] = new_keys
        self.labels[pos] = labels
        self.valid[pos] = nonzero
        self.write_index = (self.write_index + batch) % self.capacity
        return self


def contrastive_loss(
    queries: Tensor,
    query_labels,
    queue: MemoryQueue,
    tau_cont: float = CONTRAST_TEMPERATURE_DEFAULT,
    normalized: bool = False,
) -> Tensor:
    """Batch-mean supervised InfoNCE against the queue's valid keys.

    queries must be L2-normalised [N_q, D]. Keys are constants; gradients
    reach the queries only. With normalized=True each query's positive sum
    is divided by its positive count. Zero when there are no queries or
    no valid key.
    """
    if tau_cont <= 0:
        raise BadTemperature(f"contrastive temperature must be positive, got {tau_cont}")
    query_labels = np.asarray(query_labels, dtype=np.int64)
    valid_idx = np.flatnonzero(queue.valid)
    if queries.shape[0] == 0 or valid_idx.size == 0:
        return Tensor(np.zeros((), dtype=queries.dtype))
    keys = queue.keys[valid_idx].astype(queries.dtype)
    key_labels = queue.labels[valid_idx]

    sims = nc.mul(nc.matmul(queries, Tensor(keys.T)), 1.0 / tau_cont)
    log_probs = nc.log_softmax(sims, axis=-1)

    positives = (query_labels[:, None] == key_labels[None, :]).astype(queries.dtype)
    if normalized:
        counts = positives.sum(axis=1, keepdims=True)
        positives = np.divide(positives, counts, out=np.zeros_like(positives), where=counts > 0)
    per_query = nc.tsum(nc.mul(log_probs, Tensor(positives)), axis=-1)
    return nc.neg(nc.tmean(per_query))


def queue_diagnostics(queue: MemoryQueue) -> dict:
    """Label entropy (nats) and per-class coverage of the valid keys; with
    no valid key, an entropy of 0.0 and a coverage of 0.0 per class."""
    valid_idx = np.flatnonzero(queue.valid)
    if valid_idx.size == 0:
        return {"label_entropy": 0.0, "class_coverage": (0.0,) * queue.n_classes}
    labels = queue.labels[valid_idx]

    coverage = np.zeros(queue.n_classes)
    for cls in range(queue.n_classes):
        coverage[cls] = float(np.mean(labels == cls))
    probs = coverage[coverage > 0]
    entropy = float(0.0 - np.sum(probs * np.log(probs)))  # +0.0 for one class, where negation gives -0.0

    return {
        "label_entropy": entropy,
        "class_coverage": tuple(float(c) for c in coverage),
    }
