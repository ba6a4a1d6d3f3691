"""Exception types shared across the package, and the config finiteness check."""

import math


class DvmerError(Exception):
    """Base class for all package errors."""


class ConfigError(DvmerError):
    """Invalid or inconsistent configuration."""


def check_finite(config):
    """Raise ConfigError naming the first float field of the dataclass config that is NaN or infinite."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


class BadFeatureCache(DvmerError):
    """Malformed feature cache file; the CLI reports it as a data error."""


class BadSampleRate(DvmerError):
    """Audio input is not at the required sample rate."""


class TrackTooShort(DvmerError):
    """Track is shorter than the minimum usable duration."""


class ShapeMismatch(DvmerError):
    """Tensor or array shapes do not line up."""


class HeadDivisibility(DvmerError):
    """Embedding dimension is not divisible by the head count."""


class BadTemperature(DvmerError):
    """Softmax or contrastive temperature must be positive."""


class NonFiniteValue(DvmerError):
    """A NaN or Inf appeared in a tensor operation."""


class NonFiniteLoss(NonFiniteValue):
    """A training step produced a non-finite value; carries its epoch and batch index."""

    def __init__(self, message, epoch=None, batch_index=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


class BadEpoch(DvmerError):
    """Schedule queried outside the valid epoch range."""


class NotADistribution(DvmerError):
    """Vector is not a valid probability distribution."""


class BatchTooLarge(DvmerError):
    """Enqueued batch exceeds the queue capacity."""


class EmptyQueue(DvmerError):
    """Queue diagnostics requested with no valid entries."""


class ClassTooSmall(DvmerError):
    """A class has too few records for a stratified split."""


class NoPairs(DvmerError):
    """Annotation consistency check requires at least one duplicate pair."""


class EmptySplit(DvmerError):
    """Evaluation requested on an empty split."""


class CheckpointMismatch(DvmerError):
    """Checkpoint config hash differs from the supplied config."""
