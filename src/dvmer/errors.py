"""Exception types shared across the package, the one range check of every config and the one NaN/Inf check."""

import math


class DvmerError(Exception):
    """Base class for all package errors."""


class ConfigError(DvmerError):
    """Invalid or inconsistent configuration."""


def check_fields(config, positive=(), non_negative=(), below_one=()):
    """Raise ConfigError naming the first float field of the dataclass config
    that is NaN or infinite, then the first named field that is not > 0
    (positive), is < 0 (non_negative) or lies outside [0, 1) (below_one). A
    field whose default is None is unset when None, and passes; elsewhere
    None is refused."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    for names, holds, rule in ((positive, lambda v: v > 0, "must be positive"),
                               (non_negative, lambda v: v >= 0, "must not be negative"),
                               (below_one, lambda v: 0 <= v < 1, "must lie in [0, 1)")):
        for name in names:
            value = getattr(config, name)
            unset = value is None and getattr(type(config), name, 0) is None
            if not unset and (value is None or not holds(value)):
                raise ConfigError(f"{name} {rule}, got {value}")


def check_finite(values, error, message):
    """Raise error(message) if the array values holds a NaN or an infinity; an empty array passes.
    min and max propagate NaN and show +-inf without a mask the size of values."""
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise error(message)


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


class ClassTooSmall(DvmerError):
    """A class has too few records for a stratified split."""


class NoPairs(DvmerError):
    """Annotation consistency check requires at least one duplicate pair."""


class EmptySplit(DvmerError):
    """Evaluation requested on an empty split."""


class CheckpointMismatch(DvmerError):
    """Checkpoint config hash differs from the supplied config."""
