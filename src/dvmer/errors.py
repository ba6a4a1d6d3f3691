"""Exception types shared across the package."""


class DvmerError(Exception):
    """Base class for all package errors."""


class ConfigError(DvmerError):
    """Invalid or inconsistent configuration."""


class BadFeatureCache(ConfigError):
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


class NonFiniteLoss(DvmerError):
    """Training produced a non-finite loss; carries the offending batch index."""

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
