"""Semantic exception hierarchy shared by all srat modules."""


class SratError(Exception):
    """Base error for this package."""


class DomainError(SratError, ValueError):
    """Inputs violate an operation's contract (type, shape, range)."""


class ConfigError(SratError, ValueError):
    """An experiment or grid configuration failed validation."""


class IngestionError(SratError):
    """A data file could not be parsed; the message carries the line number."""


class AttackError(SratError):
    """Adversarial example generation failed (non-finite gradients)."""


class EvaluationError(SratError):
    """An evaluation pass met non-finite logits or features."""


class TrainingError(SratError):
    """Training failed; the message carries epoch/batch context."""
