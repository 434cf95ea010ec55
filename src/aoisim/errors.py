"""Exception types shared across the package."""
from __future__ import annotations


class InvalidParamsError(ValueError):
    """A rate or probability is outside its admissible range."""


class UnstableError(ValueError):
    """The requested closed form only exists for a stable queue (lambda < mu)."""


class DomainError(ValueError):
    """An argument is outside the domain of the requested quantity."""


class ProtocolError(RuntimeError):
    """A queue operation was called in a state that the access protocol forbids."""


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""
