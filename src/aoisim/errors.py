"""Exception types shared across the package."""
from __future__ import annotations


class InvalidParamsError(ValueError):
    """A rate or probability is outside its admissible range."""


class UnstableError(ValueError):
    """The requested closed form only exists for a stable queue (lambda < mu)."""


class DegenerateParamsError(ValueError):
    """lambda == mu: the two geometric phases coincide and the closed form is singular."""


class DomainError(ValueError):
    """An argument is outside the domain of the requested quantity."""


class ProtocolError(RuntimeError):
    """A queue operation was called in a state that the access protocol forbids."""


class ConfigError(ValueError):
    """A run configuration is malformed or internally inconsistent."""
