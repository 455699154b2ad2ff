"""Exception types shared across the package."""

from __future__ import annotations


class ThmfracError(Exception):
    """Base class for package errors."""


class ConfigError(ThmfracError):
    """Invalid scenario configuration.

    Carries the full list of validation messages so a config file can be
    fixed in one pass.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


class PointNotFound(ThmfracError, LookupError):
    """A query point lies outside every element of the mesh."""


class SolverFailure(ThmfracError, RuntimeError):
    """A linear or constrained solve broke down."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class NonConvergence(SolverFailure):
    """An iteration loop hit its cap; carries the increment history. Both
    staggered loops fail in one message form, and the inner loop's history
    holds every inner pass of the step, across its outer iterations."""

    def __init__(self, message: str, history: list | None = None):
        super().__init__(message)
        self.history = history or []
