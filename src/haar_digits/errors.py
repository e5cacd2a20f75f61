"""Shared exception types for the haar_digits package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before converging."""


class ConsistencyError(RuntimeError):
    """Two supposedly-equal evaluation routes disagreed beyond tolerance."""
