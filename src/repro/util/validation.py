"""Small argument-checking helpers with consistent error messages.

These keep validation one-liners readable at call sites and guarantee
uniform exception types: every violated precondition raises
:class:`ValueError`, never a bare assert that could be compiled away
under ``python -O``.
"""

from __future__ import annotations

from numbers import Integral

__all__ = ["require", "require_int", "require_positive", "require_in_range"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValueError(message)


def require_int(value: object, low: int, high: int | None = None, *, name: str) -> None:
    """Raise unless ``value`` is an integer, not a bool, in ``[low, high]`` (``high=None``: no cap)."""
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    require(
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and low <= value
        and (high is None or value <= high),
        f"{name} must be an integer {bound}, got {value!r}",
    )


def require_positive(value: float, *, name: str = "value") -> None:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_in_range(value: float, low: float, high: float, *, name: str = "value") -> None:
    """Raise unless ``low <= value <= high`` (inclusive on both ends)."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
