"""Exception types shared across the package.

``DomainError`` covers invalid mathematical input (order violations, bad
shapes); ``ResourceCapError`` signals that an enumeration exceeded its
configured cap.  The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations

import os

__all__ = [
    "DomainError",
    "OrderError",
    "ShapeError",
    "InternalError",
    "ResourceCapError",
    "resolve_cap",
    "cap_exceeded",
]


class DomainError(ValueError):
    """Invalid input in the mathematical domain."""


class OrderError(DomainError):
    """A required weak-order relation does not hold."""


class ShapeError(DomainError):
    """A diagram, filling, or composition has the wrong shape."""


class InternalError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


class ResourceCapError(RuntimeError):
    """An enumeration exceeded its cap.

    ``count`` holds the partial count reached before giving up, and
    ``raise_with`` the way to raise the cap, which ends the message.
    """

    def __init__(self, message: str, count: int | None = None, raise_with: str | None = None):
        super().__init__(message)
        self.count = count
        self.raise_with = raise_with

    def __str__(self) -> str:
        text = super().__str__()
        return f"{text}; raise it with {self.raise_with}" if self.raise_with else text


def resolve_cap(explicit: int | None, default: int) -> int:
    """Pick an enumeration cap.

    An explicit argument wins; otherwise the default, raised by the
    ``WOL_NMAX_OVERRIDE`` environment variable when that is set higher.
    """
    if explicit is not None:
        return explicit
    override = os.environ.get("WOL_NMAX_OVERRIDE")
    if override is not None:
        try:
            return max(default, int(override))
        except ValueError:
            raise DomainError(f"WOL_NMAX_OVERRIDE must be an integer, got {override!r}") from None
    return default


def cap_exceeded(what: str, kind: str, cap: int, explicit: int | None, count: int | None = None):
    """The ResourceCapError for ``what`` past the ``kind`` cap (a count or
    a ground-set size), naming how to raise it: the ``cap=`` argument when
    the caller passed one, since that wins, else the environment.  The CLI
    names its ``--cap`` flag in place of ``cap=``."""
    how = "the cap= argument" if explicit is not None else "WOL_NMAX_OVERRIDE"
    return ResourceCapError(f"{what} exceeds the {kind} cap {cap}", count, how)
