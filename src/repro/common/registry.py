"""One name → entry registry for every pluggable part of the system.

Round-engine stages, serving policies, placers, server optimizers and
scenarios all register under a name and are looked up by it.  They share
this one mechanism and its error contract: an empty name, a taken name
and an unknown name each raise :class:`~repro.common.errors.ConfigError`,
and the unknown-name message lists what is registered.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.common.errors import ConfigError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Name → entry, labelled ``kind`` in every error message."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def add(self, name: str, entry: T) -> T:
        if not name:
            raise ConfigError(f"{self.kind} needs a non-empty name")
        if name in self._entries:
            raise ConfigError(f"{self.kind} {name!r} already registered")
        self._entries[name] = entry
        return entry

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator: ``@INGRESS_STAGES.register("gateway")`` on a class or
        factory registers it under ``name`` and returns it unchanged."""
        return lambda entry: self.add(name, entry)

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; have {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def values(self) -> list[T]:
        """Registered entries, in registration order."""
        return list(self._entries.values())
