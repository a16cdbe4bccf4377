"""The base of wol's immutable value classes, built without ``dataclasses``."""


class Frozen:
    """Behaves as a frozen dataclass.  A subclass's ``__init__`` stores its
    fields in ``self.__dict__``, where ``cached_property`` also writes, and
    their tuple as ``_key``, built once: an instance equals one of its own
    class with an equal key, hashes as that tuple and takes no assignment."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
