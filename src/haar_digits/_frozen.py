"""The base of the package's immutable value classes.

A subclass lists its fields in ``_fields``, in constructor order, and its
``__init__`` stores them with ``_set``. repr, equality and hash read that
tuple, so they are plain methods here rather than code generated for each
class at import time (what ``dataclasses`` does, at a cost to every start-up).
"""

from __future__ import annotations


class Frozen:
    """repr, equality, hash and read-only attributes over ``_fields``.

    Equality holds only between instances of one class whose fields are
    equal; the hash is that of the field tuple. Attributes set with ``_set``
    or cached by ``functools.cached_property`` go straight into the instance
    dict; any other assignment or deletion raises AttributeError.
    """

    _fields: tuple = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
