"""Immutable values: the one base of the package's value classes.

A subclass lists its fields in ``__slots__``.  :class:`Frozen` refuses to
assign or delete a field once the value is built; its ``__init__`` takes
the fields by position, in slot order.  A class that checks or derives its
fields writes its own ``__init__`` and sets each field with
``object.__setattr__``, which costs less than a call to this one on the
hot paths.  :class:`Value` adds equality and hashing over every slot.
"""

from operator import attrgetter


class Frozen:
    """A slotted object whose fields are set once, when it is built."""

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """A Frozen value equal to, and hashed like, one of its class with equal slots.

    An instance of another class, a tuple of the same fields included, is
    unequal: ``__eq__`` returns NotImplemented for it.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))
