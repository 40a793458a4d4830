"""The immutable record, the base of every value type of the package.

It lives apart from the kernel (:mod:`weylmin.scalars`, which re-exports
it), so a layer with records but no algebra, the Fock report, loads no
kernel.
"""


class Frozen:
    """An immutable record: the base of every value type of the package.

    A subclass lists its attributes in ``_fields``, usually as its
    ``__slots__`` too.  The constructor takes them by position, then by
    keyword, and raises TypeError on too many, a missing or an unknown one;
    a record with defaults or checks sets them in its own ``__init__``, with
    ``_init_fields`` or ``object.__setattr__``.  Afterwards they are
    read-only.  Two records are equal when they have the same class and
    equal field tuples, the hash is the hash of the field tuple, and the
    repr lists the fields.  The flat types (:class:`~weylmin.scalars.Flat`)
    override ``__eq__`` with their stored form, which is canonical; their
    ``_fields`` name views read off that form (the ``coeffs`` of a Poly,
    the ``re`` and ``im`` of a GaussRational).
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:
            args += tuple([kwargs.pop(name) for name in fields[len(args):] if name in kwargs])
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, "
                            "each once, by position or keyword")
        self._init_fields(*args)

    def _init_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        """Restore the ``(None, {slot: value})`` state that pickle and copy take."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
