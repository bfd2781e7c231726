"""The base of the package's immutable value types.

A value type's fields are its instance ``__dict__``, which the subclass's own
``__init__`` fills directly, in declaration order. These classes take the
place of frozen ``@dataclass`` ones, whose module imports ``inspect`` and
builds each class by running generated source: both cost every command's
start.
"""


class Value:
    """Compares and hashes by its fields, against its own class only; reprs
    like a dataclass; refuses assignment and deletion; pickles by its
    ``__dict__``."""

    @classmethod
    def _trusted(cls, **fields):
        """An instance of ``fields``, given in declaration order, that are valid
        by construction: the class's ``__init__`` and its checks do not run."""
        value = object.__new__(cls)
        value.__dict__.update(fields)
        return value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
