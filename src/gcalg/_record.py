"""The base of gcalg's result records: plain classes with written-out methods.

Generating a record's methods at import time is what the standard library's
record decorator does, and it costs about 11 ms to import (it pulls in
`inspect`, `dis`, `ast` and `tokenize`) and about 1 ms per class, as it
builds the methods through `exec`; for the records of this package that was
most of what `import gcalg.cli` cost.  A record writes its fields in its own
`__init__`, as one dict:

    class BettiPair(Record):
        def __init__(self, even: int, odd: int, over: str = "Q(i)"):
            _set(self, "__dict__", {"even": even, "odd": odd, "over": over})

Its fields are the parameters of that `__init__`, in order.  `Record` gives
each record the rest: assigning or deleting an attribute raises
AttributeError, a record equals only a record of its own class with equal
fields, it hashes over its fields (over `_hashed` when a class leaves some
out) and it prints as `Name(field=value, ...)`.  A
`functools.cached_property` still caches: it writes the instance dict.
"""

_set = object.__setattr__  # past Record.__setattr__: for a record's own __init__


class Record:
    __slots__ = ()
    _fields = ()  # set per class from its __init__
    _hashed = None  # the fields `hash` reads, when not all of them

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self, names) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._fields) == other._values(self._fields)

    def __hash__(self):
        return hash(self._values(self._hashed or self._fields))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
