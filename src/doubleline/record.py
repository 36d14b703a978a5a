"""Immutable records, the one base class of the package's value classes.

A subclass's annotations are its fields, in order; a class attribute is a
field's default.  ``__init_subclass__`` reads them and the ``__post_init__``
hook once.  A record is built by position or keyword, then runs the hook
(which may coerce a field, or store an attribute derived from the fields,
by writing ``vars(self)``); it refuses assignment and deletion, equals only
a record of its own class with equal fields, and is hashable when its fields
are (it hashes their tuple).  Its ``__dict__`` holds the fields, the derived
attributes and, when read, the package's one ``functools.cached_property``.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = (*getattr(cls, "_fields", ()), *cls.__annotations__)
        names, count, post_init = frozenset(fields), len(fields), getattr(cls, "__post_init__", None)
        defaults, set_dict = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}, object.__setattr__

        def __init__(self, *args, **kwargs):
            # the fast paths: every field by position, or exactly the fields by keyword
            if args and len(args) == count and not kwargs:
                kwargs = dict(zip(fields, args))
            elif args or kwargs.keys() != names:
                given = {**dict(zip(fields, args)), **kwargs} if args else kwargs
                if len(given) < len(args) + len(kwargs):
                    raise TypeError(f"{cls.__name__} takes {count} fields, each given once")
                kwargs = {**defaults, **given}
                if kwargs.keys() != names:
                    field = min(kwargs.keys() ^ names)
                    problem = "has no" if field in kwargs else "is missing"
                    raise TypeError(f"{cls.__name__} {problem} field {field!r}")
            set_dict(self, "__dict__", kwargs)
            if post_init is not None:
                post_init(self)

        cls.__init__ = __init__

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
