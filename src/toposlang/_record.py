"""Record classes without `dataclasses`.

`@record` and `@record(frozen=True)` give a class the methods that
`dataclasses.dataclass` gives it with the same arguments: an `__init__`
over the annotated fields in order, with their defaults and
`field(default_factory=...)`, calling `__post_init__` if the class has one;
a field-wise `__eq__` between instances of the same class; the dataclass
`__repr__`; and either a `__hash__` over the fields and read-only
attributes (frozen) or no hash at all (not frozen).  A `__repr__`, `__eq__`
or `__hash__` written in the class body wins, as it does for a dataclass.

The syntax trees of both languages are records, so class creation is part
of every cold start: importing `dataclasses` loads `inspect` and its
dependencies, and its per-class code generation was most of the package's
own import time.  Here `__init__`, `__eq__` and `__hash__` come from one
`exec` per class, because instances are built, compared and hashed on hot
paths, and the rest are closures.
"""

_MISSING = object()


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A field whose default is a fresh `default_factory()` per instance."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen=False):
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    body = cls.__dict__
    names = tuple(body.get("__annotations__", ()))
    env = {"_setattr": object.__setattr__, "_factory": _Factory}
    params, init = ["self"], []
    for name in names:
        default = body.get(name, _MISSING)
        value = name
        if isinstance(default, _Factory):
            env[f"_make_{name}"] = default.make
            params.append(f"{name}=_factory")
            value = f"_make_{name}() if {name} is _factory else {name}"
            delattr(cls, name)
        elif default is not _MISSING:
            env[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        init.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if "__post_init__" in body:
        init.append("self.__post_init__()")
    fields = "".join(f"self.{name}," for name in names)
    others = "".join(f"other.{name}," for name in names)
    exec(f"def __init__({', '.join(params)}):\n {'; '.join(init) or 'pass'}\n"
         "def __eq__(self, other):\n"
         f" if other.__class__ is self.__class__: return ({fields}) == ({others})\n"
         " return NotImplemented\n"
         f"def __hash__(self): return hash(({fields}))\n", env)
    methods = {"__init__": env["__init__"], "__eq__": env["__eq__"], "__repr__": _repr(names)}
    hash_written = "__hash__" in body and not (body["__hash__"] is None and "__eq__" in body)
    if not hash_written:
        methods["__hash__"] = env["__hash__"] if frozen else None
    if frozen:
        methods["__setattr__"], methods["__delattr__"] = _frozen(cls, names)
    for name, method in methods.items():
        if name not in body or name == "__hash__":
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls


def _repr(names):
    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({items})"
    return __repr__


def _frozen(cls, names):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)
    return __setattr__, __delattr__
