"""The base of the package's record classes.

A record names its fields, in constructor order, in __match_args__, and
writes its own __init__: four records check their input and five take
defaults. One generator writes every record's __eq__ and __hash__: when a
class body names its fields, Record.__init_subclass__ compiles, once, the
source a hand-written pair would spell out for them, so the methods that
run are that pair (specs are hashed on every evaluate). A method the
class body defines is kept, as CorpusReport's __hash__ = None is; a class
that names no fields of its own, as FrozenRecord, gets none.

The bases also hold the repr and a frozen record's refusal to be
assigned to. A frozen record's __init__ writes its fields with one
self.__dict__.update call, which goes past the refusal to the
instance's own attribute storage, where object.__setattr__, one call a
field as a frozen dataclass makes, would put them in nearly twice the
time; every run makes an Outcome. engine.TraceEvent, built once per
contraction of a traced run, is a slotted record that assigns them.
Pickle and copy restore that storage directly, without calling
__init__ or __setattr__.
"""


class Record:
    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__match_args__")
        if not fields:
            return
        mine = "".join(f"self.{name}, " for name in fields)
        theirs = "".join(f"other.{name}, " for name in fields)
        source = ("def __eq__(self, other):\n"
                  "    if other.__class__ is self.__class__:\n"
                  f"        return ({mine}) == ({theirs})\n"
                  "    return NotImplemented\n"
                  "def __hash__(self):\n"
                  f"    return hash(({mine}))\n")
        methods = {}
        exec(source, {}, methods)
        for name, method in methods.items():
            if name not in cls.__dict__:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
