"""The base of the package's record classes.

A record names its fields, in constructor order, in __match_args__, and
writes its own __init__, __eq__ and __hash__ over them: specs are hashed
on every evaluate and every run builds an Outcome, so those stay as
direct as the code a generator would write. (engine.TraceEvent, built
once per contraction of a traced run, is a slotted class of its own.)
The bases hold only the cold parts: the repr, and a frozen record's
refusal to be assigned to. A frozen record's __init__ stores its fields
with object.__setattr__, as a frozen dataclass does, which keeps them
in the instance's own attribute storage, the fastest to read back.
Pickle and copy restore that storage directly, without calling __init__
or __setattr__.
"""


class Record:
    __slots__ = ()
    __match_args__ = ()

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
