"""Immutable records and report-based check results.

Checks never abort on the first failure; they collect every violation so a
front end can print the whole list for hand-entered data.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable, TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the package's immutable value classes.

    A subclass annotates its fields, in order, and sets them in its own
    `__init__` through the instance dict.  It gets `_fields` (the annotated
    names), `__eq__`, `__hash__` and `__match_args__` when it is created, and
    defines none of them itself.
    Equality holds only between instances of the same class and compares
    the fields in order; the hash is the hash of the tuple of fields; the
    repr is `Name(field=value, ...)`; assigning or deleting an attribute
    raises AttributeError.  Anything else in the instance dict (a cached
    fact) stays out of all of these."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # under `from __future__ import annotations` a plain dict of names
        cls._fields = tuple(cls.__dict__["__annotations__"])
        fields = attrgetter(*cls._fields)
        if len(cls._fields) > 1:
            key = fields
        else:
            # attrgetter of one name gives the value, not a 1-tuple

            def key(record: Record) -> tuple:
                return (fields(record),)

        # closures over key: cheaper per call than looking a key up on self,
        # which counts where records are cache keys (min_poly)
        def __eq__(self: Record, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Record) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__, cls.__match_args__ = __eq__, __hash__, cls._fields

    @classmethod
    def _certified(cls: type[_R], *fields: Any) -> _R:
        """The instance with `fields` in declaration order, unchecked: for
        values the caller built to pass `__init__`'s checks, in the form
        `__init__` stores.  Equal to, and hashing as, the checked instance."""
        record = object.__new__(cls)
        vars(record).update(zip(cls._fields, fields, strict=True))
        return record

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(Record):
    rule: str
    witness: tuple  # basis indices or labels pinpointing the failure
    message: str

    def __init__(self, rule: str, witness: tuple, message: str) -> None:
        vars(self).update(rule=rule, witness=witness, message=message)


class ValidationReport(Record):
    passed: bool
    violations: tuple[Violation, ...]

    def __init__(self, passed: bool, violations: tuple[Violation, ...] = ()) -> None:
        vars(self).update(passed=passed, violations=violations)

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "ValidationReport":
        vs = tuple(violations)
        return cls(passed=not vs, violations=vs)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport.from_violations(self.violations + other.violations)

    def __bool__(self) -> bool:
        return self.passed
