"""Exception types shared across the engine.

Every error raised on purpose is an EngineError, so callers (and the CLI)
can separate engine-level validation failures from genuine bugs.  There are
five classes, one per thing the caller must fix, and every raise names a
stable kebab-case ``code``; ``str(exc)`` is the message alone.  The codes:

MalformedDocument: missing-field, bad-field, bad-json, not-an-object.
InvalidAtlas: duplicate-id, generator-parity, dangling-generator,
    rule-counts, rule-invariants, no-generators, metadata-mismatch,
    surgery-value, not-confluent.
UnknownName: unknown-atlas, unknown-generator, class-not-held.
WrongRegime: unreduced-slope, not-greater, not-integer-lesser,
    not-noninteger-lesser, negative-twist, unsupported-window,
    no-range-for-slope, wrong-window, divide-sign, unknown-form,
    inconsistent-slope, unknown-regime, link-mismatch,
    unsearchable-object, kind-mismatch.
OutOfRange: cutoff-above-peak, too-many-rows, too-wide, empty-range,
    component-count, vector-length, negative-count, bad-index,
    not-a-permutation, budget-exceeded, bad-multiplicity, entry-parity,
    bad-stabilization.
"""


class EngineError(Exception):
    """Base class of engine errors, built as ``Kind(code, message)``; both stay in ``args``."""

    code = property(lambda self: self.args[0])

    def __str__(self) -> str:
        return self.args[1]


class MalformedDocument(EngineError):
    """A link, class or atlas document lacks a field or has one of the wrong type."""


class InvalidAtlas(EngineError):
    """An atlas's records disagree with one another or with its metadata."""


class UnknownName(EngineError):
    """A builtin atlas, generator or class that the atlas does not define."""


class WrongRegime(EngineError):
    """A slope, lesser form or object outside the regime the operation takes."""


class OutOfRange(EngineError):
    """A cutoff, count, index, size or budget past what the operation allows."""


# What reading a field of a parsed JSON document raises when the field is
# missing or has the wrong type.
DOCUMENT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def malformed(what: str, exc: Exception) -> MalformedDocument:
    """The MalformedDocument for one of DOCUMENT_ERRORS raised reading ``what``."""
    if isinstance(exc, KeyError):
        return MalformedDocument("missing-field", f"{what} has no field {exc}")
    return MalformedDocument("bad-field", f"malformed {what}: {exc}")


def checked(value, kind: type, field: str):
    """``value`` if its type is exactly ``kind``, int or bool, else TypeError:
    int() would read 2.9 and "3", True is an int, and bool("false") is True."""
    if type(value) is not kind:
        noun = "boolean" if kind is bool else "integer"
        raise TypeError(f"{field} must be a JSON {noun}, got {value!r}")
    return value
