"""Exception types shared across the engine.

Every error raised on purpose derives from EngineError so callers (and the
CLI) can separate engine-level validation failures from genuine bugs.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class DuplicateId(EngineError):
    """Two generators in one atlas share an id."""


class InvariantMismatch(EngineError):
    """A rewrite rule or constructed value violates (rot, tb) bookkeeping."""


class ParityViolation(EngineError):
    """rot + tb must be odd for every class handled by this engine."""


class MetadataInconsistent(EngineError):
    """Atlas metadata (tbb, width ceiling, thickness flag) disagrees."""


class NotConfluent(EngineError):
    """Two rewrite rules of one generator give one class two normal forms."""


class UnsupportedKind(EngineError):
    """Unknown builtin atlas name."""


class UnknownGenerator(EngineError):
    """A class refers to a generator id the atlas does not define."""


class CutoffAbovePeak(EngineError):
    """Mountain-range cutoff lies above the atlas peak row."""


class TooManyRows(EngineError):
    """A range or a class listing would walk more rows than ``mountain.MAX_ROWS``."""


class TooWide(EngineError):
    """An ASCII grid would have more rot columns than ``render.MAX_COLUMNS``."""


class NotReduced(EngineError):
    """Cabling slope (p, q) must satisfy p >= 1 and gcd(p, q) == 1."""


class WrongRegime(EngineError):
    """Operation called with a slope outside its regime."""


class WrongWindow(EngineError):
    """Lesser-cable base class does not sit at tb = ceil(q/p)."""


class RegimeMismatch(EngineError):
    """Links compared across regimes, slopes, or component counts."""


class LengthMismatch(EngineError):
    """Stabilization vector length differs from the component count."""


class MalformedDocument(EngineError):
    """A link, class or atlas document lacks a field or has one of the wrong type."""


# What reading a field of a parsed JSON document raises when the field is
# missing or has the wrong type.
DOCUMENT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def malformed(what: str, exc: Exception) -> MalformedDocument:
    """The MalformedDocument for one of DOCUMENT_ERRORS raised reading ``what``."""
    if isinstance(exc, KeyError):
        return MalformedDocument(f"{what} has no field {exc}")
    return MalformedDocument(f"malformed {what}: {exc}")


def checked(value, kind: type, field: str):
    """``value`` if its type is exactly ``kind``, int or bool, else TypeError:
    int() would read 2.9 and "3", True is an int, and bool("false") is True."""
    if type(value) is not kind:
        noun = "boolean" if kind is bool else "integer"
        raise TypeError(f"{field} must be a JSON {noun}, got {value!r}")
    return value


class BadIndex(EngineError):
    """Component index out of range."""


class NotAPermutation(EngineError):
    """Sequence passed as a permutation is not one."""


class KindMismatch(EngineError):
    """Oracle asked to compare objects of different kinds or slope data."""


class BudgetExceeded(EngineError):
    """Search budget exhausted before the answer was certain."""


class EmptyRange(EngineError):
    """Renderer called on a mountain range with no entries."""


class InvalidMultiplicity(EngineError):
    """A mountain-range entry has multiplicity below 1."""

    def __init__(self, rot: int, tb: int, mult: int) -> None:
        super().__init__(f"multiplicity {mult} at ({rot}, {tb}) must be >= 1")
