"""Exception hierarchy, and the file-schema field check, shared across the package."""

from typing import Any


class PrivboundError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PrivboundError, ValueError):
    """Inputs violate a construction contract (mass, shape, range, index)."""


class RegimeError(PrivboundError):
    """An operation was called outside its epsilon regime."""


class SizeCapError(PrivboundError):
    """A dense tensor would exceed the configured size cap."""


class AlphabetMismatchError(PrivboundError):
    """A mechanism does not match the problem's alphabets."""


class SchemaError(PrivboundError, ValueError):
    """A problem or mechanism file does not parse against its schema."""


def is_number(v: object) -> bool:
    """A JSON number a float can hold: a float, or an int (not bool) that
    ``float`` converts without overflow."""
    if isinstance(v, float):
        return True
    if not isinstance(v, int) or isinstance(v, bool):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def kind_name(v: object) -> str:
    """How a value that is not a number is named in a SchemaError."""
    return "an integer beyond float range" if isinstance(v, int) and not isinstance(v, bool) else type(v).__name__


_REQUIRED = object()


def want(doc: dict, key: str, kind: type, where: str, default: Any = _REQUIRED) -> Any:
    """``doc[key]`` checked against ``kind``; SchemaError if it is missing
    and has no ``default``, or has another type. ``float`` accepts any
    number a float can hold (``is_number``) and returns a float; neither
    ``int`` nor ``float`` accepts bool."""
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing field {key!r}")
        return default
    val = doc[key]
    if kind is float:
        if not is_number(val):
            raise SchemaError(f"{where}.{key}: expected a number, got {kind_name(val)}")
        return float(val)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val
