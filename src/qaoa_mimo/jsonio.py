"""Deterministic JSON serialization for experiment records.

Records are written with sorted keys, no whitespace and every float as
its shortest round-trip repr (non-finite floats are refused), so two runs
that produce the same values produce byte-identical files.  Records read
back obey the config's value rules (strict_int, strict_float).
"""

import json
import math
import numbers

import numpy as np

SCHEMA_VERSION = 1


def dumps(obj):
    """Serialize ``obj`` to a canonical JSON string (no trailing newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_line(obj, fh):
    """Write one canonical JSON record plus newline (JSON-lines row)."""
    fh.write(dumps(obj))
    fh.write("\n")


def format_float(value):
    """Render a float as its shortest round-trip repr, as dumps does."""
    return repr(float(value))


def strict_int(value):
    """int(value) of an integral number in the int64 range; refuses bools and non-numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        not isinstance(value, numbers.Integral) and not float(value).is_integer()
    ):
        raise ValueError(f"{value!r} is not an integer")
    value = int(value)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{value} is outside the 64-bit integer range")
    return value


def strict_float(value):
    """float(value) of a finite number; refuses bools and non-numbers such as strings."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def float_array(values):
    """1-D float64 array of a JSON list, each entry under the strict_float rule."""
    if not isinstance(values, list):
        raise TypeError(f"{type(values).__name__} is not a list")
    return np.array([strict_float(v) for v in values], dtype=np.float64)


def read_fields(record, kind, **converters):
    """Return ``{key: convert(record[key])}`` for each keyword converter.

    Raises ValueError, naming the record kind, unless ``record`` is a JSON
    object holding every key with a value its converter accepts.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{kind} record must be a JSON object, not {type(record).__name__}")
    missing = [key for key in converters if key not in record]
    if missing:
        raise ValueError(f"{kind} record is missing {', '.join(map(repr, missing))}")
    fields = {}
    for key, convert in converters.items():
        try:
            fields[key] = convert(record[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} record has a wrong-typed {key!r}: {exc}") from exc
    return fields
