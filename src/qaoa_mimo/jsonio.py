"""Deterministic JSON serialization for experiment records.

Every float is written with 17 significant digits (``%.17g``), which is
enough to round-trip IEEE-754 doubles exactly, and keys are emitted in
sorted order.  Two runs that produce the same values therefore produce
byte-identical files.
"""

import json
import math

SCHEMA_VERSION = 1


def _render_float(value):
    text = format(value, ".17g")
    if text.lstrip("-").isdigit():
        text += ".0"  # keep the value a float across a parse round trip
    return text


def _encode(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} is not serializable")
        out.append(_render_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    """Serialize ``obj`` to a canonical JSON string (no trailing newline)."""
    out = []
    _encode(obj, out)
    return "".join(out)


def dump_line(obj, fh):
    """Write one canonical JSON record plus newline (JSON-lines row)."""
    fh.write(dumps(obj))
    fh.write("\n")


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
        except TypeError as exc:
            raise ValueError(f"{kind} record has a wrong-typed {key!r}: {exc}") from exc
    return fields


def format_float(value):
    """Render a float with the same 17-significant-digit policy as dumps."""
    return _render_float(float(value))
