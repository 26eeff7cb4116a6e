"""Report serialization and potential-spec parsing for the CLI.

JSON is the single canonical report format.  Floats are rendered with 17
significant digits so that every value round-trips bit-identically through
json.loads; numpy scalars and arrays, dataclasses and enums are converted
structurally.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import numbers
from itertools import repeat

import numpy as np

from .counterexample import TorusPotential, jets_at_origin


def fields_of(obj) -> dict:
    """A dataclass's fields by name; unlike dataclasses.asdict, arrays are not copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must not contain non-finite numbers, got {x}")
    return format(x, ".17g")


def _encode(obj, pieces: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, enum.Enum):
        _encode(obj.value, pieces, indent, level)
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f" and obj.size:
            _encode_float_array(obj, pieces, pad, pad_in)
        else:
            _encode(obj.tolist(), pieces, indent, level)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _encode(fields_of(obj), pieces, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                key = str(key)
            pieces.append(pad_in + json.dumps(key) + ": ")
            _encode(val, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, val in enumerate(obj):
            pieces.append(pad_in)
            _encode(val, pieces, indent, level + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _encode_float_array(arr: np.ndarray, pieces: list, pad: str, pad_in: str) -> None:
    """A nonempty 1-D float array in the list layout, checked and joined at once."""
    finite = np.isfinite(arr)
    if not finite.all():
        _format_float(float(arr[~finite][0]))  # raises the error of the list path
    body = (",\n" + pad_in).join(map(format, arr.tolist(), repeat(".17g")))
    pieces.append("[\n" + pad_in + body + "\n" + pad + "]")


def dumps_json(obj, indent: int = 2) -> str:
    """Serialize a report structure with 17-significant-digit floats."""
    pieces: list = []
    _encode(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _number(value, what: str, whole: bool = False):
    """A finite JSON number as a float (an int if `whole`), else a ValueError naming `what`.

    Booleans and strings are not numbers, and a whole number may be written 2 or 2.0
    but not 2.7.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (not whole or x.is_integer()):
            return int(x) if whole else x
    kind = "a whole number" if whole else "a finite number"
    raise ValueError(f"{what} must be {kind}, got {value!r}")


def parse_potential(spec: dict) -> TorusPotential:
    """Build a potential from a {"terms": [[coeff, px, py], ...]} mapping."""
    if not isinstance(spec, dict) or not isinstance(spec.get("terms"), list):
        raise ValueError('potential spec must be an object with a "terms" list')
    terms = []
    for entry in spec["terms"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"each term must be [coeff, px, py], got {entry!r}")
        coeff, px, py = entry
        terms.append((
            _number(coeff, "a term coefficient"),
            _number(px, "a term power", whole=True),
            _number(py, "a term power", whole=True),
        ))
    return TorusPotential(tuple(terms))


def parse_jet_table(spec: dict) -> dict[int, np.ndarray]:
    """Parse a {"jets": {"2": [a, b], "4": [...], ...}} mapping."""
    table = spec["jets"]
    if not isinstance(table, dict) or not table:
        raise ValueError('"jets" must be a nonempty object keyed by even order')
    jets = {}
    for key, coeffs in table.items():
        try:
            order = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"jet order keys must be integers, got {key!r}") from None
        if not isinstance(coeffs, list):
            raise ValueError(f"the order-{key} jet must be a list of coefficients, got {coeffs!r}")
        jets[order] = np.asarray([_number(c, "a jet coefficient") for c in coeffs])
    return jets


def parse_side(spec, max_order: int) -> dict[int, np.ndarray]:
    """One endpoint of a propagation problem: terms or an explicit jet table."""
    if spec is None:
        return {2: np.zeros(2)}
    if not isinstance(spec, dict):
        raise ValueError("each endpoint must be an object")
    if "jets" in spec:
        return parse_jet_table(spec)
    return jets_at_origin(parse_potential(spec), max_order)
