"""Report serialization and potential-spec parsing for the CLI.

JSON is the single canonical report format.  orjson writes it in compiled
code, with shortest round-trip float digits, so every value parses back
bit-identically through json.loads.  numpy scalars and arrays go through
their float64 or int lists, dataclasses through their fields and enums by
value; a non-finite number is refused, where orjson would write null.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np
import orjson

from .counterexample import TorusPotential, jets_at_origin

# orjson's own dataclass path writes the instance __dict__, memoised properties
# included, so dataclasses pass through to _plain, which writes their fields.
_JSON_OPTIONS = (
    orjson.OPT_INDENT_2 | orjson.OPT_NON_STR_KEYS | orjson.OPT_APPEND_NEWLINE
    | orjson.OPT_PASSTHROUGH_DATACLASS
)
_INT_RANGE = range(-(1 << 63), 1 << 64)  # what orjson writes; it raises a bare TypeError beyond


def fields_of(obj) -> dict:
    """A dataclass's fields by name; unlike dataclasses.asdict, arrays are not copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _is_dataclass_instance(obj) -> bool:
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type)


def _require_encodable(obj) -> None:
    """ValueError on a non-finite number or an int beyond 64 bits anywhere in `obj`."""
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"reports must not contain non-finite numbers, got {obj}")
    elif isinstance(obj, int):
        if obj not in _INT_RANGE:
            raise ValueError(f"reports hold integers of at most 64 bits, got {obj}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            _require_encodable(float(obj[~np.isfinite(obj)][0]))
    elif isinstance(obj, dict):
        for value in obj.values():
            _require_encodable(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _require_encodable(value)
    elif _is_dataclass_instance(obj):
        _require_encodable(fields_of(obj))


def _plain(obj):
    """orjson's fallback: numpy values as (float64) lists, dataclasses as their fields."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if _is_dataclass_instance(obj):
        return fields_of(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_json(obj) -> str:
    """Serialize a report structure: 2-space indent, shortest round-trip floats."""
    _require_encodable(obj)
    return orjson.dumps(obj, default=_plain, option=_JSON_OPTIONS).decode()


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
