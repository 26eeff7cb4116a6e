"""Report serialization, the output-file writer and potential-spec parsing for the CLI.

JSON is the single canonical report format.  orjson writes it in compiled
code, with shortest round-trip float digits, so every value parses back
bit-identically through json.loads.  A float64 array of one or more
dimensions is written by orjson's numpy support, straight from its buffer
(a non-contiguous view that a caller hands in is copied to a contiguous
one first); other arrays and numpy scalars go through their float64 or int
lists, dataclasses through their fields and enums by value.  The text is the same as if every array were a list.  A
non-finite number is refused, where orjson would write null.

encode_report checks the whole report before it hands out any text, then
hands it out as byte chunks, an entry of the report's "orders" dict at a
time, so a writer holds about one order's text at a time, never the whole
report.  encodable is that check alone, for a part of a report that is
known before the work that fills the rest.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import os
import stat
from collections.abc import Iterable, Iterator

import numpy as np
import orjson

from .counterexample import TorusPotential, jets_at_origin

_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_NON_STR_KEYS | orjson.OPT_SERIALIZE_NUMPY
_INT_RANGE = range(-(1 << 63), 1 << 64)  # what orjson writes; it raises a bare TypeError beyond
# The key whose dict encode_report hands out one entry at a time, and the text
# orjson puts before and after the entries of {"orders": {...}} at 2-space indent.
_SPLIT_KEY = "orders"
_SPLIT_HEAD = b'{\n  "orders": {'
_SPLIT_TAIL = b"\n  }\n}"


def fields_of(obj) -> dict:
    """A dataclass's fields by name; unlike dataclasses.asdict, arrays are not copied."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def encodable(obj):
    """`obj` in the types orjson writes as a report does, checked in full.

    Containers are rebuilt around the same leaves: dicts stay dicts, tuples
    become lists, dataclasses the dict of their fields (orjson's own dataclass
    path writes the instance __dict__, memoised properties included), enums
    their value.  A float64 array of one or more dimensions stays an array, in
    the C order that orjson writes (a strided view is copied); every other
    array and numpy scalar becomes its list or Python value, where orjson's
    numpy support would write differently (float32 by its own shortest digits,
    0-d arrays not at all).  ValueError on a non-finite number
    or an int beyond 64 bits, TypeError on a value no report holds.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"reports must not contain non-finite numbers, got {obj}")
    elif isinstance(obj, int):
        if obj not in _INT_RANGE:
            raise ValueError(f"reports hold integers of at most 64 bits, got {obj}")
    elif isinstance(obj, dict):
        return {key: encodable(value) for key, value in obj.items()}
    elif isinstance(obj, (list, tuple)):
        return [encodable(value) for value in obj]
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            return encodable(obj.tolist())
        if not np.isfinite(obj).all():
            encodable(float(obj[~np.isfinite(obj)][0]))
        return np.ascontiguousarray(obj)
    elif isinstance(obj, np.generic):
        return encodable(obj.item())
    elif isinstance(obj, enum.Enum):
        return encodable(obj.value)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return encodable(fields_of(obj))
    elif not (obj is None or isinstance(obj, str)):
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")
    return obj


def _dumps(obj, last: bool) -> bytes:
    option = _JSON_OPTIONS | orjson.OPT_APPEND_NEWLINE if last else _JSON_OPTIONS
    return orjson.dumps(obj, option=option)


def encode_report(obj) -> Iterator[bytes | memoryview]:
    """A report's JSON as byte chunks: 2-space indent, shortest round-trip floats.

    The whole report is checked before this returns, so a refused report
    (ValueError, TypeError) writes nothing.  A report whose "orders" entry is a
    nonempty dict comes out an order at a time: each order is encoded alone in
    a one-key wrapper at its own depth and sliced out, so no text is
    re-indented, with the entries before "orders" in the first call and those
    after it in the last.  The chunks join to the text of one orjson call.
    """
    report = encodable(obj)
    orders = report.get(_SPLIT_KEY) if isinstance(report, dict) else None
    if not (isinstance(orders, dict) and orders):
        return iter((_dumps(report, last=True),))
    return _order_chunks(report, orders)


def _order_chunks(report: dict, orders: dict) -> Iterator[bytes | memoryview]:
    names = list(report)
    split = names.index(_SPLIT_KEY)
    for index, (key, value) in enumerate(orders.items()):
        first, last = index == 0, index == len(orders) - 1
        wrapper = {name: report[name] for name in names[:split]} if first else {}
        wrapper[_SPLIT_KEY] = {key: value}
        if last:
            wrapper.update((name, report[name]) for name in names[split + 1:])
        text = _dumps(wrapper, last)
        if not first:
            yield b","
        start = 0 if first else len(_SPLIT_HEAD)
        end = len(text) if last else len(text) - len(_SPLIT_TAIL)
        yield memoryview(text)[start:end]


def dumps_json(obj) -> str:
    """The text of encode_report(obj), joined and decoded."""
    return b"".join(encode_report(obj)).decode()


def write_file(path, data: bytes | Iterable[bytes]) -> None:
    """Write `data`, bytes or an iterable of byte chunks, to `path` in place.

    The file is created if need be, opened without O_TRUNC, written from offset
    0 and then, if it is a regular file, cut to the length written, so no stale
    tail stays.  Truncating a file that holds data to zero length first frees
    its blocks and, on ext4, starts writeback on close, which cost about as
    much as a second-jet solve.  A
    device or pipe such as /dev/null is written but not truncated.  Like
    open(path, "w"), this keeps the inode (hard links see the new data), applies
    the umask to a new file, and is not atomic: a crash or a concurrent reader
    can see partial data.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        for chunk in chunks:
            view = memoryview(chunk)
            written += len(view)
            while view:
                view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _number(value, what: str, whole: bool = False):
    """A finite JSON number as a float (an int if `whole`), else a ValueError naming `what`.

    Booleans and strings are not numbers, and a whole number may be written 2 or 2.0
    but not 2.7. A JSON integer is returned exactly, never rounded through a float.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if whole and isinstance(value, numbers.Integral):
            return int(value)
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
