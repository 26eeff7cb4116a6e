import dataclasses
import enum
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusjets import report_io
from torusjets.report_io import (
    dumps_json, fields_of, parse_jet_table, parse_potential, parse_side, write_file,
)


def test_floats_roundtrip_bit_exact():
    values = [math.pi, 1 / 3, 1e-300, -0.0, 2**53 + 1.0, 6.02e23, 5e-324]
    text = dumps_json({"values": values})
    back = json.loads(text)["values"]
    assert all(a == b for a, b in zip(back, values))


def test_numpy_and_enum_encoding():
    class Kind(enum.Enum):
        SPACE_LIKE = "SpaceLike"

    doc = {
        "flag": np.bool_(True),
        "count": np.int64(7),
        "x": np.float64(0.1),
        "arr": np.arange(3.0),
        "kind": Kind.SPACE_LIKE,
        "none": None,
        "empty_list": [],
        "empty_map": {},
    }
    back = json.loads(dumps_json(doc))
    assert back == {
        "flag": True,
        "count": 7,
        "x": 0.1,
        "arr": [0.0, 1.0, 2.0],
        "kind": "SpaceLike",
        "none": None,
        "empty_list": [],
        "empty_map": {},
    }


@dataclass
class Row:
    label: str
    weight: float

    @functools.cached_property
    def doubled(self) -> float:
        return 2 * self.weight


def test_dataclass_and_int_keys():
    row = Row("a", 1.5)
    assert row.doubled == 3.0  # a memoised property is not a field and stays out
    text = dumps_json({"rows": [row], "by_order": {2: [1.0], 4: [0.5]}})
    back = json.loads(text)
    assert back["rows"] == [{"label": "a", "weight": 1.5}]
    assert back["by_order"] == {"2": [1.0], "4": [0.5]}


ARRAYS = {
    "float_1d": np.array([0.1, -0.0, 5e-324, 1e300, -1e300, math.pi, 2**53 + 1.0, 0.0]),
    "float_2d": np.array([[0.1, -0.0], [5e-324, 1e300]]),
    "empty": np.array([]),
    "empty_2d": np.zeros((0, 3)),
    "single": np.array([1 / 3]),
    "int": np.arange(-3, 4),
    "float32": np.array([0.1, -2.5], dtype=np.float32),
    "reversed_view": np.linspace(-1.0, 1.0, 7)[::-2],
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_arrays_encode_like_lists(name):
    arr = ARRAYS[name]
    assert dumps_json({"a": arr}) == dumps_json({"a": arr.tolist()})
    nested, nested_lists = [arr, {"b": [arr]}], [arr.tolist(), {"b": [arr.tolist()]}]
    assert dumps_json(nested) == dumps_json(nested_lists)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_rejected(bad):
    for arr in (np.array([1.0, bad, 2.0]), np.array([[1.0], [bad]])):
        with pytest.raises(ValueError, match="finite"):
            dumps_json({"a": arr})


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        dumps_json({"x": math.inf})
    with pytest.raises(ValueError, match="finite"):
        dumps_json({"x": math.nan})
    with pytest.raises(ValueError, match="finite"):
        dumps_json({"rows": [Row("a", 1.0), Row("b", math.nan)]})


@pytest.mark.parametrize("big", [2**64, -(2**63) - 1, 10**30])
def test_integers_beyond_64_bits_rejected(big):
    with pytest.raises(ValueError, match=str(big)):
        dumps_json({"count": [big]})


def test_64_bit_integer_extremes_encode():
    extremes = [2**64 - 1, -(2**63), np.uint64(2**64 - 1), np.int64(-(2**63))]
    assert json.loads(dumps_json(extremes)) == [2**64 - 1, -(2**63)] * 2


def test_strings_roundtrip():
    texts = ["σ₂ ≈ ε·π", "quote \" and back\\slash", "tab\tnew\nline\u0001", ""]
    assert json.loads(dumps_json({"texts": texts, "ε": texts[0]})) == {"texts": texts, "ε": texts[0]}


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        dumps_json({"x": object()})


# --- encode_report ----------------------------------------------------------------

# The one-call encoder that encode_report replaced: every array and numpy scalar
# through its list, dataclasses through their fields, the whole report in one text.
REFERENCE_OPTIONS = (
    orjson.OPT_INDENT_2 | orjson.OPT_NON_STR_KEYS | orjson.OPT_APPEND_NEWLINE
    | orjson.OPT_PASSTHROUGH_DATACLASS
)


def reference_plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return fields_of(obj)
    raise TypeError(type(obj).__name__)


def reference_encoding(obj) -> bytes:
    return orjson.dumps(obj, default=reference_plain, option=REFERENCE_OPTIONS)


@dataclass
class Entry:
    label: str
    value: object


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1]),
)
INTS = st.one_of(st.integers(-(2**63), 2**64 - 1), st.sampled_from([-(2**63), 2**63 - 1, 2**64 - 1]))
VIEWS = {
    "whole": lambda a: a,
    "reversed": lambda a: a[::-1] if a.ndim else a,
    "strided": lambda a: a[::2] if a.ndim else a,
    "transposed": lambda a: a.T,
    "columns reversed": lambda a: a[:, ::-1] if a.ndim == 2 else a,
}


@st.composite
def array_views(draw):
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    elements = FLOATS if dtype is np.float64 else st.integers(-(2**63), 2**63 - 1)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    return VIEWS[draw(st.sampled_from(sorted(VIEWS)))](arr)


LEAVES = st.one_of(FLOATS, INTS, st.booleans(), st.text(max_size=8), st.none(), array_views(),
                   FLOATS.map(np.float64))
KEYS = st.one_of(st.text(max_size=6), st.integers(-5, 5))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(KEYS, inner, max_size=4),
    st.builds(Entry, st.text(max_size=4), inner),
), max_leaves=12)


@st.composite
def reports(draw):
    """Reports with an "orders" dict among other entries, as propagate writes, or any value."""
    if draw(st.booleans()):
        return draw(VALUES)
    before = draw(st.dictionaries(st.text(max_size=6), VALUES, max_size=3))
    before.pop("orders", None)
    orders = draw(st.dictionaries(KEYS, st.one_of(array_views(), VALUES), max_size=5))
    after = draw(st.dictionaries(st.text(max_size=6), VALUES, max_size=3))
    return {**before, "orders": orders, **{k: v for k, v in after.items() if k not in before}}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(reports())
def test_encoded_chunks_join_to_the_one_call_encoding(report):
    chunks = list(report_io.encode_report(report))
    text = b"".join(chunks)
    assert text == reference_encoding(report)
    assert text == dumps_json(report).encode()
    orders = report.get("orders") if isinstance(report, dict) else None
    # one chunk for each order and one for each comma between them
    assert len(chunks) == (2 * len(orders) - 1 if isinstance(orders, dict) and orders else 1)


def test_encode_report_refuses_before_it_returns():
    with pytest.raises(ValueError, match="finite"):
        report_io.encode_report({"orders": {"2": np.ones(3), "4": np.array([1.0, math.nan])}})


def test_parse_potential():
    p = parse_potential({"terms": [[0.25, 2, 0], [-0.25, 0, 2]]})
    assert p.terms == ((0.25, 2, 0), (-0.25, 0, 2))
    with pytest.raises(ValueError, match="terms"):
        parse_potential({"powers": []})
    with pytest.raises(ValueError, match="coeff"):
        parse_potential({"terms": [[1.0, 2]]})
    with pytest.raises(ValueError, match="even"):
        parse_potential({"terms": [[1.0, 3, 0]]})


def test_parse_jet_table():
    jets = parse_jet_table({"jets": {"2": [0.1, -0.1], "4": [1, 2, 3]}})
    assert sorted(jets) == [2, 4]
    assert np.array_equal(jets[2], [0.1, -0.1])
    assert np.array_equal(jets[4], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="order"):
        parse_jet_table({"jets": {"two": [0.1, -0.1]}})
    with pytest.raises(ValueError, match="jets"):
        parse_jet_table({"jets": {}})


def test_parse_side():
    assert np.array_equal(parse_side(None, 4)[2], [0.0, 0.0])
    jets = parse_side({"jets": {"2": [0.2, -0.2]}}, 6)
    assert np.array_equal(jets[2], [0.2, -0.2])
    jets = parse_side({"terms": [[1.0, 2, 0]]}, 4)
    assert np.array_equal(jets[2], [1.0, 0.0])
    assert np.array_equal(jets[4], [-1.0 / 3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="object"):
        parse_side([1, 2, 3], 4)


# --- write_file -------------------------------------------------------------------

def test_write_file_over_a_longer_file_leaves_no_stale_tail(tmp_path):
    fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
    reused.write_bytes(b"x" * 5000)
    write_file(fresh, b"short\n")
    write_file(reused, b"short\n")
    assert reused.read_bytes() == fresh.read_bytes() == b"short\n"
    write_file(reused, b"")
    assert reused.read_bytes() == b""
    reused.write_bytes(b"x" * 5000)
    write_file(reused, iter([b"sh", memoryview(b"..ort\n")[2:], b""]))
    assert reused.read_bytes() == b"short\n"


def test_write_file_keeps_the_inode_so_hard_links_see_the_new_data(tmp_path):
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    write_file(target, b"old and longer\n")
    os.link(target, link)
    inode = target.stat().st_ino
    write_file(target, b"new\n")
    assert target.stat().st_ino == inode
    assert link.read_bytes() == b"new\n"


def test_write_file_to_a_device_does_not_truncate_it():
    write_file(os.devnull, b"discarded\n")


def test_write_file_creates_files_under_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_file(tmp_path / "new.txt", b"data")
    finally:
        os.umask(old)
    assert (tmp_path / "new.txt").stat().st_mode & 0o777 == 0o640


def test_write_file_finishes_short_writes(tmp_path, monkeypatch):
    real_write, sizes = os.write, []

    def trickle(fd, data):
        sizes.append(real_write(fd, bytes(data[:7])))
        return sizes[-1]

    monkeypatch.setattr(report_io.os, "write", trickle)
    data = bytes(range(256)) * 3
    write_file(tmp_path / "out.bin", data)
    assert (tmp_path / "out.bin").read_bytes() == data
    assert len(sizes) == -(-len(data) // 7)


def test_write_file_closes_its_descriptor_when_a_write_fails(tmp_path, monkeypatch):
    opened, closed = [], []
    real_open, real_close = os.open, os.close
    monkeypatch.setattr(report_io.os, "open", lambda *a: opened.append(real_open(*a)) or opened[-1])
    monkeypatch.setattr(report_io.os, "close", lambda fd: closed.append(fd) or real_close(fd))

    def full(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(report_io.os, "write", full)
    with pytest.raises(OSError, match="No space"):
        write_file(tmp_path / "out.bin", b"data")
    assert opened and closed == opened
