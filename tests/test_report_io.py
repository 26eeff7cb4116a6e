import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from torusjets.report_io import dumps_json, parse_jet_table, parse_potential, parse_side


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
