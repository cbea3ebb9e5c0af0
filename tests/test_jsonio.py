from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalpol import CurveGraph, Polarization, SheafDatum
from nodalpol.errors import SchemaError
from nodalpol.jsonio import (
    Prerendered,
    canonical_dumps,
    curve_from_obj,
    curve_to_obj,
    format_rational,
    format_scaled,
    parse_rational,
    polarization_from_obj,
    polarization_to_obj,
    round_trip,
    sheaf_from_obj,
    sheaf_to_obj,
)

F = Fraction


class TestRationals:
    def test_parse_simple(self):
        assert parse_rational("1/6") == F(1, 6)
        assert parse_rational("-3/2") == F(-3, 2)
        assert parse_rational("5") == F(5)
        assert parse_rational("2/4") == F(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(SchemaError, match="denominator"):
            parse_rational("1/0")

    def test_negative_denominator(self):
        with pytest.raises(SchemaError, match="denominator"):
            parse_rational("1/-2")

    def test_garbage(self):
        for bad in ("", "a/b", "1.5", "1/2/3", None, 1.5):
            with pytest.raises(SchemaError):
                parse_rational(bad)

    def test_format(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(-1, 2)) == "-1/2"
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(0)) == "0"

    def test_round_trip_normalizes(self):
        assert format_rational(parse_rational("2/4")) == "1/2"


class TestCurveSchema:
    def test_parse_and_serialize(self):
        obj = {
            "vertices": [{"id": 1, "genus": 2}, {"id": 2, "genus": 2}],
            "edges": [{"id": 1, "ends": [1, 2]}],
        }
        c = curve_from_obj(obj)
        assert c == CurveGraph.from_genera([2, 2], [(1, 2)])
        assert curve_to_obj(c) == obj

    def test_reordered_keys_canonicalize(self):
        a = json.dumps(
            {
                "edges": [{"ends": [2, 1], "id": 1}],
                "vertices": [{"genus": 2, "id": 2}, {"id": 1, "genus": 2}],
            }
        )
        b = json.dumps(
            {
                "vertices": [{"id": 1, "genus": 2}, {"id": 2, "genus": 2}],
                "edges": [{"id": 1, "ends": [1, 2]}],
            }
        )
        assert round_trip(a) == round_trip(b)

    def test_round_trip_idempotent(self):
        text = json.dumps(
            {
                "vertices": [{"id": 1, "genus": 0}, {"id": 2, "genus": 1}],
                "edges": [{"id": 1, "ends": [1, 2]}, {"id": 2, "ends": [1, 2]}],
            }
        )
        once = round_trip(text)
        assert round_trip(once) == once

    def test_schema_diagnostics(self):
        with pytest.raises(SchemaError, match="vertices"):
            curve_from_obj({"edges": []})
        with pytest.raises(SchemaError, match=r"vertices\[0\]"):
            curve_from_obj({"vertices": [{"id": 1}], "edges": []})
        with pytest.raises(SchemaError, match=r"edges\[0\].ends"):
            curve_from_obj(
                {
                    "vertices": [{"id": 1, "genus": 0}],
                    "edges": [{"id": 1, "ends": [1]}],
                }
            )
        with pytest.raises(SchemaError, match="JSON"):
            round_trip("{not json")


class TestBooleansRejected:
    """JSON true/false load as Python bools, which subclass int."""

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([{"id": True, "genus": 0}], []),
            ([{"id": 1, "genus": False}], []),
            (
                [{"id": 1, "genus": 0}, {"id": 2, "genus": 0}],
                [{"id": True, "ends": [1, 2]}],
            ),
            (
                [{"id": 1, "genus": 0}, {"id": 2, "genus": 0}],
                [{"id": 1, "ends": [True, 2]}],
            ),
        ],
    )
    def test_curve(self, vertices, edges):
        with pytest.raises(SchemaError, match="integer|vertex ids"):
            curve_from_obj({"vertices": vertices, "edges": edges})

    @pytest.mark.parametrize("key", ["ranks", "degrees", "stalk_free"])
    def test_sheaf(self, key):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        obj = {"ranks": [1, 0], "degrees": [0, 0], "stalk_free": [0]}
        obj[key] = [False] * len(obj[key])
        with pytest.raises(SchemaError, match=key):
            sheaf_from_obj(c, obj)
        with pytest.raises(SchemaError, match=key):
            round_trip(json.dumps(obj))

    @pytest.mark.parametrize("value", [True, False])
    def test_rational(self, value):
        with pytest.raises(SchemaError, match="rational"):
            parse_rational(value)
        with pytest.raises(SchemaError, match="rational"):
            polarization_from_obj({"weights": [value]})


class TestPolarizationSchema:
    def test_parse(self):
        w = polarization_from_obj({"weights": ["1/6", "5/6"]})
        assert w == Polarization.of([F(1, 6), F(5, 6)])

    def test_serialize(self):
        assert polarization_to_obj(Polarization.of([F(1, 6), F(5, 6)])) == {
            "weights": ["1/6", "5/6"]
        }

    def test_unreduced_input_canonicalizes(self):
        text = json.dumps({"weights": ["2/4", "2/4"]})
        assert json.loads(round_trip(text)) == {"weights": ["1/2", "1/2"]}

    def test_errors(self):
        with pytest.raises(SchemaError):
            polarization_from_obj({"weights": []})
        with pytest.raises(SchemaError):
            polarization_from_obj({})


class TestSheafSchema:
    def test_parse_and_serialize(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        obj = {"ranks": [1, 0], "degrees": [0, 0], "stalk_free": [0]}
        e = sheaf_from_obj(c, obj)
        assert e == SheafDatum((1, 0), (0, 0), (0,))
        assert sheaf_to_obj(e) == obj

    def test_length_mismatch(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        with pytest.raises(SchemaError, match="ranks"):
            sheaf_from_obj(c, {"ranks": [1], "degrees": [0, 0], "stalk_free": [0]})

    def test_unrecognized_document(self):
        with pytest.raises(SchemaError, match="unrecognized"):
            round_trip('{"foo": 1}')


def test_canonical_dumps_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    assert canonical_dumps(obj) == canonical_dumps({"a": [1, 2], "b": 1})


# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII (two-byte, three-byte, astral and a lone surrogate).
_AWKWARD = st.text(
    alphabet=st.sampled_from('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f aZ\u00e9\u2028\u4e2d\U0001f600\ud800'),
    max_size=8,
)

exact_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | st.text(max_size=6)
    | _AWKWARD,
    lambda children: st.lists(children, max_size=5)
    | st.lists(st.integers() | st.booleans(), max_size=5)
    | st.dictionaries(st.text(max_size=3) | _AWKWARD, children, max_size=5),
    max_leaves=30,
)


class TestCanonicalDumps:
    """The one-pass encoder against ``json.dumps`` as the oracle."""

    @settings(max_examples=500, deadline=None)
    @given(exact_json_values)
    def test_matches_json_dumps(self, value):
        assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}], "d": [[]]},
            [[1, 2], [3, [4, [5]]], {"z": {"y": {"x": []}}}],
            [1, True],
            [True, 1, False, None, 0],
            [-(2**70), 2**64, -1, 0],
            {"\u00e9": "\x00\"\\", "\n": "\U0001f600", "": ""},
            "top-level string",
            -12,
            None,
        ],
    )
    def test_cases(self, value):
        assert canonical_dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_bool_in_int_list_prints_true(self):
        assert canonical_dumps([1, True]) == "[\n  1,\n  true\n]\n"

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            {"a": [0.5]},
            [1, 2.0],
            {1, 2},
            {"a": {1, 2}},
            {1: "a"},
            {"a": {None: 1}},
            (1, 2),
            F(1, 2),
        ],
        ids=["float", "nested-float", "float-in-int-list", "set", "nested-set",
             "int-key", "none-key", "tuple", "fraction"],
    )
    def test_rejects_non_json_types(self, value):
        with pytest.raises(TypeError):
            canonical_dumps(value)


class TestPrerendered:
    """Text in the encoder's own layout, placed at any depth, is written as
    the value it encodes would be."""

    DEPTHS = {
        "depth-0": lambda v: v,
        "depth-1": lambda v: {"b": 1, "a": v, "c": [2]},
        "depth-2": lambda v: [{"k": v, "j": "x"}, 3],
    }

    @pytest.mark.parametrize("wrap", DEPTHS.values(), ids=DEPTHS.keys())
    @pytest.mark.parametrize(
        "value",
        [
            [{"members": [12, 305], "delta": "-1/2", "boundary": 2, "genus": 0}],
            {"a\nb": ["line\nbreak", []], "z": {}},
            [],
            "plain",
            -7,
        ],
    )
    def test_cases(self, wrap, value):
        placed = Prerendered(canonical_dumps(value)[:-1])
        expected = json.dumps(wrap(value), sort_keys=True, indent=2) + "\n"
        assert canonical_dumps(wrap(placed)) == expected

    @pytest.mark.parametrize("wrap", DEPTHS.values(), ids=DEPTHS.keys())
    def test_written_one_level_deep(self, wrap):
        # Text written as the value of a top-level key, as subcurve_table
        # writes it, is placed as it stands at that depth and re-indented
        # at any other.
        value = [{"members": [12, 305], "delta": "-1/2", "boundary": 2, "genus": 0}]
        text = canonical_dumps({"k": value})[len('{\n  "k": '):-len("\n}\n")]
        assert text.endswith("\n  ]")
        placed = Prerendered(text)
        expected = json.dumps(wrap(value), sort_keys=True, indent=2) + "\n"
        assert canonical_dumps(wrap(placed)) == expected

    @settings(max_examples=200, deadline=None)
    @given(exact_json_values)
    def test_matches_json_dumps_at_depth_2(self, value):
        wrap = self.DEPTHS["depth-2"]
        placed = Prerendered(canonical_dumps(value)[:-1])
        assert canonical_dumps(wrap(placed)) == json.dumps(wrap(value), sort_keys=True, indent=2) + "\n"


class TestFormatScaled:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**20))
    def test_matches_format_rational(self, num, den):
        assert format_scaled(num, den) == format_rational(F(num, den))

    def test_cases(self):
        assert format_scaled(0, 7) == "0"
        assert format_scaled(6, 3) == "2"
        assert format_scaled(-6, 4) == "-3/2"
        assert format_scaled(5, 1) == "5"


# -- fuzzing ----------------------------------------------------------------

_KEYS = ("vertices", "edges", "id", "genus", "ends", "weights", "ranks", "degrees", "stalk_free")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["1/2", "1/3", "2/3", "0", "1", "-1/2", "1/0", "a", ""])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), children, max_size=5),
    max_leaves=25,
)


class TestLoaderFuzz:
    """Any JSON value loads as a curve, polarization or sheaf, or raises
    ``SchemaError``; nothing else escapes the loaders."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_any_value(self, value):
        c = CurveGraph.from_genera([1, 0, 2], [(1, 2), (2, 3), (2, 3)])
        loaders = (
            (curve_from_obj, CurveGraph),
            (polarization_from_obj, Polarization),
            (lambda obj: sheaf_from_obj(c, obj), SheafDatum),
        )
        for load, kind in loaders:
            try:
                assert isinstance(load(value), kind)
            except SchemaError:
                pass
        try:
            assert isinstance(round_trip(json.dumps(value)), str)
        except SchemaError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries({"id": st.integers(-1, 4), "genus": st.integers(-1, 2)}),
            max_size=4,
        ),
        st.lists(
            st.fixed_dictionaries(
                {"id": st.integers(-1, 5), "ends": st.lists(st.integers(-1, 4), min_size=2, max_size=2)}
            ),
            max_size=5,
        ),
        st.lists(st.sampled_from(["1/2", "1/3", "2/3", "1/4", "3/4", "1", "0", "-1/3", "4/3"]), max_size=4),
    )
    def test_near_valid_documents(self, vertices, edges, weights):
        # Well-formed documents whose values may still be invalid: loops,
        # duplicate or unknown ids, disconnected graphs, weights off the
        # simplex.
        try:
            assert isinstance(curve_from_obj({"vertices": vertices, "edges": edges}), CurveGraph)
        except SchemaError:
            pass
        try:
            assert isinstance(polarization_from_obj({"weights": weights}), Polarization)
        except SchemaError:
            pass
