"""JSON schemas for curves, polarizations, sheaf data and polytopes.

Rationals travel as strings ``"p/q"`` with positive denominator and
``gcd(p, q) = 1`` after normalization; integers drop the denominator.  One
formatter, :func:`format_scaled`, writes them from an integer numerator
over a positive denominator, which is how the integer kernels hold them.

Serialization is canonical (sorted keys, fixed separators), so parsing and
re-serializing any accepted document is idempotent.  :func:`canonical_dumps`
is a one-pass encoder whose output is byte-identical to
``json.dumps(obj, sort_keys=True, indent=2)`` followed by a newline.  It
accepts only dicts with string keys, lists, strings, integers, booleans
and ``None``, and raises ``TypeError`` on anything else, floats included:
every number the package prints is exact rational text.  The one
exception is :class:`Prerendered`, text already in that layout at some
depth, re-indented only where it sits at another; :func:`subcurve_table`
writes the ``analyze`` subcurve table that way, at its final depth and row
by row from the integers, since it can hold thousands of rows.  A document the
loaders cannot turn into a curve, polarization or sheaf datum raises
``SchemaError``, also when it is well formed but its values are not (a loop,
a disconnected graph, weights off the simplex).

A polytope document has ``windows`` and ``witness``; when the polytope is
empty the witness is ``null`` and ``rational_tails`` lists the ids of the
genus-0 components with one node, which empty it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .curve import CurveGraph
from .errors import InvalidCurveError, InvalidPolarizationError, SchemaError
from .polarization import Polarization
from .sheafdata import SheafDatum
from .stability import StabilityPolytope

# The one integer grammar of text input: ASCII digits after an optional
# minus sign.  ``int()`` alone also takes "+2", "1_0" and non-ASCII digits.
_INTEGER = "-?[0-9]+"
_RATIONAL_RE = re.compile(f"({_INTEGER})(?:/({_INTEGER}))?")


def _is_int(x: object) -> bool:
    """A JSON integer; ``bool`` subclasses ``int`` but true/false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_integer(text: str) -> int:
    """``text``, surrounding spaces stripped, as an integer of the grammar
    ``-?[0-9]+``; ``ValueError`` otherwise, or past ``int()``'s digit limit."""
    if re.fullmatch(_INTEGER, text.strip()) is None:
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def parse_rational(text: object) -> Fraction:
    return Fraction(*_parse_scaled(text))


def _parse_scaled(text: object) -> tuple[int, int]:
    """A JSON rational as ``(numerator, denominator)``, the denominator
    positive but the pair not reduced."""
    if _is_int(text):
        return text, 1  # type: ignore[return-value]
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise SchemaError(f"malformed rational {text!r}; use \"p/q\" or \"p\"")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"rational too long: {exc}") from None
    if den <= 0:
        raise SchemaError(f"rational {text!r} needs a positive denominator")
    return num, den


def format_scaled(num: int, den: int) -> str:
    """``num / den`` in lowest terms as ``"p"`` or ``"p/q"``; ``den > 0``."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return format_scaled(x.numerator, x.denominator)


class Prerendered(NamedTuple):
    """A JSON value as :func:`canonical_dumps` writes it at some depth,
    without the final newline; one that spans lines shows that depth in
    the indentation of its closing bracket.  Placed anywhere in a
    document, it is written as that value would be."""

    text: str


def _encode(x: Any, pad: str) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it, on a
    line that ``pad`` (a newline and the indentation) starts.  Strings and
    integers inside a dict, and lists of plain integers, skip the
    recursive call."""
    t = type(x)
    if t is dict:
        if not x:
            return "{}"
        inner = pad + "  "
        items = []
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = x[key]
            if type(value) is str:
                items.append(_quote(key) + ": " + _quote(value))
            elif type(value) is int:
                items.append(_quote(key) + ": " + int.__repr__(value))
            else:
                items.append(_quote(key) + ": " + _encode(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list:
        if not x:
            return "[]"
        inner = pad + "  "
        for value in x:
            if type(value) is not int:
                items = [_encode(v, inner) for v in x]
                break
        else:
            items = map(int.__repr__, x)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if t is Prerendered:
        # Strings escape newlines, so each one starts a line under own.
        own = x.text[x.text.rfind("\n") : -1]
        return x.text if own == pad or not own else x.text.replace(own, pad)
    raise TypeError(f"{t.__name__} is not serializable as exact JSON")


def canonical_dumps(obj: Any) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it,
    and a newline.  A top-level dict is joined once from its members'
    texts, so a large member, such as a prerendered table, is copied once."""
    if type(obj) is not dict or not obj:
        return _encode(obj, "\n") + "\n"
    parts = []
    for key in sorted(obj):
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        parts += (",\n  ", _quote(key), ": ", _encode(obj[key], "\n  "))
    parts[0] = "{\n  "
    parts.append("\n}\n")
    return "".join(parts)


def _subset_texts(texts: Sequence[str]) -> list[str]:
    """The concatenation of ``texts`` over each subset, indexed by mask."""
    out = [""]
    for text in texts:
        out += [t + text for t in out]
    return out


def subcurve_table(curve: CurveGraph, defects: Sequence[int], q: int) -> Prerendered:
    """The ``analyze`` table of proper connected subcurves, one row per
    entry of ``curve.connected_subcurve_stats()``: the dict
    ``{"boundary", "delta", "genus", "members"}`` with ``defects[i] / q``
    as its delta and the member vertex ids, ascending.  Each row is
    written straight from the columns, one level deep, where ``analyze``
    places the table; member ids come from two tables of id text, for the
    low and the high 8 components, so a curve has at most 16 of them here.
    """
    if curve.gamma > 16:
        raise ValueError(
            f"the subcurve table holds at most 16 components, got {curve.gamma}"
        )
    cols = curve.connected_subcurve_stats()
    if not cols:
        return Prerendered("[]")
    # Every id behind its separator; a row strips the first comma.
    ids = [",\n        " + str(v) for v in curve.vertex_ids]
    low, high = _subset_texts(ids[:8]), _subset_texts(ids[8:])
    delta = {d: format_scaled(d, q) for d in set(defects)}  # values repeat
    rows = [
        f'{{\n      "boundary": {boundary},\n      "delta": "{delta[d]}",'
        f'\n      "genus": {genus},\n      "members": ['
        f"{(low[mask & 255] + high[mask >> 8])[1:]}\n      ]\n    }}"
        for mask, boundary, genus, d in zip(
            cols.masks, cols.boundary, cols.genus, defects
        )
    ]
    return Prerendered("[\n    " + ",\n    ".join(rows) + "\n  ]")


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers longer than int()
        # converts; RecursionError, arrays or objects nested too deeply.
        raise SchemaError(f"invalid JSON: {exc}") from None


# -- curves ---------------------------------------------------------------


def curve_from_obj(obj: Any) -> CurveGraph:
    if not isinstance(obj, dict):
        raise SchemaError("curve document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise SchemaError(f"curve document is missing \"{key}\"")
        if not isinstance(obj[key], list):
            raise SchemaError(f"\"{key}\" must be a list")
    vertices = []
    for pos, item in enumerate(obj["vertices"]):
        if not isinstance(item, dict) or "id" not in item or "genus" not in item:
            raise SchemaError(
                f"vertices[{pos}] must be an object with \"id\" and \"genus\""
            )
        if not _is_int(item["id"]) or not _is_int(item["genus"]):
            raise SchemaError(f"vertices[{pos}]: id and genus must be integers")
        vertices.append((item["id"], item["genus"]))
    edges = []
    for pos, item in enumerate(obj["edges"]):
        if not isinstance(item, dict) or "id" not in item or "ends" not in item:
            raise SchemaError(
                f"edges[{pos}] must be an object with \"id\" and \"ends\""
            )
        ends = item["ends"]
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(_is_int(x) for x in ends)
        ):
            raise SchemaError(f"edges[{pos}].ends must be a pair of vertex ids")
        if not _is_int(item["id"]):
            raise SchemaError(f"edges[{pos}].id must be an integer")
        edges.append((item["id"], (ends[0], ends[1])))
    try:
        return CurveGraph(vertices, edges)
    except InvalidCurveError as exc:
        raise SchemaError(str(exc)) from exc


def curve_to_obj(curve: CurveGraph) -> dict:
    return {
        "vertices": [
            {"id": vid, "genus": g}
            for vid, g in zip(curve.vertex_ids, curve.genera)
        ],
        "edges": [
            {"id": eid, "ends": [min(a, b), max(a, b)]}
            for eid, (a, b) in zip(curve.edge_ids, curve.edge_ends)
        ],
    }


# -- polarizations --------------------------------------------------------


def polarization_from_obj(obj: Any) -> Polarization:
    if not isinstance(obj, dict) or "weights" not in obj:
        raise SchemaError("polarization document must be an object with \"weights\"")
    if not isinstance(obj["weights"], list) or not obj["weights"]:
        raise SchemaError("\"weights\" must be a non-empty list")
    pairs = [_parse_scaled(w) for w in obj["weights"]]
    q = lcm(*(den for _, den in pairs))
    try:
        return Polarization.from_numerators([num * (q // den) for num, den in pairs], q)
    except InvalidPolarizationError as exc:
        raise SchemaError(str(exc)) from exc


def polarization_to_obj(w: Polarization) -> dict:
    q = w.common_denominator()
    return {"weights": [format_scaled(n, q) for n in w.numerators]}


# -- sheaf data -----------------------------------------------------------


def sheaf_from_obj(curve: CurveGraph, obj: Any) -> SheafDatum:
    if not isinstance(obj, dict):
        raise SchemaError("sheaf document must be a JSON object")
    for key, size in (
        ("ranks", curve.gamma),
        ("degrees", curve.gamma),
        ("stalk_free", curve.delta),
    ):
        if key not in obj:
            raise SchemaError(f"sheaf document is missing \"{key}\"")
        val = obj[key]
        if not isinstance(val, list) or not all(_is_int(x) for x in val):
            raise SchemaError(f"\"{key}\" must be a list of integers")
        if len(val) != size:
            raise SchemaError(f"\"{key}\" must have {size} entries, got {len(val)}")
    return SheafDatum(
        ranks=tuple(obj["ranks"]),
        degrees=tuple(obj["degrees"]),
        stalk_free=tuple(obj["stalk_free"]),
    )


def sheaf_to_obj(e: SheafDatum) -> dict:
    return {
        "ranks": list(e.ranks),
        "degrees": list(e.degrees),
        "stalk_free": list(e.stalk_free),
    }


# -- polytopes ------------------------------------------------------------


def polytope_to_obj(p: StabilityPolytope) -> dict:
    obj = {
        "windows": [
            {
                "B": list(win.subcurve.member_ids),
                "lower": format_rational(win.lower),
                "upper": format_rational(win.upper),
            }
            for win in p.windows
        ],
        "witness": None if p.witness is None else polarization_to_obj(p.witness),
    }
    if p.rational_tails:
        obj["rational_tails"] = list(p.rational_tails)
    return obj


# -- round trips ----------------------------------------------------------


def round_trip(text: str) -> str:
    """Parse a curve/polarization/sheaf document and re-serialize it
    canonically; applying this twice equals applying it once."""
    obj = _loads(text)
    if isinstance(obj, dict) and "vertices" in obj:
        return canonical_dumps(curve_to_obj(curve_from_obj(obj)))
    if isinstance(obj, dict) and "weights" in obj:
        return canonical_dumps(polarization_to_obj(polarization_from_obj(obj)))
    if isinstance(obj, dict) and "ranks" in obj:
        # Structural normalization only; curve-dependent bounds are not
        # checkable without the curve.
        for key in ("ranks", "degrees", "stalk_free"):
            if key not in obj or not isinstance(obj[key], list):
                raise SchemaError(f"sheaf document is missing \"{key}\"")
            if not all(_is_int(x) for x in obj[key]):
                raise SchemaError(f"\"{key}\" must be a list of integers")
        return canonical_dumps(
            {k: obj[k] for k in ("ranks", "degrees", "stalk_free")}
        )
    raise SchemaError("unrecognized document; expected a curve, polarization or sheaf")


def load_curve(path: str | Path) -> CurveGraph:
    return curve_from_obj(_loads(Path(path).read_text(encoding="utf-8")))


def load_polarization(path: str | Path) -> Polarization:
    return polarization_from_obj(_loads(Path(path).read_text(encoding="utf-8")))
