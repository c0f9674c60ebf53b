"""Fuzzing of the input boundaries: loaders, the ring parser and the CLI.

Malformed input must fail with the documented input errors (SchemaError
from the loaders, ParseError from the parser), and the CLI must map
every file to exit code 0, 1 or 2 without raising.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pvcalc.cli import main
from pvcalc.errors import ExponentError, ParseError, SchemaError
from pvcalc.models import plane_conic
from pvcalc.motring import parse_ring_elem
from pvcalc.surface import dump_config, load_config
from pvcalc.zeta import dump_datum, load_datum, triangle_datum

SMALL_INTS = st.integers(-3, 6) | st.sampled_from([2 ** 31, -(2 ** 40)])
# decimal and exponent literals, which Fraction would read (an exponent
# of up to nine digits expanded digit by digit)
DECIMALS = st.from_regex(
    r"[-+]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,9})?", fullmatch=True)
SCALARS = (st.none() | st.booleans() | SMALL_INTS | DECIMALS
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["", "1/2", "-1/2", "1/0", "x", "A", "B", "C",
                              "plane", "ruled", "custom", "point",
                              "rational_curve", "nonrational_curve"])
           | st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(
        ["d", "id", "genus", "self_int", "alpha", "kind", "terms", "blowups",
         "nj", "vj", "N", "v", "self", "trace", "creation"]), inner,
        max_size=4),
    max_leaves=12)


def _paths(obj, prefix=()):
    """Every (container path, key) inside a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, val in items:
        out.append(prefix + (key,))
        out += _paths(val, prefix + (key,))
    return out


@st.composite
def mutated(draw, doc):
    """doc with up to three of its values (at any depth) replaced by
    random JSON values, or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc


CONFIG_DOC = dump_config(plane_conic())
DATUM_DOC = dump_datum(triangle_datum())
CONFIGS = mutated(CONFIG_DOC) | JSON_VALUES
DATA = mutated(DATUM_DOC) | JSON_VALUES


def _loads_or_schema_error(load, obj):
    try:
        load(obj)
    except SchemaError:
        pass


@settings(max_examples=300, deadline=None)
@given(CONFIGS)
def test_load_config_raises_only_schema_error(obj):
    _loads_or_schema_error(load_config, obj)


@settings(max_examples=300, deadline=None)
@given(DATA)
def test_load_datum_raises_only_schema_error(obj):
    _loads_or_schema_error(load_datum, obj)


@settings(max_examples=300, deadline=None)
@given(DECIMALS)
@example("1e100000000")
def test_load_config_refuses_decimal_alpha(text):
    doc = json.loads(json.dumps(CONFIG_DOC))
    doc["curves"][0]["alpha"] = text
    try:
        load_config(doc)
    except SchemaError:
        return
    assert not {".", "e", "E"} & set(text), text


RING_TEXT = st.text(alphabet="uvw0123456789^*()/+- ", max_size=24)


@settings(max_examples=500, deadline=None)
@given(RING_TEXT | st.text(max_size=12), st.integers(1, 6))
def test_parse_ring_elem_raises_only_parse_error(s, d):
    # ExponentError is the packed-key guard on a too-large exponent
    # (tests/test_motring.py pins it for the parser too)
    try:
        parse_ring_elem(s, d)
    except (ParseError, ExponentError):
        pass


def _run_cli(tmp_path, argv, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return main([a if a != "FILE" else str(path) for a in argv])


COMMANDS = st.sampled_from([
    ["validate", "FILE"],
    ["compute", "FILE"],
    ["compute", "FILE", "--realization", "euler"],
    ["compute", "FILE", "--realization", "padic", "--q", "3"],
    ["blowup", "FILE", "--center", "free"],
])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(COMMANDS, CONFIGS.map(json.dumps))
@example(["compute", "FILE"], b"\xff\xfe{")      # not UTF-8
@example(["compute", "FILE"], "[" * 100000)     # past the recursion limit
@example(["validate", "FILE"], "1" * 5000)      # past int()'s digit limit
def test_cli_config_exit_codes(tmp_path, capsys, argv, content):
    assert _run_cli(tmp_path, argv, content) in (0, 1, 2)
    capsys.readouterr()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DATA.map(json.dumps))
@example(b"\xff\xfe{")
# a non-string component id is a schema error; sorted() cannot order it
# next to a string id
@example(json.dumps({"nj": 2, "vj": 1, "components": [
    {"id": 1, "self": 1, "N": 1, "v": 1},
    {"id": "A", "self": 1, "N": 1, "v": 1}]}))
def test_cli_residue_exit_codes(tmp_path, capsys, content):
    assert _run_cli(tmp_path, ["residue", "FILE"], content) in (0, 1, 2)
    capsys.readouterr()
