"""Malformed text and JSON give a ParseError, a ValueError or a report.

Parsers see texts over their grammar's tokens; the loaders see JSON of
roughly the right shape with arbitrary values mixed in at every level.
Every generated operator has at most six vertices, so the CLI runs each
one to its transversality verdict quickly.
"""

import contextlib
import io
import json

from hypothesis import example, given, strategies as st

from cdvcert import cli
from cdvcert.cdvcore import SchrodingerOperator
from cdvcert.exactfield import ParseError, parse_scalar
from cdvcert.groups import Presentation, parse_presentation
from cdvcert.maps import SimpleGraph

DIGITS = list("0123456789")
SCALAR_TOKENS = DIGITS + list("()+-*/ .x") + ["sqrt"]
WORD_TOKENS = DIGITS + list("()*^- #") + ["a", "b", "c"]
PRESENTATION_TOKENS = WORD_TOKENS + list("<>|,=")

WORDS_OVER = Presentation(("a", "b"), ())


def texts(tokens):
    return st.lists(st.sampled_from(tokens), max_size=30).map("".join)


@example("1/0")
@example("sqrt(1000000000000037)")
@given(texts(SCALAR_TOKENS))
def test_scalar_text_parses_or_raises_parse_error(text):
    try:
        value = parse_scalar(text)
    except ParseError:
        return
    assert parse_scalar(value.render()) == value


@given(texts(PRESENTATION_TOKENS) | texts(WORD_TOKENS).map(lambda t: f"< a, b | {t} >"))
def test_presentation_text_parses_or_raises_parse_error(text):
    try:
        pres = parse_presentation(text)
    except ParseError:
        return
    letters = range(1, len(pres.generators) + 1)
    assert all(abs(g) in letters for r in pres.relators for g in r)


@given(texts(WORD_TOKENS))
def test_word_text_parses_or_raises_parse_error(text):
    try:
        word = WORDS_OVER.word(text)
    except ParseError:
        return
    assert all(abs(g) in (1, 2) for g in word)


SCALAR_TEXTS = ["0", "1", "-1", "-2", "1/2", "1 + sqrt(7)", "sqrt(2)", "1/0", "x"]
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-2, 6)
    | st.sampled_from(SCALAR_TEXTS + ["", "0,1"])
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SCALARS = st.sampled_from(SCALAR_TEXTS) | LEAVES
EDGES = st.lists(st.lists(st.integers(0, 5) | LEAVES, min_size=2, max_size=2) | JSON, max_size=6)
GRAPHS = st.fixed_dictionaries({"n": st.integers(0, 6) | LEAVES, "edges": EDGES | JSON}) | JSON
KEYS = st.sampled_from(["0,1", "1,0", "1,2", "0,2", "0_0,1", " +0 , 1 ", "x"]) | st.text(max_size=4)


@st.composite
def well_formed_operators(draw):
    n = draw(st.integers(1, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    diagonal = st.sampled_from(["0", "1", "-1", "1/2", "1 + sqrt(7)", "-sqrt(7)"])
    overrides = st.sampled_from(["-1", "-2", "-1/3", "-sqrt(7)", "0"])
    return {
        "graph": {"n": n, "edges": edges},
        "diagonal": draw(st.lists(diagonal, min_size=n, max_size=n)),
        "off_diagonal": {f"{u},{v}": draw(overrides) for u, v in edges if draw(st.booleans())},
    }


OPERATORS = (
    well_formed_operators()
    | st.fixed_dictionaries(
        {"graph": GRAPHS, "diagonal": st.lists(SCALARS, max_size=6) | JSON},
        optional={
            "off_diagonal": st.dictionaries(KEYS, SCALARS, max_size=3) | JSON,
            "field_d": st.sampled_from([1, 2, 7]) | LEAVES,
        },
    )
    | JSON
)

FLOAT_EDGE = {"graph": {"n": 3, "edges": [[0.5, 1]]}, "diagonal": ["0"] * 3}
BOOL_EDGE = {"graph": {"n": 3, "edges": [[True, 2]]}, "diagonal": ["0"] * 3}
ZERO_DIVISOR = {"graph": {"n": 2, "edges": [[0, 1]]}, "field_d": 1, "diagonal": ["1/0", "0"]}


def _int_edges(graph) -> bool:
    return all(type(x) is int for edge in graph.edges for x in edge)


@example(FLOAT_EDGE["graph"])
@example(BOOL_EDGE["graph"])
@given(GRAPHS)
def test_graph_loader_loads_or_raises_value_error(data):
    try:
        graph = SimpleGraph.from_json_dict(data)
    except ValueError:
        return
    assert _int_edges(graph)
    assert SimpleGraph.from_json_dict(graph.to_json_dict()) == graph


@example(FLOAT_EDGE)
@example(BOOL_EDGE)
@example(ZERO_DIVISOR)
@given(OPERATORS)
def test_operator_loader_loads_or_raises_value_error(data):
    try:
        op = SchrodingerOperator.from_json_dict(data)
    except ValueError:
        return
    assert _int_edges(op.graph)
    again = SchrodingerOperator.from_json_dict(op.to_json_dict())
    assert (again.graph, again.matrix) == (op.graph, op.matrix)


@example(FLOAT_EDGE)
@example(BOOL_EDGE)
@example(ZERO_DIVISOR)
@given(OPERATORS)
def test_sap_on_operator_file_gives_report(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_operator.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sap", str(path), "--no-timings"])
    report = json.loads(out.getvalue())
    assert code == (0 if report["passed"] else 1)
    assert report["command"] == "sap"
