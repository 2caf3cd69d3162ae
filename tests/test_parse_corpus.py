"""Parser outcomes on a fixed corpus match the stored ones.

The corpus holds the parser test strings plus a `random.Random(0)` token
soup for each grammar: scalars, presentations, and words over the
generators a and b.  An outcome is ["ok", render] or ["error", exception
class name, position], with a null position for an exception that carries
none.  The stored file is regenerated with
`PYTHONPATH=src python tests/test_parse_corpus.py`, only when a parser's
outcomes are meant to change.
"""

import json
import random
from pathlib import Path

import pytest

from specs import KLEIN_PRESENTATION
from cdvcert.exactfield import parse_scalar
from cdvcert.groups import GAMMA10_TEXT, Presentation, parse_presentation

CORPUS = Path(__file__).parent / "golden" / "parse_corpus.json"

WORDS_OVER = Presentation(("a", "b"), ())

SCALAR_EXAMPLES = [
    "3", "-5/3", "sqrt(2)", "1 + 2*sqrt(7)", "(1 - sqrt(5))/2",
    "-sqrt(3)*sqrt(3)", "", "1 +", "sqrt(-3)", "sqrt(x)", "sqrt(4/9)",
    "1/(2-2)", "(1", "1..2", "2^3", 0.5, 3, None, "1 + & 2",
    "sqrt(2) + sqrt(3)", "1/0", "sqrt(12)", "  7  ", "--2", "1 + sqrt(7)",
]

PRESENTATION_EXAMPLES = [
    "< a, b | a^2, b^3, (a*b)^2 >", "< a, b | a^2 = b^3 = 1 >", "< x | x^-3 >",
    "< a, b | >", "< a | >", "< a | a^ >", "a | b", "< a", "< a | (a >",
    "< | a >", "< a, | >", "< a | a^6 >", "< a, b | a^4, a^2*b^-2, b^-1*a*b*a >",
    KLEIN_PRESENTATION, GAMMA10_TEXT,
    "< a, a | >", "< a | a > b", "< a | a, >", "< a | a b >", "",
]

WORD_EXAMPLES = [
    "a", "b^-1", "a*b*b^-1*a^-1", "a*q", "1", "(a*b)^3", "a^-2*b^2",
    "(a", "a^", "a^x", "a*", "", "a b", "(a^2)^-3",
]

# Each soup alternates operand-like and operator-like tokens, with one
# token in five drawn from both lists, so that many texts parse.  Scalar
# literals stay below ten digits and exponents are single digits, so no
# text here reaches a parser's input limits.
SCALAR_TOKENS = (
    ["0", "1", "2", "7", "12", "sqrt(2)", "sqrt(7)", "sqrt(12)", "sqrt", "(", "-", "x"],
    ["+", "-", "*", "/", ")", "."],
)
WORD_TOKENS = (
    ["a", "b", "b^2", "a^-1", "(a*b)", "c", "(", "1", "2", "3", "-"],
    ["*", "*", ")", "^", "^-", "#"],
)
PRESENTATION_TOKENS = (
    WORD_TOKENS[0] + ["<", "|"],
    WORD_TOKENS[1] + [",", "=", ">"],
)


def _soup(tokens, count, max_len, separators, frame=("", "")):
    operands, operators = tokens
    rng = random.Random(0)
    texts = []
    for i in range(count):
        parts = []
        for k in range(2 * rng.randint(0, max_len // 2) + 1):
            pool = operators if k % 2 else operands
            if rng.random() < 0.2:
                pool = operands + operators
            parts.append(rng.choice(pool) + rng.choice(separators))
        body = "".join(parts)
        texts.append(body if i % 4 == 3 else frame[0] + body + frame[1])
    return texts


def _inputs(grammar):
    if grammar == "scalar":
        return SCALAR_EXAMPLES + _soup(SCALAR_TOKENS, 400, 7, ("", " "))
    if grammar == "presentation":
        return PRESENTATION_EXAMPLES + _soup(
            PRESENTATION_TOKENS, 300, 12, (" ",), ("< a, b | ", " >")
        )
    return WORD_EXAMPLES + _soup(WORD_TOKENS, 300, 9, (" ",))


def _presentation(text):
    pres = parse_presentation(text)
    return [list(pres.generators), [list(r) for r in pres.relators]]


PARSE = {
    "scalar": lambda text: parse_scalar(text).render(),
    "presentation": _presentation,
    "word": lambda text: list(WORDS_OVER.word(text)),
}


def outcome(grammar, text):
    try:
        value = PARSE[grammar](text)
    except Exception as exc:
        return ["error", type(exc).__name__, getattr(exc, "position", None)]
    return ["ok", value]


def corpus() -> dict:
    return {
        grammar: [[text, outcome(grammar, text)] for text in _inputs(grammar)]
        for grammar in sorted(PARSE)
    }


@pytest.mark.parametrize("grammar", sorted(PARSE))
def test_outcomes_match_stored(grammar):
    stored = json.loads(CORPUS.read_text())[grammar]
    assert [text for text, _ in stored] == _inputs(grammar)
    outcomes = [(text, expected, outcome(grammar, text)) for text, expected in stored]
    assert [o for o in outcomes if o[1] != o[2]] == []


if __name__ == "__main__":
    CORPUS.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(grammar)}: [\n"
            + ",\n".join(json.dumps(entry) for entry in entries)
            + "\n]"
            for grammar, entries in corpus().items()
        )
        + "\n}\n"
    )
