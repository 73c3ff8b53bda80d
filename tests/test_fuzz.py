"""Fuzz tests for the text inputs: formulas, traces, domains and problems.

Every input, however malformed, must end in a result or a `ParseError` /
`ValidationError`; through the CLI, `eval` and `solve` must exit 2 on input
they refuse and never end in a Python traceback. Inputs are random token
soups, random text, and mutations of the bundled number files: spans cut
out or replaced by tokens of the file formats or by random characters. Each
input is made from a drawn seed, which keeps generation cheap.
"""

import contextlib
import io
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from epiplan.cli import main
from epiplan.core import Ternary, ValidationError
from epiplan.parser import (
    ParseError,
    _lex,
    _lines,
    parse_domain,
    parse_formula,
    parse_problem,
    parse_trace,
)

NUMBER = resources.files("epiplan").joinpath("benchmarks").joinpath("number")
DOMAIN_TEXT = NUMBER.joinpath("number.dom").read_text(encoding="utf-8")
PROBLEM_TEXT = NUMBER.joinpath("n1.prob").read_text(encoding="utf-8")
TRACE_TEXT = NUMBER.joinpath("plan1.trace").read_text(encoding="utf-8")
STATE_TRACE_TEXT = ("state n=2 peeking_a=false peeking_b=false\n"
                    "state peeking_a=true\nstate n=1 peeking_b=true\n")
FORMULA_TEXT = "(and (CB (a b) (< n 3)) (not (B a (DK (a b) (= n 1)))))"
DOMAIN = parse_domain(DOMAIN_TEXT)

FORMULA_TOKENS = ("(", ")", "(", ")", "and", "not", "=", "!=", "<", "<=", ">", ">=",
                  "S", "K", "B", "ES", "EK", "EB", "DS", "DK", "DB", "CS", "CK", "CB",
                  "a", "b", "c", "n", "peeking_a", "peeking_b", "0", "2", "-1", "3",
                  "true", "false", "t", "#", "\n", "1" * 30, "1_0", "٢")
FILE_TOKENS = FORMULA_TOKENS + (
    "domain", "agents", "var", ":", "int", "bool", "enum", "0..2", "0..70000", "{", "}",
    "observation", "number", "obs-config", "action", "pre", "eff", ":=", "+=", "-=",
    "end", "problem", "init", "goal", "unknown", "max-depth", "do", "state", "peek_a",
    "return_a", "add", "n=", "n=1", "n=9", "n=true", "peeking_a=", "=2", " ", "\n",
    "\n\n", "\t", "N1", "\x00", "﻿", "é")

SETTINGS = settings(max_examples=100, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


def _noise(rng: random.Random, size: int) -> str:
    """Random characters, mostly printable ASCII, some from anywhere in
    Unicode (surrogates left out: they cannot be written as UTF-8)."""
    chars = []
    for _ in range(size):
        code = rng.randrange(32, 127) if rng.random() < 0.7 else rng.randrange(0x10000)
        chars.append(chr(code) if not 0xD800 <= code < 0xE000 else "?")
    return "".join(chars)


def _soup(rng: random.Random) -> str:
    return " ".join(rng.choice(FORMULA_TOKENS) for _ in range(rng.randrange(25)))


def _mutate(rng: random.Random, base: str, tokens=FILE_TOKENS) -> str:
    """`base` with one to four spans cut out or replaced by a token of the
    file formats or by a few random characters."""
    text = base
    for _ in range(rng.randint(1, 4)):
        start = rng.randint(0, len(text))
        end = rng.randint(start, min(len(text), start + 12))
        piece = rng.choice(("", rng.choice(tokens), _noise(rng, rng.randint(1, 4))))
        text = text[:start] + piece + text[end:]
    return text


def _fuzzed(seed: int, base: str, tokens=FILE_TOKENS) -> str:
    """Text made from `seed`: random characters, or `base` mutated."""
    rng = random.Random(seed)
    return _noise(rng, rng.randrange(40)) if rng.random() < 0.2 else _mutate(rng, base, tokens)


def _refused(parse, *args) -> bool:
    """Whether `parse` refuses its input; any other exception fails the test."""
    try:
        parse(*args)
    except (ParseError, ValidationError) as exc:
        assert str(exc)
        return True
    return False


@SETTINGS
@given(seed=seeds)
def test_formula_text(seed):
    rng = random.Random(seed)
    text = _soup(rng) if rng.random() < 0.3 else _fuzzed(seed, FORMULA_TEXT, FORMULA_TOKENS)
    _refused(parse_formula, text, DOMAIN.signature)


@SETTINGS
@given(seed=seeds, base=st.sampled_from((TRACE_TEXT, STATE_TRACE_TEXT)))
def test_trace_text(seed, base):
    _refused(parse_trace, _fuzzed(seed, base), DOMAIN)


@SETTINGS
@given(seed=seeds)
def test_domain_text(seed):
    _refused(parse_domain, _fuzzed(seed, DOMAIN_TEXT))


@SETTINGS
@given(seed=seeds)
def test_problem_text(seed):
    _refused(parse_problem, _fuzzed(seed, PROBLEM_TEXT), DOMAIN)


SPACES = (" ", "  ", "\t", "\xa0")
# line breaks of every kind the line reader cuts at, and comments
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0c", "\x85", "\u2028")
SEPARATORS = SPACES + LINE_BREAKS + (" # a comment (= n 1)\n", "#\r\n")


def _respaced(rng: random.Random, text: str, separators) -> str:
    """`text` with each space replaced by a random separator."""
    return "".join(word + rng.choice(separators) for word in text.split(" "))


def _reference_tokens(text: str):
    """(text, line, col) of each token, found without the lexer's pattern."""
    found = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        col = 0
        for char in line:
            if char in "()":
                found.append([char, lineno, col + 1])
            elif not char.isspace():
                if col == 0 or line[col - 1].isspace() or line[col - 1] in "()":
                    found.append(["", lineno, col + 1])
                found[-1][0] += char
            col += 1
    return [tuple(tok) for tok in found]


@SETTINGS
@given(seed=seeds, base=st.sampled_from((FORMULA_TEXT, DOMAIN_TEXT, TRACE_TEXT)))
def test_lexer_positions(seed, base):
    text = _respaced(random.Random(seed), _fuzzed(seed, base), SEPARATORS)
    tokens = [tok for lineno, line in _lines(text) for tok in _lex(line, lineno)]
    lines = text.splitlines()
    for tok in tokens:
        assert lines[tok.line - 1][tok.col - 1:tok.col - 1 + len(tok.text)] == tok.text
    assert [tuple(tok) for tok in tokens] == _reference_tokens(text)


def _outcome(parse, *args):
    """The result, or the refusal's line and column."""
    try:
        return parse(*args)
    except ParseError as exc:
        return exc.line, exc.col


@SETTINGS
@given(seed=seeds)
def test_goal_formula_reads_like_a_bare_formula(seed):
    rng = random.Random(seed)
    text = rng.choice((_soup(rng), _fuzzed(seed, FORMULA_TEXT, FORMULA_TOKENS), FORMULA_TEXT))
    bare = _respaced(rng, " ".join(text.splitlines()), SPACES)
    head = "goal" + rng.choice(SPACES) + "true" + rng.choice(SPACES)
    comment = rng.choice(("", " # trailing (= n 1)", "#"))
    problem = PROBLEM_TEXT.replace("goal true (DB (a b) (< n 2))", head + bare + comment)
    expected = _outcome(parse_formula, bare, DOMAIN.signature)
    got = _outcome(parse_problem, problem, DOMAIN)
    if isinstance(expected, tuple):
        col = expected[1]
        assert got == (4, None if col is None else col + len(head))
    else:
        assert got.goals == ((expected, Ternary.TRUE),)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv) -> int:
    """The CLI's exit code, with its output swallowed; argparse's own exit
    (for a formula that looks like an option) counts too."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _write(workdir, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


CLI_SETTINGS = settings(SETTINGS, max_examples=25)


@CLI_SETTINGS
@given(which=st.sampled_from(("domain", "trace", "formula")), seed=seeds)
def test_cli_eval_exits_2_on_refused_input(workdir, which, seed):
    texts = {"domain": DOMAIN_TEXT, "trace": TRACE_TEXT, "formula": FORMULA_TEXT}
    texts[which] = _fuzzed(seed, texts[which])
    refused = _refused(parse_domain, texts["domain"])
    if not refused:
        domain = parse_domain(texts["domain"])
        refused = (_refused(parse_trace, texts["trace"], domain)
                   or _refused(parse_formula, texts["formula"], domain.signature))
    code = _run(["eval", _write(workdir, "fuzz.dom", texts["domain"]),
                 _write(workdir, "fuzz.trace", texts["trace"]), texts["formula"]])
    assert code == (2 if refused else 0)


@CLI_SETTINGS
@given(which=st.sampled_from(("domain", "problem")), seed=seeds)
def test_cli_solve_exits_2_on_refused_input(workdir, which, seed):
    texts = {"domain": DOMAIN_TEXT, "problem": PROBLEM_TEXT}
    texts[which] = _fuzzed(seed, texts[which])
    refused = (_refused(parse_domain, texts["domain"])
               or _refused(parse_problem, texts["problem"], parse_domain(texts["domain"])))
    code = _run(["solve", _write(workdir, "fuzz.dom", texts["domain"]),
                 _write(workdir, "fuzz.prob", texts["problem"]), "--max-depth", "1"])
    assert code == 2 if refused else code in (0, 3)
