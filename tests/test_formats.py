"""The four file formats: round trips, strict rejection, and the CLI exit-2 contract."""

import io
import math
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from crflat.cli import main
from crflat.crfields import TangentField, dumps_field, loads_field
from crflat.errors import ParseError
from crflat.germ import Germ, KernelPolynomial, dumps_germ, dumps_kernel, loads_germ, loads_kernel
from crflat.numeric import (
    _NATURAL_COLUMN,
    _RATIONAL_COLUMN,
    GaussianRational,
    integer,
    natural,
    rational_parts,
)
import crflat.series as series_mod
from crflat.series import (
    Series,
    content_errors,
    dumps_series,
    format_term_lines,
    loads_series,
    parse_pairs,
    read_records,
    term_line,
)

from conftest import FIXTURES

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

G = GaussianRational
fractions = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))
gaussians = st.builds(GaussianRational, fractions, fractions)


@st.composite
def series(draw, nvars=None, trunc=None, min_degree=0):
    nvars = draw(st.integers(1, 3)) if nvars is None else nvars
    trunc = draw(st.integers(min_degree, 5)) if trunc is None else trunc
    exps = st.tuples(*[st.integers(0, trunc)] * (2 * nvars)).filter(
        lambda e: min_degree <= sum(e) <= trunc
    )
    return Series(nvars, trunc, draw(st.dictionaries(exps, gaussians, max_size=8)))


@st.composite
def germs(draw):
    nvars = draw(st.integers(1, 3))
    return Germ(nvars, draw(series(nvars, draw(st.integers(2, 5)), min_degree=2)))


@st.composite
def fields(draw):
    trunc = draw(st.integers(0, 5))
    return TangentField(*(draw(series(2, trunc)) for _ in range(3)))


@st.composite
def kernels(draw):
    m = draw(st.integers(2, 8))
    keys = [
        ((a1, m - 2 * j - a1), j)
        for j in range(m // 2 + 1)
        for a1 in range(m - 2 * j + 1)
        if not (m % 2 == 0 and 2 * j == m)
    ]
    return KernelPolynomial(m, draw(st.dictionaries(st.sampled_from(keys), gaussians)))


FORMATS = {
    "series": (series(), loads_series, dumps_series),
    "germ": (germs(), loads_germ, dumps_germ),
    "field": (fields(), loads_field, dumps_field),
    "kernel": (kernels(), loads_kernel, dumps_kernel),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_loads_inverts_dumps_byte_stably(fmt):
    values, loads, dumps = FORMATS[fmt]

    @SETTINGS
    @given(values)
    def check(x):
        text = dumps(x)
        back = loads(text)
        assert back == x
        assert dumps(back) == text

    check()


# words that steer random text into the header, block and term-line branches
WORDS = ["vars", "order", "weight", "coef", "z1", "z2", "w", "#", "i", "x", "1e9",
         "0", "1", "2", "3", "4", "-1", "1/2", "-3/4", "1/0", "+2", "99999999999999999999"]
tokens = st.lists(st.one_of(st.sampled_from(WORDS), st.sampled_from(["\n", " ", "\t"])), max_size=40)
header_texts = st.tuples(
    st.sampled_from(["vars 2\norder 4\n", "vars 1\norder 3\n", "weight 3\n", "vars 2\norder 4\ncoef z1\n"]),
    tokens,
).map(lambda parts: parts[0] + " ".join(parts[1]))
texts = st.one_of(st.text(max_size=200), tokens.map(" ".join), header_texts)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_arbitrary_text_gives_a_value_or_parse_error(fmt):
    _values, loads, _dumps = FORMATS[fmt]

    @settings(SETTINGS, max_examples=200)
    @given(texts)
    def check(text):
        try:
            loads(text)
        except ParseError:
            pass

    check()


@pytest.mark.parametrize(
    "text", ["1e5", "0.5", "1_000", "1/-2", "٣", "+-1", "1/", "/2", "1/0", "+/3", "3/", "1.5",
             "1 2", "- 1", "1 /2", "1/ 2"]
)
def test_rational_literals_are_strict(text):
    with pytest.raises(ParseError, match="bad rational literal"):
        rational_parts(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer-digit limit"
)
def test_a_rational_past_the_integer_digit_limit_is_a_parse_error():
    run = "9" * (sys.get_int_max_str_digits() + 1)
    for read, text in ((rational_parts, "1/" + run), (natural, run), (integer, "-" + run),
                       (GaussianRational.parse, f"1+{run} i")):
        with pytest.raises(ParseError):
            read(text)


@settings(derandomize=True, max_examples=200)
@given(st.fractions())
def test_rational_parts_reads_back_every_fraction(q):
    assert F(*rational_parts(str(q))) == q
    assert F(*rational_parts(f" {q}\t")) == q  # whitespace may surround a literal


@pytest.mark.parametrize("text", [
    "vars 2\norder 4\n1 0 -1 0 1 0\n",  # negative exponent
    "vars 2\norder 4\n1 0 1 x 1 0\n",  # not an integer
    "vars 2\norder 4\n1 0 1 0 0.5 0\n",  # decimal literal
    "vars 2\nvars 2\norder 4\n",  # second header
    "vars 2 2\norder 4\n",  # header with two values
])
def test_series_reader_rejects(text):
    with pytest.raises(ParseError):
        loads_series(text)


@pytest.mark.parametrize("text", ["weight\n", "weight x\n", "weight 3 4\n", "weight 3\nweight 3\n",
                                  "weight 1\n", "weight 3\n1 0 0 1 0\n", "weight 3\n1 0 1 1\n"])
def test_kernel_reader_rejects(text):
    with pytest.raises(ParseError):
        loads_kernel(text)


@pytest.mark.parametrize("text", [
    "vars 2\norder 3\n1 0 0 0 1 0\n",  # term line outside any block
    "vars 2\norder 3\ncoef z1\ncoef z1\n",  # block given twice
    "vars 2\norder 3\ncoef z3\n",  # unknown block
    "vars 1\norder 3\ncoef z1\n",  # one-variable field
])
def test_field_reader_rejects(text):
    with pytest.raises(ParseError):
        loads_field(text)


GERM_HEAD = "vars 2\norder 4\n1 0 1 0 1 0\n"


@pytest.mark.parametrize("loads, text, message", [
    (loads_germ, GERM_HEAD + "1 1 0 0 x 0\n", "line 4: bad rational literal 'x'"),
    (loads_germ, GERM_HEAD + "1 1 0 0 1 3/0\n", "line 4: bad rational literal '3/0'"),
    (loads_germ, GERM_HEAD + "1 0 1 0 2 0\n", "line 4: duplicate exponent (1, 0, 1, 0)"),
    (loads_germ, GERM_HEAD + "1 0 1 0 1\n", "line 4: expected 4 integers and 2 rationals"),
    (loads_germ, GERM_HEAD + "-1 0 1 0 1 0\n", "line 4: expected a nonnegative integer, got '-1'"),
    (loads_germ, GERM_HEAD + "\u00b2 0 1 0 1 0\n",
     "line 4: expected a nonnegative integer, got '\u00b2'"),
    (loads_germ, GERM_HEAD + "0 0 0 0 0 0\n5 0 0 0 0 0\n3 0 3 0 1 0\n",
     "exponent (5, 0, 0, 0) exceeds truncation 4"),
    (loads_germ, "vars 0\norder 4\n1 0\n", "need at least one variable"),
    (loads_kernel, "weight 3\n2 1 0 1/0 0\n", "line 2: bad rational literal '1/0'"),
    (loads_kernel, "weight 3\n2 1 0 1 0\n2 1 0 1 0\n", "line 3: duplicate exponent (2, 1, 0)"),
    (loads_field, "vars 2\norder 3\ncoef z1\n1 0 0 0 a 0\ncoef z2\ncoef w\n",
     "line 4: bad rational literal 'a'"),
    (loads_field, "vars 2\norder 3\ncoef z1\n1 0 3 0 1 0\ncoef z2\ncoef w\n",
     "exponent (1, 0, 3, 0) exceeds truncation 3"),
])
def test_term_line_errors_keep_their_line_and_message(loads, text, message):
    with pytest.raises(ParseError) as info:
        loads(text)
    assert str(info.value) == message


def test_term_lines_read_as_integer_pairs_equal_the_exact_coefficients():
    # unreduced literals and mixed denominators: the pairs reach lowest terms
    text = "vars 1\norder 3\n1 1 2/6 -2/6\n0 2 0 0\n2 0 4/2 1\n0 3 -9/12 5/10\n"
    want = {(1, 1): GaussianRational(F(1, 3), F(-1, 3)), (2, 0): GaussianRational(2, 1),
            (0, 3): GaussianRational(F(-3, 4), F(1, 2))}
    got = loads_series(text)
    assert got == Series(1, 3, want)
    assert (got.den, got.nums) == (12, {(1, 1): (4, -4), (2, 0): (24, 12), (0, 3): (-9, 6)})
    field = loads_field("vars 2\norder 2\ncoef z1\n1 0 1 0 3/9 0\ncoef z2\ncoef w\n")
    assert field.cf_z1 == Series(2, 2, {(1, 0, 1, 0): F(1, 3)}) and field.cf_w.is_zero()
    kernel = loads_kernel("weight 3\n2 1 0 2/4 -6/8\n0 1 1 0 0\n")
    assert kernel.coeffs == {((2, 1), 0): GaussianRational(F(1, 2), F(-3, 4))}


@st.composite
def pair_series(draw):
    """A series from integer pairs: parts zero, negative or past 2^64, den 1 or not."""
    nvars = draw(st.integers(1, 2))
    trunc = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, trunc)] * (2 * nvars)).filter(lambda e: sum(e) <= trunc)
    parts = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**80, 2**80))
    den = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**70)))
    pairs = draw(st.dictionaries(exps, st.tuples(parts, parts), max_size=8))
    return Series._from_pairs(nvars, trunc, den, pairs)


@SETTINGS
@given(pair_series())
@example(Series._from_pairs(2, 2, 1, {(1, 0, 1, 0): (3, 0), (0, 1, 0, 1): (0, -5)}))
@example(Series._from_pairs(1, 3, 6, {(1, 2): (-(2**70) - 1, 2**65), (0, 0): (4, -3)}))
def test_term_lines_from_integer_pairs_match_the_coefficient_writer(s):
    # the pairs over den print as str(Fraction) prints each part
    assert format_term_lines(s) == [term_line(e, c.re, c.im) for e, c in s.items()]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


BAD_GERMS = {
    "word-value": b"vars two\norder 4\n",
    "missing-value": b"vars\norder 4\n",
    "zero-vars": b"vars 0\norder 4\n",
    "negative-order": b"vars 2\norder -1\n",
    "no-order-value": b"vars 2\norder\n",
    "word-order": b"vars 2\norder x\n",
    "second-order": b"vars 2\norder 4\norder 5\n1 0 1 0 1 0\n",
    "two-values": b"vars 2\norder 3 4\n",
    "not-utf8": b"vars 2\norder 4\n1 0 1 0 \xff 0\n",
    "huge-literal": b"vars 2\norder 4\n1 0 1 0 1e10000000 0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_GERMS) + ["directory"])
def test_cli_exits_2_on_malformed_input(tmp_path, name):
    path = tmp_path / f"{name}.germ"
    if name == "directory":
        path.mkdir()
    else:
        path.write_bytes(BAD_GERMS[name])
    start = time.perf_counter()
    code, out, err = run_cli("classify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_exits_2_on_malformed_field_and_chi(tmp_path):
    germ = str(FIXTURES / "ex31.germ")
    bad = tmp_path / "bad.field"
    bad.write_text("vars 2\norder 3\ncoef z1\ncoef z1\n")
    code, _out, err = run_cli("witness", germ, "--field", str(bad))
    assert code == 2 and err.count("\n") == 1
    bad.write_text("vars 2\norder 3\nvars 2\n")
    code, _out, err = run_cli("witness", germ, "--field", str(FIXTURES / "ex31.field"),
                              "--chi", str(bad))
    assert code == 2 and err.count("\n") == 1


BAD_ARGS = {
    "flatten-negative-order": ["flatten", str(FIXTURES / "parabolic.germ"), "--order", "-3"],
    "nonminimal-negative-order": ["nonminimal-check", str(FIXTURES / "ex31.germ"), "--order", "-1"],
}


@pytest.mark.parametrize("name", sorted(BAD_ARGS))
def test_cli_exits_2_on_malformed_arguments(name):
    code, out, err = run_cli(*BAD_ARGS[name])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- the reader against the column-wise reader it replaced -------------------------
#
# The oracle below is the reader as it was before term lines were matched
# whole: every line split into columns, each column read by its own
# ``numeric`` call, then the content checked in a second pass.  The reader
# must give the same value or the same ParseError text on every input.


def _oracle_records(text, headers, blocks=()):
    values = {}
    rows = {label: [] for label in (None, *blocks)}
    opened = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key = parts[0]
        if key in headers:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '{key} <nonnegative integer>'")
            if key in values:
                raise ParseError(f"line {lineno}: second '{key}' header")
            try:
                values[key] = natural(parts[1])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif blocks and key == "coef":
            if len(parts) != 2 or parts[1] not in blocks:
                raise ParseError(f"line {lineno}: expected 'coef' and one of {', '.join(blocks)}")
            if parts[1] in opened:
                raise ParseError(f"line {lineno}: second 'coef {parts[1]}' block")
            current = parts[1]
            opened.add(current)
        elif blocks and current is None:
            raise ParseError(f"line {lineno}: term line before any 'coef' block")
        else:
            rows[current].append((lineno, parts))
    missing = [h for h in headers if h not in values]
    if missing:
        raise ParseError(f"missing header {', '.join(repr(h) for h in missing)}")
    return tuple(values[h] for h in headers), rows


def _oracle_pairs(rows, nints):
    raw = {}
    for lineno, parts in rows:
        if len(parts) != nints + 2:
            raise ParseError(f"line {lineno}: expected {nints} integers and 2 rationals")
        try:
            key = tuple(map(natural, parts[:nints]))
            if key in raw:
                raise ParseError(f"duplicate exponent {key}")
            raw[key] = (*rational_parts(parts[nints]), *rational_parts(parts[nints + 1]))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    den = math.lcm(*{d for _, a, _, b in raw.values() for d in (a, b)})
    return den, {e: (x * (den // a), y * (den // b)) for e, (x, a, y, b) in raw.items()}


def _oracle_series_from_pairs(nvars, trunc, den, pairs):
    if nvars < 1:
        raise ParseError("need at least one variable")
    for e in pairs:
        if sum(e) > trunc:
            raise ParseError(f"exponent {e} exceeds truncation {trunc}")
    return Series._from_pairs(nvars, trunc, den, pairs)


def _oracle_series(text):
    (nvars, order), rows = _oracle_records(text, ("vars", "order"))
    return _oracle_series_from_pairs(nvars, order, *_oracle_pairs(rows[None], 2 * nvars))


def _oracle_germ(text):
    s = _oracle_series(text)
    with content_errors():
        return Germ(s.nvars, s)


def _oracle_kernel(text):
    (weight,), rows = _oracle_records(text, ("weight",))
    den, pairs = _oracle_pairs(rows[None], 3)
    with content_errors():
        return KernelPolynomial(weight, {((a1, a2), j): G(F(x, den), F(y, den))
                                         for (a1, a2, j), (x, y) in pairs.items()})


def _oracle_field(text):
    blocks = ("z1", "z2", "w")
    (nvars, order), rows = _oracle_records(text, ("vars", "order"), blocks)
    if nvars != 2:
        raise ParseError("field files are two-variable")
    return TangentField(*(_oracle_series_from_pairs(2, order, *_oracle_pairs(rows[b], 4))
                          for b in blocks))


READERS = {
    "series": (loads_series, _oracle_series),
    "germ": (loads_germ, _oracle_germ),
    "kernel": (loads_kernel, _oracle_kernel),
    "field": (loads_field, _oracle_field),
}


def _outcome(loads, text):
    """The value a reader returns, or the text of the ParseError it raises."""
    try:
        return "value", loads(text)
    except ParseError as exc:
        return "error", str(exc)


def assert_reads_as_the_oracle(fmt, text):
    loads, oracle = READERS[fmt]
    assert _outcome(loads, text) == _outcome(oracle, text)


# blanks that str.split and the term pattern both split on, the no-break space among them
BLANK_RUNS = [" ", "  ", "\t", " \t", "\xa0", "\u2003", "\x1f"]
BLANKS = st.sampled_from(BLANK_RUNS)
JUNK = st.text("0123456789+-/#xi.²", max_size=4)
SIGNS = ["", "", "+", "-"]


class Digits:
    """Choices read off one integer, each one digit of it in mixed radix.

    One draw of bytes lays out a whole line this way, where a draw per
    choice would cost hypothesis a draw per column.
    """

    def __init__(self, bits: int):
        self.bits = bits

    def digit(self, radix: int) -> int:
        self.bits, d = divmod(self.bits, radix)
        return d

    def pick(self, choices):
        return choices[self.digit(len(choices))]


def flawed_term_line(nints, bits):
    """A term line read off the integer ``bits``, one in five with a column too
    many, too few or of junk.

    Exponents are naturals, some with a leading zero; rationals have 1 to 3
    digits and a denominator that may be zero; any blanks lie between the
    columns, and space and a comment may close the line.
    """
    d = Digits(bits)

    def natural():
        return d.pick(["0", "0", "1", "1", "2", "3", "01", "12"])

    def rational():
        length = 1 + d.digit(3)
        denominators = ["", "", "", "/2", "/3", "/6", "/07", "/10", "/0", "/00"]
        return d.pick(SIGNS) + str(d.digit(10**length)).zfill(length) + d.pick(denominators)

    cols = [natural() for _ in range(nints)] + [rational(), rational()]
    flaw = d.pick([None] * 12 + ["more", "fewer", "junk"])
    if flaw == "more":
        cols.insert(d.digit(len(cols) + 1), d.pick([natural, rational])())
    elif flaw == "fewer":
        del cols[d.digit(len(cols))]
    elif flaw == "junk":
        cols[d.digit(len(cols))] = "".join(d.pick("0123456789+-/#xi.²") for _ in range(d.digit(5)))
    line = d.pick(["", "", " ", "\t", "\xa0"]) + cols[0]
    line += "".join(d.pick(BLANK_RUNS) + col for col in cols[1:])
    line += d.pick(["", "", " ", "\t", "\xa0 "])
    return line + d.pick(["", "", "", "# note", "#", "  # 1 2 3"])


def term_lines(nints):
    """Term lines as :func:`flawed_term_line` reads them off one draw of 32 bytes each."""
    return st.binary(min_size=32, max_size=32).map(
        lambda b: flawed_term_line(nints, int.from_bytes(b, "big"))
    )


@st.composite
def header_line(draw, name, values):
    """A header line, one in ten with a value that is out of range or not a natural."""
    value = draw(st.sampled_from(values)) if draw(st.integers(0, 9)) else draw(JUNK)
    return draw(st.sampled_from(["", " "])) + name + draw(BLANKS) + value


@st.composite
def reader_texts(draw, fmt):
    if fmt == "kernel":
        heads = [draw(header_line("weight", ["1", "2", "3", "4", "5"]))]
        nints = 3
    else:
        nvars = 2 if fmt in ("germ", "field") else draw(st.integers(1, 3))
        heads = [draw(header_line("vars", [str(nvars)] * 5 + ["0"])),
                 draw(header_line("order", ["2", "3", "4", "6", "9"]))]
        nints = 2 * nvars
    body = draw(st.lists(term_lines(nints), max_size=8))
    if fmt == "germ":  # the parabolic quadric, so that many texts load
        body = ["1 0 1 0 1 0", "0 1 0 1 1 0", "2 0 0 0 1/2 0", "0 2 0 0 1/2 0",
                "0 0 2 0 1/2 0", "0 0 0 2 1/2 0"] + body
    if fmt == "field":
        labels = draw(st.permutations(["z1", "z2", "w"]))
        if draw(st.integers(0, 4)) == 0:  # a block given twice, or one of no field
            labels.append(draw(st.sampled_from(["z1", "z3"])))
        cuts = sorted(draw(st.integers(0, len(body))) for _ in labels)
        if draw(st.integers(0, 4)):  # mostly no term line before the first block
            cuts[0] = 0
        for label, at in reversed(list(zip(labels, cuts))):
            body.insert(at, f"coef {label}")
    lines = draw(st.permutations(heads)) + body
    if draw(st.integers(0, 5)) == 0:  # a header or a blank line out of place
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "vars 2", "# c"])))
    ends = st.sampled_from(["\n", "\n", "\r\n"])
    return "".join(line + draw(ends) for line in lines)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_the_reader_agrees_with_the_column_wise_reader(fmt):
    @settings(SETTINGS, max_examples=300)
    @given(reader_texts(fmt))
    def check(text):
        assert_reads_as_the_oracle(fmt, text)

    check()


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_every_fixture_reads_as_the_column_wise_reader_reads_it(fmt):
    paths = sorted(p for p in FIXTURES.iterdir() if p.is_file())
    assert paths
    for path in paths:
        assert_reads_as_the_oracle(fmt, path.read_text())


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer-digit limit"
)
@pytest.mark.parametrize("text, message", [
    (GERM_HEAD + "1 1 0 0 " + "7" * 5000 + " 0\n", "line 4: bad rational literal '{}'"),
    (GERM_HEAD + "1 1 0 0 1/" + "7" * 5000 + " 0\n", "line 4: bad rational literal '1/{}'"),
    (GERM_HEAD + "7" * 5000 + " 1 0 0 1 0\n", "line 4: expected a nonnegative integer, got '{}'"),
    # a duplicate exponent is named before its rational is read
    (GERM_HEAD + "1 0 1 0 " + "7" * 5000 + " 0\n", "line 4: duplicate exponent (1, 0, 1, 0)"),
])
def test_a_5000_digit_literal_is_named_and_exits_2(tmp_path, text, message):
    message = message.format("7" * 5000)
    for fmt in ("series", "germ"):
        loads, oracle = READERS[fmt]
        assert _outcome(loads, text) == _outcome(oracle, text) == ("error", message)
    path = tmp_path / "long.germ"
    path.write_text(text)
    code, out, err = run_cli("flatten", str(path), "--order", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_row_too_narrow_for_a_wide_header_compiles_no_pattern_of_that_width(monkeypatch):
    widths = []
    real = series_mod.term_pattern
    monkeypatch.setattr(series_mod, "term_pattern", lambda n: widths.append(n) or real(n))
    for rows in (["1 0 0 0 1 0"], ["1 0 0 0 1 0", "1 " * 10001 + "0"]):
        text = "vars 5000\norder 2\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match="^line 3: expected 10000 integers and 2 rationals$"):
            loads_germ(text)
    assert 10000 not in widths


@pytest.mark.parametrize("fmt, text, message", [
    ("germ", GERM_HEAD + "5 0 0 0 1 0\n1 0 1 1 x 0\n", "line 5: bad rational literal 'x'"),
    ("germ", GERM_HEAD + "5 0 0 0 1 0\n1 0 1 0 1 0\n", "line 5: duplicate exponent (1, 0, 1, 0)"),
    ("series", "vars 1\norder 2\n3 0 1 0\nvars 1\n", "line 4: second 'vars' header"),
    ("field", "vars 2\norder 2\ncoef z1\n3 0 0 0 1 0\ncoef z2\n0 0 0 0 1/0 0\n",
     "exponent (3, 0, 0, 0) exceeds truncation 2"),
    ("field", "vars 2\norder 2\ncoef z1\n0 0 0 0 1/0 0\ncoef z2\n3 0 0 0 1 0\n",
     "line 4: bad rational literal '1/0'"),
])
def test_every_term_line_error_comes_before_a_content_error(fmt, text, message):
    loads, oracle = READERS[fmt]
    assert _outcome(loads, text) == _outcome(oracle, text) == ("error", message)


# -- the one-pass reader of term rows against the line-by-line reader -----------------
#
# The oracle is the reader of term rows as it was before rows were read in
# one pass: each line matched whole by its own pattern, ``int`` of the
# groups, a line that the pattern or ``int`` rejects split into columns to
# name its first bad one, and an exponent past the order named once every
# line has been read.


def _line_pairs(rows, nints, order=None):
    columns = [_NATURAL_COLUMN] * nints + [_RATIONAL_COLUMN] * 2
    match = re.compile(r"\s*" + r"\s+".join(columns) + r"\s*").fullmatch
    limit = math.inf if order is None else order
    raw = {}
    over = None
    for lineno, line in rows:
        found = match(line)
        try:
            values = tuple(map(int, found.groups("1"))) if found else None
        except ValueError:
            values = None
        if values is None:
            parts = line.split()
            if len(parts) != nints + 2:
                raise ParseError(f"line {lineno}: expected {nints} integers and 2 rationals")
            try:
                key = tuple(map(natural, parts[:nints]))
                if key in raw:
                    raise ParseError(f"duplicate exponent {key}")
                rational_parts(parts[nints])
                rational_parts(parts[nints + 1])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            raise AssertionError(f"line {lineno}: the pattern rejects columns that parse")
        key = values[:nints]
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate exponent {key}")
        raw[key] = values[nints:]
        if sum(key) > limit and over is None:
            over = key
    if over is not None:
        raise ParseError(f"exponent {over} exceeds truncation {order}")
    den = math.lcm(*{d for _, a, _, b in raw.values() for d in (a, b)})
    return den, {e: (x * (den // a), y * (den // b)) for e, (x, a, y, b) in raw.items()}


def assert_rows_read_as_the_line_reader(rows, nints, order=None):
    """The same (den, pairs), in the same order, or the same ParseError text."""
    got = _outcome(lambda r: parse_pairs(r, nints, order), rows)
    want = _outcome(lambda r: _line_pairs(r, nints, order), rows)
    assert got == want
    if got[0] == "value":
        assert list(got[1][1]) == list(want[1][1])
    return got


# the headers and blocks of each term-line format, and its exponent columns
LAYOUTS = [
    (("vars", "order"), (), None),
    (("weight",), (), 3),
    (("vars", "order"), ("z1", "z2", "w"), 4),
]


def test_every_fixture_block_reads_as_the_line_reader_reads_it():
    blocks = 0
    for path in sorted(p for p in FIXTURES.iterdir() if p.is_file()):
        for headers, labels, nints in LAYOUTS:
            try:
                values, rows = read_records(path.read_text(), headers, labels)
            except ParseError:
                continue
            order = values[1] if len(values) == 2 else None
            for block in rows.values():
                outcome = assert_rows_read_as_the_line_reader(block, nints or 2 * values[0], order)
                blocks += outcome[0] == "value" and bool(block)
    assert blocks >= 20


GOOD_DENOMINATORS = ["", "", "", "/2", "/3", "/6", "/07", "/10", "/99991", "/1" + "0" * 30]


def good_row(nints, bits):
    """(exponents, line) of a valid term row, each choice read off the integer ``bits``.

    The choices are those of the row grammar: zeros before each exponent in
    0..5, two rationals of 1 to 25 digits, any blanks between the columns
    and space around the row; each is one digit of ``bits`` in mixed radix.
    """
    d = Digits(bits)

    def rational():
        length = 1 + d.digit(25)
        return d.pick(SIGNS) + str(d.digit(10**length)).zfill(length) + d.pick(GOOD_DENOMINATORS)

    key = tuple(d.digit(6) for _ in range(nints))
    cols = [d.pick(["", "0", "00"]) + str(k) for k in key] + [rational(), rational()]
    line = d.pick(["", "", " ", "\t", "\xa0"]) + cols[0]
    line += "".join(d.pick(BLANK_RUNS) + col for col in cols[1:])
    return key, line + d.pick(["", "", " ", "\u2003"])


def good_rows(nints, min_size=0):
    """Valid term rows of distinct exponents in 0..5, columns apart by any blanks.

    One draw of 32 bytes per row fixes its exponents and its layout
    (``good_row``), 256 bits against at most 236 that a row of six
    exponents reads.
    """
    row = st.binary(min_size=32, max_size=32).map(
        lambda b: good_row(nints, int.from_bytes(b, "big"))
    )
    rows = st.lists(row, min_size=min_size, max_size=min_size + 60, unique_by=lambda r: r[0])
    return rows.map(lambda rows: [(lineno, line) for lineno, (_, line) in enumerate(rows, 1)])


@pytest.mark.parametrize("nints", [0, 2, 3, 4, 6])
def test_valid_rows_read_as_the_line_reader_reads_them(nints):
    @SETTINGS
    @given(good_rows(nints), st.booleans())
    def check(rows, bounded):
        order = max((sum(map(int, line.split()[:nints])) for _, line in rows), default=0)
        outcome = assert_rows_read_as_the_line_reader(rows, nints, order if bounded else None)
        assert outcome[0] == "value" or nints == 0  # no exponent columns: () repeats

    check()


def _bad_line(kind, rows, nints):
    """A row of the given kind of fault, for a block of distinct exponents in 0..5."""
    key = [str(k) for k in range(6, 6 + nints)]  # new, and of degree above 5 nints
    if kind == "bad column":
        return " ".join(key + ["1", "2/x"])
    if kind == "duplicate":
        return rows[len(rows) // 2][1]
    if kind == "over the order":
        return " ".join(key + ["1", "0"])
    return " ".join(key + ["7" * 5000, "0"])  # past the integer-digit limit


@pytest.mark.parametrize("kind", ["bad column", "duplicate", "over the order", "5000 digits"])
def test_one_bad_row_after_many_good_ones_is_named_as_the_line_reader_names_it(kind):
    @SETTINGS
    @given(good_rows(4, min_size=20), st.data())
    def check(rows, data):
        at = data.draw(st.integers(len(rows) - 10, len(rows)))
        rows = rows[:at] + [(0, _bad_line(kind, rows, 4))] + rows[at:]
        rows = [(lineno, line) for lineno, (_, line) in enumerate(rows, 1)]
        outcome = assert_rows_read_as_the_line_reader(rows, 4, 20)
        assert outcome[0] == "error"

    check()


# -- the packed germ reader against the series reader ---------------------------------
#
# ``loads_germ`` packs R straight from the term-line columns.  It must give
# the packed R and the R that the series reader gives, and on every other
# text the exception that ``Germ(n, loads_series(text))`` raises.

GERM_FAULTS = [None] * 6 + ["low degree", "low order", "no variables", "over the order",
                            "duplicate", "bad literal", "wrong width"]


def _literal(draw):
    """A rational literal, often not in lowest terms (``2/4``), sometimes zero."""
    num = draw(st.one_of(st.just(0), st.integers(-12, 12), st.integers(-2**70, 2**70)))
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10, 2**40]))
    k = draw(st.sampled_from([1, 1, 2, 3, 5]))  # a common factor left in
    if den * k == 1:
        return ("+" if num >= 0 and draw(st.booleans()) else "") + str(num)
    return f"{num * k}/{den * k}"


@st.composite
def germ_texts(draw):
    """Germ file text of 1 or 2 variables and order 2 to 12, valid but for one drawn fault.

    Zero coefficients come at any degree, degrees 0 and 1 among them, and
    comments and blank lines come between and after the term lines.
    """
    fault = draw(st.sampled_from(GERM_FAULTS))
    nvars = draw(st.integers(1, 2))
    order = draw(st.integers(0, 1)) if fault == "low order" else draw(st.integers(2, 12))
    width = 2 * nvars
    exps = st.lists(st.integers(0, order), min_size=width, max_size=width).filter(
        lambda e: sum(e) <= order
    )
    terms = draw(st.dictionaries(exps.map(tuple), st.just(None), max_size=30))
    lines = []
    for e in terms:
        zero = sum(e) < 2 or draw(st.integers(0, 5)) == 0
        parts = ["0", draw(st.sampled_from(["0", "0/3", "-0"]))] if zero else \
            [_literal(draw), _literal(draw)]
        lines.append(" ".join([*map(str, e), *parts]))
    bad = [str(k) for k in range(width)]
    if fault == "low degree":
        lines.append(" ".join(["0"] * width + [_literal(draw), "1/2"]))
        if draw(st.booleans()):
            lines[-1] = " ".join(["0"] * (width - 1) + ["1", "2/4", "0"])
    elif fault == "no variables":
        lines = ["1/2 0"]
    elif fault == "over the order":
        lines.append(" ".join([str(order + draw(st.integers(1, 3)))] + ["0"] * (width - 1) + ["1", "0"]))
    elif fault == "duplicate" and lines:
        lines.append(lines[draw(st.integers(0, len(lines) - 1))])
    elif fault == "bad literal":
        lines.append(" ".join(bad + [draw(st.sampled_from(["1/0", "x", "0.5"])), "0"]))
    elif fault == "wrong width":
        lines.append(" ".join(bad + ["1"]))
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  "])))
    lines = [line + draw(st.sampled_from(["", "", "  # c"])) for line in lines]
    head = [f"vars {0 if fault == 'no variables' else nvars}", f"order {order}"]
    return "\n".join(head + lines) + "\n"


def _germ_from_series_reader(text):
    s = loads_series(text)
    with content_errors():
        return Germ(s.nvars, s)


def _raised(read, text):
    """The value ``read`` returns, or the type and text of the exception it raises."""
    try:
        return "value", read(text)
    except Exception as exc:
        return "error", (type(exc), str(exc))


@settings(SETTINGS, max_examples=300)
@given(germ_texts())
@example("vars 2\norder 2\n0 0 0 0 0 0\n1 0 0 0 0/4 -0\n1 0 1 0 2/4 6/8\n")
@example("vars 0\norder 4\n1 0\n")
@example("vars 2\norder 1\n")
@example("vars 100000000000\norder 4\n")  # no term to decode, whatever the width
def test_the_germ_reader_packs_what_the_series_reader_reads(text):
    got = _raised(loads_germ, text)
    want = _raised(_germ_from_series_reader, text)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "value"
    germ, series = got[1], want[1].R
    assert germ._packed_r() == series_mod._packed(series, series.trunc)
    assert germ.quadratic_part() == series.homogeneous_part(2)
    assert (germ.n, germ.trunc) == (series.nvars, series.trunc) and germ.R == series
