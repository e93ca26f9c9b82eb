"""The four file formats: round trips, strict rejection, and the CLI exit-2 contract."""

import io
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
from crflat.numeric import GaussianRational, integer, natural, rational_parts
from crflat.series import Series, dumps_series, format_term_lines, loads_series, term_line

from conftest import FIXTURES

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

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
    assert format_term_lines(s) == [term_line(e, c) for e, c in s.items()]


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
