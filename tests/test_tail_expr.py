"""Grammar tests for user-specified tail expressions.

Print the digest of the evaluation fixture with

    PYTHONPATH=src python tests/test_tail_expr.py
"""

import hashlib
import math

import numpy as np
import pytest

from levy_passage.tail_expr import TailExprError, parse_tail_expr


def test_arithmetic_and_precedence():
    f = parse_tail_expr("1 + 2 * x - 6 / 3")
    assert f(0.0) == -1.0
    assert f(2.0) == 3.0


def test_unary_minus_and_parentheses():
    f = parse_tail_expr("-(x - 1) * 2")
    assert f(0.0) == 2.0
    assert f(3.0) == -4.0


def test_ln_and_pow():
    f = parse_tail_expr("ln(x) / ln(2)")
    assert f(8.0) == pytest.approx(3.0, rel=1e-14)
    g = parse_tail_expr("pow(x, -1.5)")
    assert g(4.0) == pytest.approx(0.125, rel=1e-14)


def test_scientific_literals():
    f = parse_tail_expr("1e-3 + 2.5E2 * x")
    assert f(0.0) == pytest.approx(1e-3)
    assert f(1.0) == pytest.approx(250.001)


def test_vectorized_over_arrays():
    f = parse_tail_expr("pow(x, -2) / 2")
    x = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(f(x), [0.5, 0.125, 0.03125], rtol=1e-14)


def test_nested_composition():
    f = parse_tail_expr("pow(ln(x + 1), 2)")
    assert f(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)


def test_source_attribute_round_trip():
    src = "1 / (1 + x)"
    assert parse_tail_expr(src).source == src


@pytest.mark.parametrize("bad", [
    "2 +",
    "pow(x)",
    "ln 3",
    "foo(x)",
    "1..2",
    "(x",
    "x $ 2",
    # Python syntax outside the grammar
    "x**2",
    "x//2",
    "+x",
    "0x10",
    "1_0",
    "1j",
    "x # c",
    "[x]",
    "x.real",
    "ln(x=1)",
    "ln(*x)",
    "ln(x,)",
    "pow(x, 2,)",
    "x, 1",
    "e",
    "pow",
])
def test_malformed_expressions_raise(bad):
    with pytest.raises(TailExprError):
        parse_tail_expr(bad)


def test_error_reports_position():
    with pytest.raises(TailExprError, match="position"):
        parse_tail_expr("1 + qux")


@pytest.mark.parametrize("deep", ["(" * 300 + "x" + ")" * 300,
                                  "-" * 5000 + "x", "-" * 201 + "x",
                                  "x" + " + x" * 200],
                         ids=["parens-300", "minus-5000", "minus-201",
                              "sum-201"])
def test_deep_nesting_is_an_error_not_a_crash(deep):
    with pytest.raises(TailExprError, match="nest"):
        parse_tail_expr(deep)


def test_whitespace_only_separates_tokens():
    f = parse_tail_expr(" \t pow(x,\n 2)\r\n/ 2 ")
    assert f(3.0) == 4.5
    with pytest.raises(TailExprError, match="position 6"):
        parse_tail_expr("\n\n1 + qux")


# Expressions of the README and the benchmark, of the tests above, of the
# paper's counterexample tails, nested pow/ln and unary chains. The digest of
# their values on Python floats and on an array, with each result's type and
# dtype, pins the arithmetic bit for bit across any rewrite of the parser.
FIXTURE_EXPRS = (
    "pow(2.718281828459045, -2*x)",
    "pow(2.718281828459045, -x)",
    "1 + 2 * x - 6 / 3",
    "-(x - 1) * 2",
    "ln(x) / ln(2)",
    "pow(x, -1.5)",
    "1e-3 + 2.5E2 * x",
    "pow(x, -2) / 2",
    "pow(ln(x + 1), 2)",
    "1 / (1 + x)",
    "1/(x*ln(x)*ln(x))",
    "pow(x, -1) / -ln(x)",
    "pow(ln(pow(x, 2) + 1), pow(x, 0.5))",
    "ln(pow(ln(1 + x), 2) + ln(2 + pow(x, -0.5)))",
    "--x",
    "- - -x",
    "-x * -2 - -1",
    "1 - -pow(-x, 2) / -(-3)",
    "1 - x / 2 / 4 - 3 - x * 2 * .5",
    " \t1 /\n(x + .5)  ",
    "0",
    "2.5",
    "x",
)
FIXTURE_POINTS = (-1.0, 0.0, 1e-9, 1e-3, 0.25, 0.5, 1.0, math.e - 1.0, 2.0,
                  8.0, 1e3)
FIXTURE_DIGEST = (
    "e466c21ec2e0cadc1541fd7aba286c90feddf463a38dcc474c14c282835c55d5")


def fixture_digest() -> str:
    h = hashlib.sha256()
    for src in FIXTURE_EXPRS:
        f = parse_tail_expr(src)
        for x in FIXTURE_POINTS + (np.geomspace(1e-8, 1e8, 65),):
            y = f(x)
            h.update(f"{type(y).__name__} {np.asarray(y).dtype}".encode())
            h.update(np.asarray(y).tobytes())
    return h.hexdigest()


def test_evaluation_fixture_is_bitwise_golden():
    assert fixture_digest() == FIXTURE_DIGEST


if __name__ == "__main__":
    print(fixture_digest())
