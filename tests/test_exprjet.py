"""Expression language, jets, and the finite-difference oracle."""

import pickle

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from logbound.errors import (
    ConvergenceError,
    DomainError,
    NonDifferentiableError,
    ParseError,
)
from logbound.exprjet import (
    MAX_DEPTH,
    Add,
    Const,
    Ln,
    Mul,
    Precision,
    Var,
    decimal_text,
    eval_expr,
    f_of,
    fd_derivative,
    jet,
    parse,
    to_text,
)
from strategies import exprs

F_TEXT = "pi + (1/2)*(4+pi)*x - 2*(x+2)*atan(sqrt(x+1))"
F3 = "2.7824944560335780659859538564133868097924470444234"



def test_decimal_text_rounds_once():
    # rounding first to a 20-digit binary value and then to 20 decimal
    # digits ends in ...164; the value itself rounds to ...163
    with mp.workdps(60):
        v = mpf("0.7171824464435293816348832915074009305122")
    assert decimal_text(v, 20) == "0.71718244644352938163"
    assert decimal_text(None, 20) is None


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_direct_grammar_mapping():
    e = parse("2*t*ln(t)")
    assert e == Mul(Mul(Const("2"), Var("t")), Ln(Var("t")))


def test_parse_f_formula_matches_builder():
    assert parse(F_TEXT) == f_of(Var("x"))


def test_parse_alias_H_expands_to_f_of_square():
    e = parse("H(t) - (1/60)*(t-1)^5")
    # the alias disappears: only core nodes remain, built on f(t^2-1)
    assert "H" not in to_text(e)
    assert jet(e, 1, 5).derivatives() == [0, 2, 2, -2, 4, -10]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("2*t + q")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("ln(t")
    with pytest.raises(ParseError):
        parse("t + x")  # one variable per expression
    with pytest.raises(ParseError):
        parse("t^1.5")


def test_parse_bounds_the_nesting_depth():
    # a chain of k unary minuses nests k+1 levels; k+1 summands make a
    # tree k+1 levels deep
    parse("-" * (MAX_DEPTH - 1) + "t")
    parse("+".join(["t"] * MAX_DEPTH))
    for text in ("-" * MAX_DEPTH + "t", "+".join(["t"] * (MAX_DEPTH + 1))):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text)


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_print_parse_roundtrip(e):
    assert parse(to_text(e)) == e


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_f_anchor_values():
    f = parse(F_TEXT)
    assert eval_expr(f, 0) == 0
    with mp.workdps(60):
        assert abs(eval_expr(f, -1) - (mp.pi / 2 - 2)) < mpf("1e-48")
        assert abs(eval_expr(f, 3) - mpf(F3)) < mpf("1e-45")


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse("ln(t)"), -1)
    with pytest.raises(DomainError):
        eval_expr(parse("sqrt(x)"), -4)
    with pytest.raises(DomainError):
        eval_expr(parse("1/x"), 0)
    with pytest.raises(DomainError):
        eval_expr(parse("x^-2"), 0)


@settings(max_examples=40, deadline=None)
@given(exprs(safe=True), st.integers(2, 50))
def test_eval_precision_agreement(e, tenths):
    x = mpf(tenths) / 10
    try:
        v1 = eval_expr(e, x, Precision(50))
        v2 = eval_expr(e, x, Precision(70))
    except DomainError:
        assume(False)
    assume(abs(v2) < mpf("1e8"))
    with mp.workdps(80):
        assert abs(v1 - v2) <= mpf("1e-48") * max(1, abs(v2))


def test_evaluated_tree_pickles():
    e = parse("H(t) - (1/60)*(t-1)^5")
    v = eval_expr(e, "1.5")
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and eval_expr(copy, "1.5") == v


def _outcome(e, x, digits):
    """The bits of eval_expr's value, or the type and message it raised."""
    try:
        return eval_expr(e, x, Precision(digits))._mpf_
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(exprs(), st.integers(-20, 20))
def test_compiled_constants_follow_the_precision(e, tenths):
    # one tree evaluated at 70, then 20, then 50 digits gives the bits
    # (or the error) of a fresh copy evaluated at that precision alone;
    # a second tree starts low, so that constants kept from a coarser
    # precision would show at 70 digits
    x = mpf(tenths) / 10
    first = _outcome(e, x, 70)
    assert first == _outcome(parse(to_text(e)), x, 70)
    for digits in (20, 50):
        assert _outcome(e, x, digits) == _outcome(parse(to_text(e)), x, digits)
    assert _outcome(e, x, 70) == first
    e2 = parse(to_text(e))
    assert _outcome(e2, x, 20) == _outcome(e, x, 20)
    assert _outcome(e2, x, 70) == first


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_of_t_ln_t():
    j = jet(parse("2*t*ln(t)"), 1, 5)
    assert j.derivatives() == [0, 2, 2, -2, 4, -12]


def test_jet_of_H_matches_known_derivatives():
    j = jet(parse("H(t)"), 1, 5)
    assert j.derivatives() == [0, 2, 2, -2, 4, -8]


def test_jet_of_constant():
    j = jet(parse("pi"), 1, 3)
    d = j.derivatives()
    with mp.workdps(60):
        assert abs(d[0] - mp.pi) < mpf("1e-48")
    assert d[1:] == [0, 0, 0]


def test_jet_coefficient_derivative_contract():
    j = jet(parse("sin(t)"), mpf("0.3"), 6)
    for k in range(7):
        with mp.workdps(50):
            assert j.derivative(k) == j.coeffs[k] * mpmath.factorial(k)


def test_jet_domain_errors():
    with pytest.raises(DomainError):
        jet(parse("ln(t)"), -2, 3)
    with pytest.raises(NonDifferentiableError):
        jet(parse("sqrt(t)"), 0, 1)
    # order 0 at the sqrt kink is still fine
    assert jet(parse("sqrt(t)"), 0, 0).derivatives() == [0]
    with pytest.raises(DomainError):
        jet(parse("1/(t-1)"), 1, 2)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_simple_anchors():
    v, err = fd_derivative(parse("ln(t)"), 1, 1)
    assert abs(v - 1) < mpf("1e-10") and err < mpf("1e-10")
    v, err = fd_derivative(parse("H(t)"), 1, 5)
    assert abs(v - (-8)) < mpf("1e-6") and err < mpf("1e-6")
    v, err = fd_derivative(parse("atan(x)"), 0, 3)
    assert abs(v - (-2)) < mpf("1e-8") and err < mpf("1e-8")


def test_fd_tolerance_failure_raises():
    with pytest.raises(ConvergenceError):
        fd_derivative(parse("H(t)"), 1, 5, tol=mpf("1e-60"))


def test_fd_rejects_order_zero():
    with pytest.raises(ValueError):
        fd_derivative(parse("t"), 1, 0)


@settings(max_examples=25, deadline=None)
@given(exprs(safe=True), st.integers(2, 50))
def test_jets_match_fd_on_random_corpus(e, tenths):
    center = mpf(tenths) / 10  # [0.2, 5]
    try:
        j = jet(e, center, 6)
    except DomainError:
        assume(False)
    derivs = j.derivatives()
    assume(all(abs(d) < mpf("1e6") for d in derivs))
    for k in range(1, 7):
        try:
            fd, _ = fd_derivative(e, center, k)
        except DomainError:
            assume(False)
        assert abs(derivs[k] - fd) <= max(mpf("1e-8"), mpf("1e-8") * abs(derivs[k]))
