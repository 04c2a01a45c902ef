"""Expression language, jets, and the finite-difference oracle."""

import hashlib
import pickle
import sys
import time

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from logbound.errors import (
    DomainError,
    NonDifferentiableError,
    ParseError,
)
from logbound import exprjet, sandwich
from logbound.exprjet import (
    MAX_DEPTH,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    PowInt,
    Precision,
    Sub,
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
    assert e == Mul(Mul(Const("2"), Var("t")), Call("ln", Var("t")))


def test_parse_f_formula_matches_builder():
    assert parse(F_TEXT) == f_of(Var("x"))


def test_parse_alias_H_expands_to_f_of_square():
    e = parse("H(t) - (1/60)*(t-1)^5")
    # the alias disappears: only core nodes remain, built on f(t^2-1)
    assert "H" not in to_text(e)
    assert jet(e, 1, 5).derivatives == (0, 2, 2, -2, 4, -10)


# (text, exception type, message) recorded before the parser became one
# precedence-climbing loop; together they reach every ParseError site.
# When an input holds two errors, the first in reading order wins: the
# lexer reads a token only when the parser first looks at it.
PARSE_ERRORS = [
    ("1.2.3", ParseError, "malformed number '1.2.3' (at position 0)"),
    (".", ParseError, "malformed number '.' (at position 0)"),
    ("t $ 1", ParseError, "unexpected character '$' (at position 2)"),
    ("t t", ParseError, "unexpected trailing input (at position 2)"),
    ("2*t + q", ParseError, "unknown identifier 'q' (at position 6)"),
    ("cos(t)", ParseError, "unknown function 'cos' (at position 0)"),
    ("t + x", ParseError, "second variable 'x' (already using 't') (at position 4)"),
    ("t^1.5", ParseError, "expected integer exponent (at position 2)"),
    ("(t", ParseError, "expected ')' (at position 2)"),
    ("ln(t", ParseError, "expected ')' (at position 4)"),
    ("*t", ParseError, "unexpected token '*' (at position 0)"),
    (")", ParseError, "unexpected token ')' (at position 0)"),
    ("", ParseError, "unexpected end of input (at position 0)"),
    ("t +", ParseError, "unexpected end of input (at position 3)"),
    ("-" * 100 + "t", ParseError, "expression nests deeper than 100 levels (at position 100)"),
    ("+".join(["t"] * 101), ParseError,
     "expression nests deeper than 100 levels (at position 0)"),
    ("f(" * 20 + "t" + ")" * 20, ParseError,
     "expression nests deeper than 100 levels (at position 0)"),
    ("x^a$", ParseError, "expected integer exponent (at position 2)"),
    # an exponent needs digits after e (and its sign)
    ("2e", ParseError, "unexpected trailing input (at position 1)"),
    ("3E-", ParseError, "unexpected trailing input (at position 1)"),
    ("2e+t", ParseError, "unexpected trailing input (at position 1)"),
    ("1e5.5", ParseError, "unexpected trailing input (at position 3)"),
    ("t^1e2", ParseError, "expected integer exponent (at position 2)"),
    ("cos($", ParseError, "unknown function 'cos' (at position 0)"),
    ("1 2$", ParseError, "unexpected trailing input (at position 2)"),
    ("(t $", ParseError, "unexpected character '$' (at position 3)"),
    # numbers are ASCII digits only; str.isdigit would accept '²'
    ("\u00b2", ParseError, "unexpected character '\u00b2' (at position 0)"),
    ("x^\u00b2", ParseError, "unexpected character '\u00b2' (at position 2)"),
]
# more digits than int() converts (sys.get_int_max_str_digits, Python
# 3.11 and 3.10 from 3.10.7; 0 is no limit): mpf() would raise int()'s
# ValueError, with no position
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
if INT_LIMIT:
    PARSE_ERRORS += [
        ("1" * (INT_LIMIT + 1) + "*t", ParseError, f"number literal has {INT_LIMIT + 1} "
         f"mantissa digits, more than the limit of {INT_LIMIT} (at position 0)"),
        ("t + 2.5e-" + "1" * (INT_LIMIT + 1), ParseError, f"number literal has "
         f"{INT_LIMIT + 1} exponent digits, more than the limit of {INT_LIMIT} (at position 4)"),
    ]


def test_parse_errors_carry_position():
    assert MAX_DEPTH == 100
    for text, exc, message in PARSE_ERRORS:
        with pytest.raises(exc) as err:
            parse(text)
        assert type(err.value) is exc and str(err.value) == message, text
    with pytest.raises(ParseError) as err:
        parse("2*t + q")
    assert err.value.position == 6


def test_parse_trees_are_pinned():
    t, one, two, three = Var("t"), Const("1"), Const("2"), Const("3")
    assert parse("t - 1 - 2") == Sub(Sub(t, one), two)
    assert parse("t/2/3") == Div(Div(t, two), three)
    assert parse("-t^2") == Neg(PowInt(t, 2))
    assert parse("2*-t") == Mul(two, Neg(t))
    assert parse("t^-2") == PowInt(t, -2)
    assert parse("1 + 2*t^2/3 - -t") == Sub(
        Add(one, Div(Mul(two, PowInt(t, 2)), three)), Neg(t))
    assert parse("2e-50*t + 1.5E+3 - .5e2") == Sub(
        Add(Mul(Const("2e-50"), t), Const("1.5E+3")), Const(".5e2"))


def test_parse_lexes_each_token_once(monkeypatch):
    # a peeked token is kept until it is consumed: 11 tokens and the end
    # of input, each lexed once, in reading order
    positions = []
    lex = exprjet._Parser._lex

    def recording(self):
        tok = lex(self)
        positions.append(tok[2])
        return tok

    monkeypatch.setattr(exprjet._Parser, "_lex", recording)
    parse("3*x^2 - 2*x + 1")
    assert positions == [0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 14, 15]


def test_parse_bounds_the_nesting_depth():
    # a chain of k unary minuses nests k+1 levels; k+1 summands make a
    # tree k+1 levels deep
    parse("-" * (MAX_DEPTH - 1) + "t")
    parse("+".join(["t"] * MAX_DEPTH))
    for text in ("-" * MAX_DEPTH + "t", "+".join(["t"] * (MAX_DEPTH + 1))):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text)


def nested(alias, k):
    return alias + "(" + nested(alias, k - 1) + ")" if k else "t"


def test_parse_measures_nested_aliases_by_height():
    # f(u) holds u three times and adds 5 levels, H(u) adds 7: 19 nested
    # f are 96 levels high, 14 nested H 99; the depth check walks each
    # shared node once per level, so neither costs 3^k
    for alias, most in (("f", 19), ("H", 14)):
        for k in range(1, most + 1):
            start = time.perf_counter()
            parse(nested(alias, k))
            assert time.perf_counter() - start < 1, f"{k} nested {alias}"
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(nested("f", 20))


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
    assert j.derivatives == (0, 2, 2, -2, 4, -12)


def test_jet_of_H_matches_known_derivatives():
    j = jet(parse("H(t)"), 1, 5)
    assert j.derivatives == (0, 2, 2, -2, 4, -8)


def test_jet_of_constant():
    j = jet(parse("pi"), 1, 3)
    d = j.derivatives
    with mp.workdps(60):
        assert abs(d[0] - mp.pi) < mpf("1e-48")
    assert d[1:] == (0, 0, 0)


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
    assert jet(parse("sqrt(t)"), 0, 0).derivatives == (0,)
    with pytest.raises(DomainError):
        jet(parse("1/(t-1)"), 1, 2)


def _tree_walk(e, r, ctx):
    """e's result by the rule in field r of each _OPS row (see
    exprjet._walk), every node computed on its own: no slot is shared,
    not even that of a node reached twice."""
    op = exprjet._OPS[exprjet._key(e)]
    kids = [_tree_walk(c, r, ctx) for c in exprjet._children(e, op.kind)]
    if op.kind == "leaf":
        return op[r](e, ctx)
    return op[r](*kids) if op.kind in ("prefix", "call") else op[r](e, *kids)


def _tree_outcome(e, x, digits):
    """_outcome of the tree walk: eval_expr's precisions and rounding."""
    try:
        with mp.workdps(digits + exprjet.GUARD_DIGITS):
            v = _tree_walk(e, exprjet._POINT, mpmath.mpmathify(x))
        with mp.workdps(digits):
            return (+v)._mpf_
    except Exception as exc:
        return type(exc), str(exc)


def test_shared_subtree_gives_the_bits_of_distinct_copies(monkeypatch):
    # H(t) shares one t^2 - 1 node three times; the reparsed text holds
    # three distinct copies, which the tape merges into one slot as equal
    # subtrees: the expansion and the evaluation each compute t^2 once,
    # with the bits of a tree walk that computes every copy on its own
    shared = parse("H(t) - 0.5*(t-1)^5")
    copies = parse(to_text(shared))
    assert copies == shared
    powint = exprjet._s_powint
    expanded = []
    monkeypatch.setattr(exprjet, "_s_powint", lambda u, k: expanded.append(k) or powint(u, k))
    row = exprjet._OPS[PowInt]
    evaluated = []
    monkeypatch.setitem(exprjet._OPS, PowInt, row._replace(
        point=lambda e, b: evaluated.append(e.exponent) or row.point(e, b)))
    for e in (shared, copies):  # t^2 once and (t-1)^5 once
        evaluated.clear()
        eval_expr(e, "1.5")
        assert len(evaluated) == 2
    for digits in (30, 50, 120):
        p = Precision(digits)
        expanded.clear()
        a = jet(shared, 1, 14, p)
        assert len(expanded) == 2
        expanded.clear()
        b = jet(copies, 1, 14, p)
        assert len(expanded) == 2
        assert [c._mpf_ for c in a.coeffs] == [c._mpf_ for c in b.coeffs]
        with mp.workdps(digits + exprjet.GUARD_DIGITS + 14):
            tree = _tree_walk(copies, exprjet._SERIES, (mpf(1), 14))
        with mp.workdps(digits):
            assert [c._mpf_ for c in a.coeffs] == [(+c)._mpf_ for c in tree]
        for x in ("0.25", "1", "1.7", "-3"):
            assert (_outcome(shared, x, digits) == _outcome(copies, x, digits)
                    == _tree_outcome(copies, x, digits))


# sha256 prefixes of the raw _mpf_ tuples of the mp series path,
# recorded before the series rules became generic over the arithmetic.
# The three expressions reach every _OPS row: sin, atan, sqrt, Div by a
# non-constant, PowInt; ln, a negative PowInt, Div by pi; Neg and the
# f of H.
PIN_EXPRS = ("sin(t)*atan(sqrt(t + 1))/(1 + t^2)", "ln(t)*t^-3 - (2*t - 1)/pi",
             "-H(t) + 2*t*ln(t)")
PIN_POLYS = ("(1 + 2*x)^3 - x/3", "(x^2 - 1/7)^5*(3 - x)", "-(2*x + 0.3)^4/pi")
PIN_RATIONALS = ((("0", "1", "0.5"), ("1", "1", "0.1666666666666666666666667")),
                 (("0", "6", "3", "-0.5"), ("6", "6", "1.5", "0.25")))
SERIES_PINS = {
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),1,7,30': 'abf575bf45ba4f07',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),1,7,50': 'f2afb7109cbe0a5b',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),1,14,30': 'ee1810916a908d53',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),1,14,50': 'e080cc74d7a81f30',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),0.5,7,30': '152ec50e1dfd077e',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),0.5,7,50': '7b7e5cf1dd4b4aad',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),0.5,14,30': '4cd71308d42c7ab1',
    'sin(t)*atan(sqrt(t + 1))/(1 + t^2),0.5,14,50': '363ba98aca054ad2',
    'ln(t)*t^-3 - (2*t - 1)/pi,1,7,30': '2272dea815a68ee6',
    'ln(t)*t^-3 - (2*t - 1)/pi,1,7,50': '78bf8967070130be',
    'ln(t)*t^-3 - (2*t - 1)/pi,1,14,30': 'eb0e752ceb9c339e',
    'ln(t)*t^-3 - (2*t - 1)/pi,1,14,50': '732a0345f8572bd3',
    'ln(t)*t^-3 - (2*t - 1)/pi,0.5,7,30': 'c0b31904c9c81946',
    'ln(t)*t^-3 - (2*t - 1)/pi,0.5,7,50': '5ebb3069aedfaa7e',
    'ln(t)*t^-3 - (2*t - 1)/pi,0.5,14,30': '4af6451c92e13616',
    'ln(t)*t^-3 - (2*t - 1)/pi,0.5,14,50': 'ebe8c7e536c88f76',
    '-H(t) + 2*t*ln(t),1,7,30': '40ccc17bb7272f5e',
    '-H(t) + 2*t*ln(t),1,7,50': '882f774e41d7e1de',
    '-H(t) + 2*t*ln(t),1,14,30': 'a1a305fd45645307',
    '-H(t) + 2*t*ln(t),1,14,50': '0a73468d78374de7',
    '-H(t) + 2*t*ln(t),0.5,7,30': '4692958ffa32bcdf',
    '-H(t) + 2*t*ln(t),0.5,7,50': '77fa399e3b1f9b34',
    '-H(t) + 2*t*ln(t),0.5,14,30': '2e9f733ad1bc674a',
    '-H(t) + 2*t*ln(t),0.5,14,50': 'eba97259e0886d3e',
    'poly (1 + 2*x)^3 - x/3,30': '859a660e46b3f8f5',
    'poly (1 + 2*x)^3 - x/3,50': '9668c0259d741fce',
    'poly (x^2 - 1/7)^5*(3 - x),30': '390b241c74323471',
    'poly (x^2 - 1/7)^5*(3 - x),50': 'b3452bf9f5cf06fe',
    'poly -(2*x + 0.3)^4/pi,30': '203a86e6dac8365b',
    'poly -(2*x + 0.3)^4/pi,50': '4cc3172b4c37e210',
    "contact ('0', '1', '0.5')/('1', '1', '0.1666666666666666666666667'),30": '94d6b571da0cfcbb',
    "contact ('0', '1', '0.5')/('1', '1', '0.1666666666666666666666667'),50": 'e95553627451619b',
    "contact ('0', '6', '3', '-0.5')/('6', '6', '1.5', '0.25'),30": '7ef84431054f62ee',
    "contact ('0', '6', '3', '-0.5')/('6', '6', '1.5', '0.25'),50": 'f8af2e02b96592d4',
    'rule mul': 'd992e527e49d4b0c',
    'rule div': 'c03da1a63fbda77a',
    'rule pow 3': '7a0ed5ca21b59a6e',
    'rule pow -2': '5b5e35f102258a88',
    'rule ln': '5111ccdce1aa2d01',
    'rule sqrt': 'fb18e05a1ec8055d',
    'rule atan': '7b9325635020c450',
    'rule sin': '61383522bf2daa4d',
}


def _digest(values):
    raw = [tuple(int(c) for c in v._mpf_) for v in values]
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


def test_mp_series_bits_are_pinned(monkeypatch):
    got = {}
    for text in PIN_EXPRS:
        for center in ("1", "0.5"):
            for order in (7, 14):
                for digits in (30, 50):
                    j = jet(parse(text), center, order, Precision(digits))
                    got[f"{text},{center},{order},{digits}"] = _digest(j.coeffs)
    for text in PIN_POLYS:
        for digits in (30, 50):
            got[f"poly {text},{digits}"] = _digest(sandwich.expr_to_poly(parse(text),
                                                                         Precision(digits)))
    divided = []
    real = sandwich._s_div
    monkeypatch.setattr(sandwich, "_s_div", lambda *a: divided.append(real(*a)) or divided[-1])
    for p_coeffs, q_coeffs in PIN_RATIONALS:
        for digits in (30, 50):
            sandwich._contact_mismatch(sandwich.RationalFn(p_coeffs, q_coeffs), Precision(digits))
            got[f"contact {p_coeffs}/{q_coeffs},{digits}"] = _digest(divided.pop())
    # each rule on its own, unrounded, on one series with no zero term
    with mp.workdps(40):
        u = [mpf(v) / 7 for v in (5, -3, 2, 9, -4, 1, 6, -8, 3)]
        v = [mpf(v) / 3 for v in (4, 1, -2, 5, 7, -1, 2, 3, -6)]
        for name, c in (("mul", exprjet._s_mul(u, v)), ("div", exprjet._s_div(u, v, str)),
                        ("pow 3", exprjet._s_powint(u, 3)), ("pow -2", exprjet._s_powint(u, -2)),
                        ("ln", exprjet._s_ln(u)), ("sqrt", exprjet._s_sqrt(u)),
                        ("atan", exprjet._s_atan(u)), ("sin", exprjet._s_sin(u))):
            got[f"rule {name}"] = _digest(c)
    assert got == SERIES_PINS


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=12),
       st.lists(st.integers(-9, 9), min_size=2, max_size=12), st.integers(0, 6))
def test_series_product_skips_padded_zeros_with_the_same_bits(a, b, pad):
    # the full order-n Cauchy product, every zero term included
    n = max(len(a), len(b)) + pad - 1
    with mp.workdps(40):
        a = [mpf(v) / 7 for v in a] + [mpf(0)] * (n + 1 - len(a))
        b = [mpf(v) / 3 for v in b] + [mpf(0)] * (n + 1 - len(b))
        assume(any(a[1:]) and any(b[1:]))
        full = [mpmath.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]
        assert [c._mpf_ for c in exprjet._s_mul(a, b)] == [c._mpf_ for c in full]


def test_point_walk_evaluates_each_slot_once(monkeypatch):
    # point rules counted through patched rows; the trees are parsed
    # fresh, so their tapes read the patched rows
    calls = []
    for cls in (Const, Sub):
        row = exprjet._OPS[cls]
        monkeypatch.setitem(exprjet._OPS, cls, row._replace(
            point=lambda e, *a, rule=row.point: calls.append(e) or rule(e, *a)))
    h = parse("H(t)")
    u = h.left.right.right  # the t^2 - 1 that H holds three times
    assert to_text(u) == "t^2 - 1"
    consts = lambda: sum(type(e) is Const for e in calls)
    eval_expr(h, "1.5")
    n = consts()
    assert n == 4  # pi, 1, 2 and 4: equal constants of f and t^2 - 1 share a slot
    assert sum(e is u for e in calls) == 1
    eval_expr(h, "2.5")
    assert consts() == n and sum(e is u for e in calls) == 2
    eval_expr(h, "2.5", Precision(60))
    assert consts() == 2 * n and sum(e is u for e in calls) == 3
    # a variable-free ln(-1) keeps nothing, so it is evaluated and raises
    # the same message on every call
    bad = parse("t + ln(-1)")
    messages = []
    for x in ("1", "2", "3"):
        calls.clear()
        with pytest.raises(DomainError) as err:
            eval_expr(bad, x)
        messages.append(str(err.value))
        assert consts() == 1
    assert messages == ["ln of non-positive value -1.0"] * 3


# A ball around 0 holds values that the point rules reject: a ball rule
# must refuse it rather than vouch for a value there.
@pytest.mark.parametrize("text, message", [
    ("1/(t - 1)", "divisor ball reaches 0"),
    ("(t - 1)^-2", "base ball of a negative power reaches 0"),
    ("ln(t - 1)", "ln argument ball reaches 0"),
    ("sqrt(t - 1)", "sqrt argument ball reaches 0"),
])
def test_ball_refuses_an_argument_ball_at_the_domain_edge(text, message):
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        exprjet.Tape((parse(text),)).ball(1.0, 2.0 ** -52)


def test_series_ball_refuses_a_divisor_ball_near_0():
    # t - 0.9 over [0.93, 1.07] lies in [0.03, 0.17]: within a factor 2 of 0
    with pytest.raises(ArithmeticError, match="^divisor ball reaches 0$"):
        exprjet.Tape((parse("1/(t - 0.9)"),)).series(exprjet._F64Ball(1.0, 0.07), 3)


@pytest.mark.parametrize("ball", [exprjet._F64Ball, exprjet._MPBall])
def test_series_sqrt_refuses_an_argument_ball_that_reaches_0(ball):
    # sqrt over [0, 2e-3] reaches 0.0447, so an exact 0 does not enclose
    # it at order 0; from order 1 on, the kink is not differentiable
    u = ball(ball._exact(1e-3), 1e-3)
    with pytest.raises(ArithmeticError, match="^sqrt argument ball reaches 0$"):
        exprjet._s_sqrt([u])
    with pytest.raises(NonDifferentiableError):
        exprjet._s_sqrt([u, ball.scalar(1)])
    # an mpf 0 is exact: its square root is that same 0
    assert jet(parse("sqrt(t)"), 0, 0).coeffs[0]._mpf_ == (0, 0, 0, 0)


# Tapes that reach every row of the ball walk: Neg, Add, Sub, Mul, Div by
# a variable, the powers -2, 0 and 7, ln, sqrt, atan and sin, pi and
# decimal constants.
BALL_EXPRS = ("-sin(t)*atan(sqrt(t + 1))/t + (t - 0.5)^7",
              "ln(t)*t^-2 - (2.5*t - 1)/pi + t^0",
              "H(t) - 2*t*ln(t) - 0.0167*(t - 1)^5")


def _nodes(e):
    """e and every node below it, a shared node once."""
    nodes, todo = {}, [e]
    while todo:
        n = todo.pop()
        if id(n) not in nodes:
            nodes[id(n)] = n
            todo += [c for c in vars(n).values() if isinstance(c, exprjet.Expr)]
    return list(nodes.values())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BALL_EXPRS), st.floats(0.3, 3),
       st.sampled_from([0.0, 2.0 ** -52, 1e-9, 1e-4]))
def test_tape_ball_encloses_the_exact_value(text, x, err):
    # every node is a root, so each row's bound is checked on its own
    # inputs, not only where a generous bound elsewhere would hide it
    nodes = _nodes(parse(text))
    tape = exprjet.Tape(nodes)
    try:
        balls = tape.ball(x, err)
    except (ArithmeticError, ValueError):
        return  # a refusal vouches for nothing
    with mp.workdps(120):
        for s in (-err, 0.0, err):
            for node, want, (v, bound) in zip(nodes, tape.point(mpf(x) + s), balls):
                assert abs(want - v) <= bound, (to_text(node), x, err, s)


def test_each_function_is_its_one_calls_entry():
    # mpf calls the entry's point rule, bit for bit; both ball classes
    # enclose mpmath's 100-digit value at every point of their ball; each
    # call row takes its point and binary64 functions from the entry
    rows = {op.form: op for op in exprjet._OPS.values() if op.kind == "call"}
    assert set(rows) < set(exprjet._CALLS)
    for name, (fn, point, _, _, _) in exprjet._CALLS.items():
        for x in ("0.3", "1", "2.5"):
            with mp.workdps(30):
                v = mpf(x)
                assert exprjet._MP.call(name, v)._mpf_ == point(v)._mpf_
            if name in rows:
                assert rows[name].point is point
                assert rows[name].ball((float(x), 0.0))[0] == fn(float(x))
            for ball, dps in ((exprjet._F64Ball, 15), (exprjet._MPBall, 30)):
                for e in (0.0, 1e-3):
                    with mp.workdps(dps):
                        center = ball(ball._exact(x), e)
                        got = ball.call(name, center)
                    with mp.workdps(100):
                        for s in (-e, 0, e):
                            want = getattr(mpmath, name)(mpf(center.v) + s)
                            assert abs(want - got.v) <= got.e, (name, x, ball, e, s)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_simple_anchors():
    assert abs(fd_derivative(parse("ln(t)"), 1, 1) - 1) < mpf("1e-40")
    assert abs(fd_derivative(parse("H(t)"), 1, 5) - (-8)) < mpf("1e-40")
    assert abs(fd_derivative(parse("atan(x)"), 0, 3) - (-2)) < mpf("1e-40")


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
    derivs = j.derivatives
    assume(all(abs(d) < mpf("1e6") for d in derivs))
    for k in range(1, 7):
        try:
            fd = fd_derivative(e, center, k)
        except DomainError:
            assume(False)
        assert abs(derivs[k] - fd) <= max(mpf("1e-40"), mpf("1e-40") * abs(derivs[k]))


def _jet_off_fd(text, center):
    """The largest |jet - fd| / max(1, |jet|) over orders 1..6."""
    e = parse(text)
    ds = jet(e, center, 6).derivatives
    return max(abs(ds[k] - fd_derivative(e, center, k)) / max(1, abs(ds[k])) for k in range(1, 7))


def test_fd_catches_a_series_rule_off_by_1e_30(monkeypatch):
    assert _jet_off_fd("atan(t)/(1+t^2)", "0.5") <= mpf("1e-40")
    row = exprjet._OPS["atan"]

    def off(u):
        w = row.series(u)
        return w[:3] + [c * (1 + mpf("1e-30")) for c in w[3:]]

    # a tape takes its rows when it is built, and parse builds a new tree
    monkeypatch.setitem(exprjet._OPS, "atan", row._replace(series=off))
    assert _jet_off_fd("atan(t)/(1+t^2)", "0.5") > mpf("1e-40")
