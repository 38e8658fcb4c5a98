"""Scalar layer: canonical rational functions of q, q-combinatorics,
the textual grammar, and the three field adapters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import intpoly, qscalar
from heckelab.intpoly import gcd_heu, primitive_part
from heckelab.qscalar import (
    DEFAULT_PRIME,
    MAX_NESTING,
    MAX_WRITTEN_DEGREE,
    FieldSpec,
    ModInt,
    QScalar,
    Q_ONE,
    Q_VAR,
    Q_ZERO,
    ScalarParseError,
    SpecializationError,
    format_scalar,
    make_field,
    parse_scalar,
    q_binomial,
    q_factorial,
    q_number,
    sample_modular_qs,
    sample_rational_qs,
    _canonical,
    _poly_gcd,
)


def L(d):
    """The Laurent polynomial sum(c q^e) for d = {e: c}."""
    return sum((Fraction(c) * Q_VAR ** e for e, c in d.items()), Q_ZERO)


def QS(num, den=None):
    return L(num) if den is None else L(num) / L(den)


def parts(x):
    return x.shift, x.num, x.den


# --- canonical form -------------------------------------------------------

def test_canonical_cancels_common_factors():
    # (q^2 - 1) / (q - 1) = q + 1
    x = QS({2: 1, 0: -1}, {1: 1, 0: -1})
    assert x == QS({1: 1, 0: 1})
    assert parts(x) == (0, (1, 1), (1,))


def test_canonical_denominator_constant_term_one():
    # 1 / (2 - q) is stored as 1 / (2 - q), with D(0) > 0, and printed
    # with the denominator scaled to constant term 1
    x = QS({0: 1}, {0: 2, 1: -1})
    assert parts(x) == (0, (1,), (2, -1))
    assert format_scalar(x) == "(1/2)/(-1/2*q + 1)"
    assert x * QS({0: 2, 1: -1}) == 1
    # the sign goes to the numerator: -1 / (q - 2) is the same value
    assert parts(Q_ONE / (2 - Q_VAR)) == parts(-1 / (Q_VAR - 2))


def test_canonical_shifts_q_powers_into_numerator():
    # 1/q is a power of q, not a denominator
    x = Q_ONE / Q_VAR
    assert parts(x) == (-1, (1,), (1,))
    assert parts(Q_VAR ** 2 / (Q_VAR ** 3 + Q_VAR)) == (1, (1,), (1, 0, 1))


def test_canonical_coprime():
    x = QS({3: 1, 1: 2, -1: 1}, {2: 1, 0: 3}) * Fraction(4, 6)
    assert x.num[0] and x.num[-1] and x.den[0] > 0 and x.den[-1]
    assert _poly_gcd(x.num, x.den) == [1]
    assert primitive_part(x.num + x.den)[0] == 1  # no common integer content


def structural_equality_holds():
    """Equal values built along different routes have equal parts and
    hashes; the values include integer contents to cancel."""
    pairs = [
        (QS({2: 1, 0: -1}, {1: 1, 0: -1}), QS({1: 1, 0: 1})),
        (QS({1: 2, 0: 2}, {0: 4}), (Q_VAR + 1) / 2),
        ((2 * Q_VAR + 2) / (4 * Q_VAR - 6), (Q_VAR + 1) / (2 * Q_VAR - 3)),
        ((6 * Q_VAR ** 2 - 6) / (9 * Q_VAR + 9), Fraction(2, 3) * (Q_VAR - 1)),
        (QS({0: 3}, {0: 6}), QScalar.from_rat(Fraction(1, 2))),
    ]
    return all(parts(a) == parts(b) and hash(a) == hash(b) for a, b in pairs)


def test_equality_is_structural_and_hashable():
    assert structural_equality_holds()
    assert QScalar.from_rat(3) == 3
    assert hash(QScalar.from_rat(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(QS({0: 3}, {0: 6})) == hash(Fraction(1, 2))
    assert hash(Q_ZERO) == hash(0) and hash(Q_ONE) == hash(1)


def test_structural_equality_needs_the_content_gcd(monkeypatch):
    # negative control: a canonical form that keeps the integer content
    # gives equal values different parts
    def unit_content(a):
        sign = 1 if a[-1] > 0 else -1
        return sign, [sign * x for x in a]

    monkeypatch.setattr(qscalar, "primitive_part", unit_content)
    assert not structural_equality_holds()


def test_int_interop():
    assert Q_VAR + 0 == Q_VAR
    assert 1 + Q_VAR - 1 == Q_VAR
    assert 2 * Q_VAR == Q_VAR + Q_VAR
    assert (Q_VAR * 0) == 0 and not (Q_VAR * 0)
    assert Q_VAR / 2 == Fraction(1, 2) * Q_VAR


# --- the heuristic gcd, against Euclid's ----------------------------------

def times(a, b):
    """Product of two integer coefficient lists (index = exponent)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# small coefficients, and ones beyond 64 bits of either sign
coefficient = st.one_of(st.integers(-3, 3), st.integers(2**64, 2**70),
                        st.integers(-2**70, -2**64))
int_poly = st.lists(coefficient, min_size=1, max_size=4).filter(lambda c: c[-1])
scale = st.integers(-6, 6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(int_poly, int_poly, int_poly, scale, scale)
def test_heuristic_gcd_is_euclids(f, u, v, r, t):
    # a planted common factor f; coprime pairs and constants arise when f,
    # u or v has length one, negative leads from the signs drawn
    pa, pb = [r * x for x in times(f, u)], [t * x for x in times(f, v)]
    ca, a = primitive_part(pa)
    cb, b = primitive_part(pb)
    assert [ca * x for x in a] == pa and [cb * x for x in b] == pb
    assert a[-1] > 0 and primitive_part(a)[0] == 1
    found = gcd_heu(a, b)
    assert found is not None
    g, qa, qb = found
    assert times(g, qa) == a and times(g, qb) == b
    assert g == _poly_gcd(pa, pb)


@pytest.mark.parametrize("a, b, quotient", [
    ([2, 3, 1], [1, 1], [2, 1]),        # (1 + q)(2 + q)
    ([1, 3], [1, 2], None),             # 3 is no multiple of the lead 2
    ([1, 0, 1], [1, 1], None),          # remainder 2
    ([1, 1], [1, 1, 1], None),          # divisor of higher degree
], ids=["divides", "lead", "remainder", "degree"])
def test_exact_quotient(a, b, quotient):
    assert intpoly.exact_quotient(a, b) == quotient


def unchecked_quotient(a, b):
    """Long division over Z that ignores every remainder."""
    m = len(b) - 1
    a = list(a)
    quot = [0] * max(len(a) - m, 1)
    for i in range(len(a) - 1 - m, -1, -1):
        quot[i] = f = a[i + m] // b[m]
        for j in range(m + 1):
            a[i + j] -= f * b[j]
    return quot


def test_heuristic_gcd_needs_the_division_check(monkeypatch):
    # (1 + q)(1 + 3q) and (1 + q)(2 - 2q + q^2): the candidate read from the
    # first evaluation point does not divide both
    a, b = [1, 4, 3], [2, 0, -1, 1]
    euclid = _poly_gcd(a, b)
    assert euclid == [1, 1]
    assert gcd_heu(a, b)[0] == euclid
    # negative control: accepting that first candidate unchecked is wrong
    monkeypatch.setattr(intpoly, "exact_quotient", unchecked_quotient)
    assert gcd_heu(a, b)[0] != euclid


def canonical_sample():
    """QScalars whose canonicalisation cancels nontrivial gcds."""
    x = QS({2: 1, 0: -1}, {1: 1, 0: -1})
    y = QS({0: 1}, {0: 2, 1: -1}) + QS({1: Fraction(1, 3)}, {2: 1, 0: 1})
    z = (Q_VAR + 1) ** 3 / ((Q_VAR ** 2 - 1) * (Q_VAR - Fraction(1, 2)))
    return [x, y, z, y / z, x * y - z, q_binomial(6, 3), q_binomial(5, 2) / q_number(4)]


def test_euclid_fallback_gives_the_same_canonical_forms(monkeypatch):
    euclid_calls = []
    euclid = qscalar._poly_gcd

    def counted(a, b):
        euclid_calls.append(1)
        return euclid(a, b)

    monkeypatch.setattr(qscalar, "_poly_gcd", counted)
    fast = canonical_sample()
    assert not euclid_calls  # Euclid runs only when the heuristic gives up
    monkeypatch.setattr(qscalar, "gcd_heu", lambda a, b: None)
    slow = canonical_sample()
    assert euclid_calls
    for x, y in zip(fast, slow):
        assert parts(x) == parts(y)
        assert format_scalar(x) == format_scalar(y)


# --- field axioms via hypothesis ------------------------------------------

small_laurent = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=3,
)


@st.composite
def qscalars(draw):
    num = draw(small_laurent)
    den = draw(small_laurent.filter(lambda d: any(Fraction(v) for v in d.values())))
    return QS(num, den)


@settings(max_examples=60, deadline=None)
@given(qscalars(), qscalars(), qscalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Q_ZERO == a
    assert a * Q_ONE == a
    if a:
        assert a * (Q_ONE / a) == Q_ONE


@settings(max_examples=40, deadline=None)
@given(qscalars(), st.integers(-4, 4).filter(bool))
def test_canonicalisation_idempotent(a, c):
    assert parts(_canonical(a.shift, list(a.num), a.den)) == parts(a)
    # nor do a common integer factor and q-power padding change the parts
    padded = [0, 0] + [c * x for x in a.num]
    assert parts(_canonical(a.shift - 2, padded, [c * x for x in a.den])) == parts(a)


@settings(max_examples=40, deadline=None)
@given(qscalars(), qscalars())
def test_arithmetic_matches_evaluation(a, b):
    # evaluation at a non-pole rational point is a ring homomorphism
    q0 = Fraction(5, 3)
    try:
        av, bv = a.evaluate(q0), b.evaluate(q0)
    except SpecializationError:
        return
    assert (a + b).evaluate(q0) == av + bv
    assert (a * b).evaluate(q0) == av * bv


# --- q-combinatorics -------------------------------------------------------

def test_q_number_small_values():
    assert q_number(0) == 0
    assert q_number(1) == 1
    assert q_number(2) == Q_VAR + Q_VAR ** -1
    assert q_number(3) == Q_VAR ** 2 + 1 + Q_VAR ** -2


def test_q_number_matches_quotient_definition():
    lam = Q_VAR - Q_VAR ** -1
    for p in range(-6, 7):
        assert q_number(p) * lam == Q_VAR ** p - Q_VAR ** -p


def test_q_number_odd_symmetry():
    for p in range(1, 6):
        assert q_number(-p) == -q_number(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7)
         .filter(lambda x: x not in (0, 1)))
def test_q_number_evaluation(p, q0):
    got = q_number(p).evaluate(q0)
    assert got == (q0 ** p - q0 ** -p) / (q0 - 1 / q0)


def test_q_factorial():
    assert q_factorial(0) == 1
    assert q_factorial(1) == 1
    assert q_factorial(2) == q_number(2)
    assert q_factorial(3) == q_number(2) * q_number(3)
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_q_binomial_values():
    assert q_binomial(2, 1) == q_number(2)
    assert q_binomial(4, 2) == q_factorial(4) / (q_factorial(2) * q_factorial(2))
    for p in range(0, 6):
        assert q_binomial(p, 0) == 1
        assert q_binomial(p, p) == 1
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


def test_q_binomial_pascal_recurrence():
    # q_binomial(p, i) = q^i b(p-1, i) + q^(i-p) b(p-1, i-1)
    for p in range(1, 7):
        for i in range(0, p + 1):
            lhs = q_binomial(p, i)
            rhs = Q_ZERO
            if i <= p - 1:
                rhs = rhs + Q_VAR ** i * q_binomial(p - 1, i)
            if i >= 1:
                rhs = rhs + Q_VAR ** (i - p) * q_binomial(p - 1, i - 1)
            assert lhs == rhs, (p, i)


def test_q_binomial_classical_limit():
    from math import comb
    for p in range(0, 7):
        for i in range(0, p + 1):
            assert q_binomial(p, i).evaluate(1) == comb(p, i)


# --- specialisation --------------------------------------------------------

def test_specialize_classical_limit_of_q_number():
    # canonical form has no pole at q = 1
    for p in range(0, 7):
        assert q_number(p).evaluate(1) == p


def test_specialize_pole_raises():
    x = Q_ONE / (Q_VAR - 1)
    with pytest.raises(SpecializationError):
        x.evaluate(1)


def test_specialize_modes():
    x = q_number(3)
    assert make_field(FieldSpec.symbolic()).from_qscalar(x) is x
    assert make_field(FieldSpec.evaluated(Fraction(2, 3))).from_qscalar(x) == \
        Fraction(2, 3) ** 2 + 1 + Fraction(3, 2) ** 2
    spec = FieldSpec.modular(97, 5)
    got = make_field(spec).from_qscalar(x)
    assert got == ModInt((25 + 1 + pow(25, -1, 97)) % 97, 97)


def test_fieldspec_rejects_bad_parameters():
    with pytest.raises(SpecializationError):
        FieldSpec.evaluated(0)
    with pytest.raises(SpecializationError):
        FieldSpec.modular(91, 5)  # 91 = 7 * 13
    with pytest.raises(SpecializationError):
        FieldSpec.modular(97, 0)
    # the involutive classical point is allowed when named explicitly
    assert FieldSpec.evaluated(1).q == 1


def test_field_adapters_expose_constants():
    for spec in (FieldSpec.symbolic(), FieldSpec.evaluated(Fraction(2, 3)),
                 FieldSpec.modular(DEFAULT_PRIME, 7)):
        f = make_field(spec)
        assert f.lam == f.q - f.q ** -1
        assert f.of_int(5) == f.of_int(2) + f.of_int(3)
        assert f.q_number(3) == f.q ** 2 + f.one + f.q ** -2


# --- parsing and formatting ------------------------------------------------

def test_parse_examples():
    lam = Q_VAR - Q_VAR ** -1
    assert parse_scalar("q - q^-1") == lam
    assert parse_scalar("(q^2-1)/(q-1)") == Q_VAR + 1
    assert parse_scalar("0") == 0
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("2*q^2") == 2 * Q_VAR ** 2
    assert parse_scalar("2q^2") == 2 * Q_VAR ** 2
    assert parse_scalar("-q + 1") == 1 - Q_VAR
    assert parse_scalar("q^0") == 1
    assert parse_scalar("1/2*q") == Q_VAR / 2
    assert parse_scalar(" q +  1 ") == Q_VAR + 1


def test_parse_division_binds_tighter_than_sums():
    assert parse_scalar("q + 1/q") == Q_VAR + Q_VAR ** -1
    assert parse_scalar("2 - 1/q^2") == 2 - Q_VAR ** -2
    assert parse_scalar("-q^2 - 2 - 1/q^2") == -Q_VAR ** 2 - 2 - Q_VAR ** -2
    assert parse_scalar("(q^2 + 1)/(q)") == Q_VAR + Q_VAR ** -1
    assert parse_scalar("1/2q") == Q_VAR / 2
    # the form perfbench's gauge file writes
    assert parse_scalar("3/2*q^2 - q + 1/2*q^-1") == (
        Fraction(3, 2) * Q_VAR ** 2 - Q_VAR + Q_VAR ** -1 / 2)


def _signed_terms(terms):
    """Join (coefficient, exponent) pairs as a sum, negative exponents
    written as a division by a power of q: 3/4/q^2, 1/q."""
    text, want = "", Q_ZERO
    for c, e in terms:
        mag = abs(c)
        body = str(mag.numerator)
        if mag.denominator != 1:
            body += "/%d" % mag.denominator
        if e > 0:
            body += "*q^%d" % e
        elif e < 0:
            body += "/q" if e == -1 else "/q^%d" % -e
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += (" - " if c < 0 else " + ") + body
        want = want + c * Q_VAR ** e
    return text, want


nonzero_fractions = st.fractions(min_value=-9, max_value=9,
                                 max_denominator=9).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(nonzero_fractions, st.integers(-4, 4)),
                min_size=1, max_size=6))
def test_parse_sums_with_reciprocal_powers(terms):
    text, want = _signed_terms(terms)
    got = parse_scalar(text)
    assert got == want, text
    assert parse_scalar(format_scalar(got)) == got


def test_parse_division_by_zero_polynomial():
    with pytest.raises(ScalarParseError):
        parse_scalar("(q)/(0)")
    with pytest.raises(ScalarParseError):
        parse_scalar("(q)/(1 - 1)")


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("q + #")
    assert err.value.pos == 4
    with pytest.raises(ScalarParseError):
        parse_scalar("")
    with pytest.raises(ScalarParseError):
        parse_scalar("q q")
    with pytest.raises(ScalarParseError):
        parse_scalar("(q")


def test_format_examples():
    lam = Q_VAR - Q_VAR ** -1
    assert format_scalar(lam) == "q - q^-1"
    assert format_scalar(Q_VAR ** -1 + Q_VAR ** -3) == "q^-1 + q^-3"
    assert format_scalar(Q_ZERO) == "0"
    assert format_scalar(QScalar.from_rat(Fraction(-3, 2))) == "-3/2"
    assert format_scalar(Q_ONE / (Q_VAR + 1)) == "(1)/(q + 1)"


@settings(max_examples=60, deadline=None)
@given(qscalars(), qscalars(), st.integers(-5, 5))
def test_parse_format_roundtrip(a, b, k):
    # b^2 + 1 has no root in Q(q); the quotient gives both parts contents
    # and common factors to cancel
    x = a * Q_VAR ** k / (b * b + 1)
    y = parse_scalar(format_scalar(x))
    assert parts(y) == parts(x) and hash(y) == hash(x)


def test_parse_rejects_deep_nesting():
    ok = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_scalar(ok) == 1
    deep = "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(ScalarParseError, match="nested deeper") as err:
        parse_scalar(deep)
    assert err.value.pos == MAX_NESTING


@pytest.mark.parametrize("text, pos", [
    ("q^99999999999", 0),
    ("q^%d + 1" % (MAX_WRITTEN_DEGREE + 1), 0),
    ("q^600 + 1/q^401", 10),
    ("q^-500 * q^500 * q", 17),
], ids=["huge", "one-over", "sum", "bare-q"])
def test_parse_bounds_the_written_degree(text, pos):
    # the sum of |exponents| over every q written counts, not the result
    with pytest.raises(ScalarParseError, match="sum to more than") as err:
        parse_scalar(text)
    assert err.value.pos == pos


def test_parse_accepts_the_written_degree_bound():
    half = MAX_WRITTEN_DEGREE // 2
    assert parse_scalar("q^%d * q^-%d" % (half, half)) == 1
    assert parse_scalar("q^%d + 1" % MAX_WRITTEN_DEGREE) == \
        Q_VAR ** MAX_WRITTEN_DEGREE + 1


def test_specialisation_errors_name_the_cause():
    with pytest.raises(SpecializationError, match="^pole at q = 2$"):
        parse_scalar("1/(q-2)").evaluate(2)
    with pytest.raises(SpecializationError, match=r"^pole at q = 2 \(mod 7\)$"):
        parse_scalar("1/(q-2)").evaluate_mod(2, 7)
    # the coefficient is named as the text form writes it
    with pytest.raises(SpecializationError,
                       match="^coefficient 1/23 has no value mod 23$"):
        parse_scalar("1/23").evaluate_mod(5, 23)
    with pytest.raises(SpecializationError,
                       match="^coefficient 2/23 has no value mod 23$"):
        parse_scalar("(q + 1)/(2*q + 23)").evaluate_mod(5, 23)
    assert parse_scalar("(q + 1)/(23*q + 2)").evaluate_mod(5, 29) == \
        6 * pow(117, -1, 29) % 29
    assert parse_scalar("(q + 1)/(2*q^-1 + 3)").evaluate(Fraction(1, 2)) == \
        Fraction(3, 2) * Fraction(1, 2) / (2 + Fraction(3, 2))


# --- modular scalars --------------------------------------------------------

def test_modint_arithmetic():
    p = 101
    a, b = ModInt(17, p), ModInt(64, p)
    assert a + b == 81 and a * b == 17 * 64 % p
    assert a - b == (17 - 64) % p
    assert (a / b) * b == a
    assert a ** -1 * a == 1
    assert ModInt(0, p) == 0 and not ModInt(0, p)
    assert 1 - ModInt(3, p) == p - 2
    with pytest.raises(ZeroDivisionError):
        a / ModInt(0, p)


@pytest.mark.parametrize("op", [
    lambda: ModInt(3, 7) == Fraction(1, 7),
    lambda: ModInt(3, 7) * Fraction(1, 7),
    lambda: ModInt(0, 7) ** -1,
    lambda: ModInt(3, 7) / 0,
    lambda: 1 / ModInt(0, 7),
], ids=["eq-fraction", "mul-fraction", "pow", "div", "rdiv"])
def test_modint_non_invertible_raises_zero_division(op):
    with pytest.raises(ZeroDivisionError, match="division by zero mod 7"):
        op()


# --- deterministic sampling -------------------------------------------------

def test_sample_rational_qs():
    qs = sample_rational_qs(5, seed=11)
    assert qs == sample_rational_qs(5, seed=11)
    assert len(set(qs)) == 5
    for v in qs:
        assert v not in (0, 1, -1)
        assert any(v == Fraction(a, b)
                   for a in range(2, 8) for b in range(2, 8) if a != b)


def test_sample_modular_qs():
    qs = sample_modular_qs(5, DEFAULT_PRIME, seed=3)
    assert qs == sample_modular_qs(5, DEFAULT_PRIME, seed=3)
    assert len(set(qs)) == 5
    for v in qs:
        t, ok = v, True
        for _ in range(18):
            if t == 1:
                ok = False
                break
            t = t * v % DEFAULT_PRIME
        assert ok
