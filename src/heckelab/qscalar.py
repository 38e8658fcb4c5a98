"""Exact scalars: Laurent polynomials in q and the field Q(q).

Everything downstream (tensor operators, noncommutative polynomials) is
generic over the scalar type, and three kinds are provided:

* ``QScalar``  -- a rational function of q over Q, kept in canonical form;
* ``Fraction`` -- plain rationals, used when q is pinned to a rational value;
* ``ModInt``   -- residues modulo a large prime, for fast sampled runs.

A ``FieldSpec`` names the scalar kind plus its parameters; ``make_field``
turns it into a small adapter exposing the constants (zero, one, q, lam)
and the map from symbolic values into the chosen field.

Canonical form of a ``QScalar``: the numerator is a Laurent polynomial, the
denominator an ordinary polynomial with constant term 1, and the two are
coprime (any power of q is shifted into the numerator).  Every value has
exactly one such representation, so equality and hashing are structural.
The common factor is cancelled on primitive integer coefficient lists by
the heuristic gcd ``intpoly.gcd_heu``, exact because it accepts a
candidate only after dividing both parts by it over Z; Euclid's algorithm
over Q (``_poly_gcd``) runs only when the heuristic gives up.

All scalar kinds interoperate with ``int`` and ``Fraction`` operands, which
keeps generic code free of explicit zero/one plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .intpoly import gcd_heu, primitive_part

Rat = Fraction  # arbitrary-precision rational coefficients


class SpecializationError(ArithmeticError):
    """Substituting a concrete q hit a pole or an invalid parameter."""


class ScalarParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------------
# Laurent polynomials in q over Q
# ---------------------------------------------------------------------------

class LaurentQ:
    """Laurent polynomial in q, stored sparsely as {exponent: Fraction}.

    Zero coefficients are never stored.  Instances are treated as immutable;
    all operations return fresh objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    d[int(e)] = c
        self.coeffs = d

    @staticmethod
    def _raw(d):
        out = object.__new__(LaurentQ)
        out.coeffs = d
        return out

    @classmethod
    def zero(cls):
        return _L_ZERO

    @classmethod
    def one(cls):
        return _L_ONE

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def term(cls, c, e):
        return cls({e: c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, LaurentQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({0: Fraction(other)} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return LaurentQ._raw({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.const(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e)
            if s is None:
                d[e] = c
            else:
                s = s + c
                if s:
                    d[e] = s
                else:
                    del d[e]
        return LaurentQ._raw(d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.const(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _L_ZERO
            return LaurentQ._raw({e: v * c for e, v in self.coeffs.items()})
        if not isinstance(other, LaurentQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _L_ZERO
        if len(a) > len(b):
            a, b = b, a
        d = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = d.get(e)
                if s is None:
                    d[e] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        d[e] = s
                    else:
                        del d[e]
        return LaurentQ._raw(d)

    __rmul__ = __mul__

    def shifted(self, k):
        """Multiply by q**k."""
        if k == 0 or not self.coeffs:
            return self
        return LaurentQ._raw({e + k: c for e, c in self.coeffs.items()})

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else None

    def constant_value(self):
        """The value as a Fraction if this is a constant, else None."""
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1 and 0 in self.coeffs:
            return self.coeffs[0]
        return None

    def evaluate(self, q0):
        """Value at q = q0 (exact Fraction; q0 must be nonzero if any
        negative exponent is present)."""
        q0 = Fraction(q0)
        if not q0 and self.coeffs and min(self.coeffs) < 0:
            raise SpecializationError("negative power of q at q = 0")
        acc = Fraction(0)
        for e, c in self.coeffs.items():
            acc += c * q0 ** e
        return acc

    def evaluate_mod(self, q0, prime):
        """Value at q = q0 in the prime field Z/prime."""
        acc = 0
        for e, c in self.coeffs.items():
            if c.denominator % prime == 0:
                raise SpecializationError("coefficient %s has no value mod %d"
                                          % (c, prime))
            t = c.numerator * pow(c.denominator, -1, prime) % prime
            acc = (acc + t * pow(q0, e, prime)) % prime
        return acc % prime

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return "LaurentQ(%s)" % format_laurent(self)


_L_ZERO = LaurentQ._raw({})
_L_ONE = LaurentQ._raw({0: Fraction(1)})


def _poly_divmod(a, b):
    """Long division of ordinary polynomials (nonnegative exponents)."""
    assert b.coeffs, "division by zero polynomial"
    rem = dict(a.coeffs)
    db = max(b.coeffs)
    lead_b = b.coeffs[db]
    quot = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        f = rem[da] / lead_b
        quot[da - db] = f
        for e, c in b.coeffs.items():
            t = da - db + e
            s = rem.get(t, Fraction(0)) - f * c
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return LaurentQ._raw(quot), LaurentQ._raw(rem)


def _poly_gcd(a, b):
    """Monic gcd of two ordinary polynomials over Q (Euclid's algorithm).

    The fallback of ``_canonical`` when ``gcd_heu`` gives up, and the
    tests' reference for it.
    """
    while b.coeffs:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a.coeffs:
        return _L_ONE
    lead = a.coeffs[max(a.coeffs)]
    if lead == 1:
        return a
    return LaurentQ._raw({e: c / lead for e, c in a.coeffs.items()})


# ---------------------------------------------------------------------------
# QScalar: canonical rational functions of q
# ---------------------------------------------------------------------------

class QScalar:
    """Element of Q(q) in canonical form (see module docstring).

    Do not call the constructor with non-canonical parts; use
    ``QScalar.make`` (or the arithmetic) instead.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def make(num, den=None):
        """Build a canonical QScalar from Laurent numerator/denominator."""
        if den is None:
            den = _L_ONE
        return _canonical(num, den)

    @classmethod
    def from_rat(cls, c):
        c = Fraction(c)
        if not c:
            return Q_ZERO
        return cls(LaurentQ.const(c), _L_ONE)

    @classmethod
    def q_power(cls, e):
        return cls(LaurentQ.term(1, e), _L_ONE)

    def constant_value(self):
        if self.den == _L_ONE:
            return self.num.constant_value()
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            c = self.constant_value()
            if c is not None:
                # constants hash like the rational they equal
                self._hash = hash(c)
            else:
                self._hash = hash((frozenset(self.num.coeffs.items()),
                                   frozenset(self.den.coeffs.items())))
        return self._hash

    def __neg__(self):
        return QScalar(-self.num, self.den)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            if self.den == _L_ONE:
                return QScalar(self.num + other.num, _L_ONE)
            return _canonical(self.num + other.num, self.den)
        return _canonical(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if self.den == _L_ONE and other.den == _L_ONE:
            return QScalar(self.num * other.num, _L_ONE)
        return _canonical(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return _canonical(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        k = int(k)
        if k == 0:
            return Q_ONE
        base = self if k > 0 else Q_ONE / self
        k = abs(k)
        acc = Q_ONE
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def evaluate(self, q0):
        """Exact value at q = q0 as a Fraction; SpecializationError at poles."""
        q0 = Fraction(q0)
        den = self.den.evaluate(q0)
        if not den:
            raise SpecializationError("pole at q = %s" % q0)
        return self.num.evaluate(q0) / den

    def evaluate_mod(self, q0, prime):
        den = self.den.evaluate_mod(q0, prime)
        if den == 0:
            raise SpecializationError("pole at q = %d (mod %d)" % (q0, prime))
        return self.num.evaluate_mod(q0, prime) * pow(den, -1, prime) % prime

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "QScalar(%s)" % format_scalar(self)


def _canonical(num, den):
    """Reduce num/den (Laurent pair) to canonical form."""
    if not den.coeffs:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num.coeffs:
        return Q_ZERO
    # shift all q-powers out of the denominator
    a = min(den.coeffs)
    if a:
        den = den.shifted(-a)
        num = num.shifted(-a)
    if den == _L_ONE:
        return QScalar(num, den)
    # cancel the polynomial part of the numerator against the denominator,
    # each a rational content times a primitive integer polynomial
    b = min(num.coeffs)
    core = num.shifted(-b) if b else num
    s, nz = primitive_part(core.coeffs)
    t, dz = primitive_part(den.coeffs)
    found = gcd_heu(nz, dz)
    if found is None:
        g = _poly_gcd(core, den)
        s, nz = primitive_part(_poly_divmod(core, g)[0].coeffs)
        t, dz = primitive_part(_poly_divmod(den, g)[0].coeffs)
    elif len(found[0]) == 1 and den.coeffs[0] == 1:
        return QScalar(num, den)  # coprime, and already normalised
    else:
        _, nz, dz = found
    # normalise: denominator constant term 1
    c0 = dz[0]
    s = s / (t * c0)
    num = LaurentQ._raw({e + b: s * c for e, c in enumerate(nz) if c})
    if len(dz) == 1:
        return QScalar(num, _L_ONE)
    return QScalar(num, LaurentQ._raw({e: Fraction(c, c0)
                                       for e, c in enumerate(dz) if c}))


def _lift(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_rat(x)
    if isinstance(x, LaurentQ):
        return QScalar.make(x)
    return None


Q_ZERO = QScalar(_L_ZERO, _L_ONE)
Q_ONE = QScalar(_L_ONE, _L_ONE)
Q_VAR = QScalar.q_power(1)  # the deformation parameter itself


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_number(p):
    """Symmetric q-analogue of the integer p.

    q_number(p) = (q^p - q^-p)/(q - q^-1) = q^(p-1) + q^(p-3) + ... + q^(1-p),
    extended to p <= 0 by the same quotient formula (odd under p -> -p).
    """
    p = int(p)
    if p == 0:
        return Q_ZERO
    sign = 1 if p > 0 else -1
    n = abs(p)
    return QScalar(LaurentQ._raw({n - 1 - 2 * j: Fraction(sign) for j in range(n)}),
                   _L_ONE)


def q_factorial(i):
    """Product q_number(1) * ... * q_number(i); empty product is 1."""
    i = int(i)
    if i < 0:
        raise ValueError("q_factorial of negative integer")
    acc = Q_ONE
    for k in range(2, i + 1):
        acc = acc * q_number(k)
    return acc


def q_binomial(p, i):
    """Gaussian binomial q_factorial(p) / (q_factorial(i) q_factorial(p-i)).

    Symmetric in i <-> p-i and specialises to the ordinary binomial
    coefficient at q = 1.
    """
    p, i = int(p), int(i)
    if not 0 <= i <= p:
        raise ValueError("q_binomial needs 0 <= i <= p, got (%d, %d)" % (p, i))
    # build as an explicit product of quotients so intermediate gcds stay small
    acc = Q_ONE
    for k in range(1, i + 1):
        acc = acc * q_number(p - i + k) / q_number(k)
    return acc


# ---------------------------------------------------------------------------
# formatting and parsing (the one textual grammar used everywhere)
# ---------------------------------------------------------------------------

def _format_rat(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_laurent(x):
    """Render a LaurentQ as a sum of terms, exponents descending."""
    if not x.coeffs:
        return "0"
    parts = []
    for e in sorted(x.coeffs, reverse=True):
        c = x.coeffs[e]
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = _format_rat(mag)
        else:
            qp = "q" if e == 1 else "q^%d" % e
            body = qp if mag == 1 else "%s*%s" % (_format_rat(mag), qp)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def format_scalar(x):
    """Canonical textual form; parse_scalar inverts this exactly."""
    if isinstance(x, Fraction):
        return _format_rat(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, ModInt):
        return str(x.value)
    if x.den == _L_ONE:
        return format_laurent(x.num)
    return "(%s)/(%s)" % (format_laurent(x.num), format_laurent(x.den))


_TOKEN_CHARS = set("0123456789q^*/+-() \t\n")


def _tokenize(text):
    toks = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch not in _TOKEN_CHARS:
            raise ScalarParseError("unexpected character %r" % ch, i)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
        else:
            toks.append((ch, ch, i))
            i += 1
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind):
        k, v, p = self.take()
        if k != kind:
            raise ScalarParseError("expected %r" % kind, p)
        return v

    def parse(self):
        result = self.parse_sum()
        k, _, p = self.peek()
        if k is not None:
            raise ScalarParseError("trailing input", p)
        return result

    def parse_sum(self):
        k, _, _ = self.peek()
        sign = 1
        if k in ("+", "-"):  # tolerated leading sign
            self.take()
            sign = -1 if k == "-" else 1
        acc = self.parse_product() * sign
        while True:
            k, _, _ = self.peek()
            if k == "+":
                self.take()
                acc = acc + self.parse_product()
            elif k == "-":
                self.take()
                acc = acc - self.parse_product()
            else:
                return acc

    def parse_product(self):
        """Factors joined by '*' and '/', left to right, binding tighter
        than '+' and '-'; a number written straight before q multiplies
        it, so ``2q^2`` is 2*q^2 and ``1/2q`` is 1/2*q."""
        start = self.i
        acc = self.parse_factor()
        while True:
            k, _, p = self.peek()
            if k in ("*", "/"):
                self.take()
            elif not (k == "q" and self.i == start + 1
                      and self.toks[start][0] == "int"):
                return acc
            start = self.i
            x = self.parse_factor()
            if k != "/":
                acc = acc * x
            elif not x:
                raise ScalarParseError("division by zero", p)
            else:
                acc = acc / x

    def parse_factor(self):
        k, v, p = self.peek()
        if k == "(":
            self.take()
            x = self.parse_sum()
            self.expect(")")
            return x
        if k == "q":
            return self.parse_qpow()
        if k != "int":
            raise ScalarParseError("expected a term", p)
        self.take()
        return QScalar.from_rat(v)

    def parse_qpow(self):
        self.expect("q")
        k, _, _ = self.peek()
        if k != "^":
            return Q_VAR
        self.take()
        k, v, p = self.take()
        sign = 1
        if k == "-":
            sign = -1
            k, v, p = self.take()
        elif k == "+":
            k, v, p = self.take()
        if k != "int":
            raise ScalarParseError("expected integer exponent", p)
        return QScalar.q_power(sign * v)


def parse_scalar(text):
    """Parse the textual scalar grammar into a canonical QScalar.

    Accepted forms: sums of products like ``3*q^2``, ``q^-1``, ``1/2*q``,
    ``7``, ``1/q^2`` and ``(sum)/(sum)``.  ``*`` and ``/`` bind tighter
    than ``+`` and ``-``, so ``q + 1/q`` is q + q^-1.  Whitespace is
    insignificant.
    """
    if not isinstance(text, str):
        raise ScalarParseError("expected a string", 0)
    p = _Parser(text)
    if not p.toks:
        raise ScalarParseError("empty input", 0)
    return p.parse()


# ---------------------------------------------------------------------------
# modular scalars
# ---------------------------------------------------------------------------

def _inverse(v, prime):
    """The inverse of the integer v modulo prime."""
    if v % prime == 0:
        raise ZeroDivisionError("division by zero mod %d" % prime)
    return pow(v, -1, prime)


class ModInt:
    """Residue in Z/prime with field arithmetic; mixes with int operands."""

    __slots__ = ("value", "prime")

    def __init__(self, value, prime):
        self.value = value % prime
        self.prime = prime

    def _coerce(self, other):
        if isinstance(other, ModInt):
            assert other.prime == self.prime, "mixed moduli"
            return other.value
        if isinstance(other, int):
            return other % self.prime
        if isinstance(other, Fraction):
            return (other.numerator * _inverse(other.denominator, self.prime)
                    % self.prime)
        return None

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash(self.value)

    def __neg__(self):
        return ModInt(-self.value, self.prime)

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value + v, self.prime)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value - v, self.prime)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(v - self.value, self.prime)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value * v, self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value * _inverse(v, self.prime), self.prime)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(v * _inverse(self.value, self.prime), self.prime)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return ModInt(_inverse(self.value, self.prime), self.prime) ** (-k)
        return ModInt(pow(self.value, k, self.prime), self.prime)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "ModInt(%d mod %d)" % (self.value, self.prime)


# ---------------------------------------------------------------------------
# field specifications and adapters
# ---------------------------------------------------------------------------

DEFAULT_PRIME = (1 << 61) - 1


def is_probable_prime(n):
    """Miller-Rabin; deterministic for n < 3.3e24 with this base set."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Names a scalar field: 'symbolic', 'evaluated' (q: Fraction) or
    'modular' (prime, q residue).

    q = 0 is always rejected.  q = 1 and q = -1 are allowed when given
    explicitly (the involutive, classical case); the sampling helpers never
    draw them.
    """

    mode: str
    q: object = None
    prime: int = None

    def __post_init__(self):
        if self.mode == "symbolic":
            assert self.q is None and self.prime is None
        elif self.mode == "evaluated":
            q = Fraction(self.q)
            object.__setattr__(self, "q", q)
            if q == 0:
                raise SpecializationError("q = 0 is not a valid evaluation")
        elif self.mode == "modular":
            p = int(self.prime)
            if p <= 2 or not is_probable_prime(p):
                raise SpecializationError("modulus must be an odd prime")
            q = int(self.q) % p
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "prime", p)
            if q == 0:
                raise SpecializationError("q = 0 is not a valid evaluation")
        else:
            raise ValueError("unknown field mode %r" % self.mode)

    @classmethod
    def symbolic(cls):
        return cls("symbolic")

    @classmethod
    def evaluated(cls, q):
        return cls("evaluated", q=Fraction(q))

    @classmethod
    def modular(cls, prime, q):
        return cls("modular", q=q, prime=prime)

    def describe(self):
        if self.mode == "symbolic":
            return "symbolic Q(q)"
        if self.mode == "evaluated":
            return "Q at q = %s" % self.q
        return "GF(%d) at q = %d" % (self.prime, self.q)


class _FieldBase:
    def of_int(self, n):
        return self.of_rat(Fraction(n))

    def q_number(self, k):
        return self.from_qscalar(q_number(k))


class SymbolicField(_FieldBase):
    """Q(q): scalars are QScalar values."""

    def __init__(self):
        self.spec = FieldSpec.symbolic()
        self.zero = Q_ZERO
        self.one = Q_ONE
        self.q = Q_VAR
        self.lam = Q_VAR - Q_VAR ** -1

    def of_rat(self, c):
        return QScalar.from_rat(c)

    def from_qscalar(self, x):
        return x


class RationalField(_FieldBase):
    """Q with q pinned to a nonzero rational: scalars are Fractions."""

    def __init__(self, q0):
        q0 = Fraction(q0)
        self.spec = FieldSpec.evaluated(q0)
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.q = q0
        self.lam = q0 - 1 / q0

    def of_rat(self, c):
        return Fraction(c)

    def from_qscalar(self, x):
        return x.evaluate(self.q)


class ModularField(_FieldBase):
    """Z/prime with q pinned to a residue: scalars are ModInt values."""

    def __init__(self, prime, q0):
        self.spec = FieldSpec.modular(prime, q0)
        p = self.spec.prime
        self.prime = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)
        self.q = ModInt(self.spec.q, p)
        self.lam = self.q - self.q ** -1

    def of_rat(self, c):
        c = Fraction(c)
        return ModInt(c.numerator * pow(c.denominator, -1, self.prime), self.prime)

    def from_qscalar(self, x):
        return ModInt(x.evaluate_mod(self.spec.q, self.prime), self.prime)


def make_field(spec):
    if spec.mode == "symbolic":
        return SymbolicField()
    if spec.mode == "evaluated":
        return RationalField(spec.q)
    return ModularField(spec.prime, spec.q)


# ---------------------------------------------------------------------------
# deterministic q sampling
# ---------------------------------------------------------------------------

def sample_rational_qs(count, seed):
    """Distinct rationals a/b with 2 <= a, b <= 7 and a != b, drawn
    deterministically from the seed.  Never 0 or +-1."""
    rng = Random(seed)
    pool = sorted({Fraction(a, b) for a in range(2, 8) for b in range(2, 8)
                   if a != b})
    if count > len(pool):
        raise ValueError("at most %d distinct sample points available" % len(pool))
    return rng.sample(pool, count)


# q^k != 1 for k <= 18 keeps every q-number i_q = (q^(2i) - 1) /
# (q^(i-1) (q^2 - 1)) with i <= 9 invertible, which covers the q-numbers
# up to the default rank bound of 8 that the antisymmetrizers divide by.
_MODULAR_ORDER_FLOOR = 18


def sample_modular_qs(count, prime, seed):
    """Distinct residues mod prime whose multiplicative order exceeds
    _MODULAR_ORDER_FLOOR."""
    if prime < 4:
        raise SpecializationError("no residue in 2..prime-2 to sample")
    rng = Random(seed)
    out = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise SpecializationError("could not sample suitable residues")
        v = rng.randrange(2, prime - 1)
        if v in seen:
            continue
        seen.add(v)
        t = v
        ok = True
        for _ in range(_MODULAR_ORDER_FLOOR):
            if t == 1:
                ok = False
                break
            t = t * v % prime
        if ok:
            out.append(v)
    return out
