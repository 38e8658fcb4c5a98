"""Free noncommutative polynomials in matrix generators and the graded
ideal cut out by the reflection-equation relations.

Monomials are words in the N^2 generators L[i,j], stored as flat tuples
(i1, j1, i2, j2, ...) with 1-based indices, and ordered
degree-lexicographically on those tuples (row-major on generator
indices).

The relations R L1 R L1 - L1 R L1 R are homogeneous quadratic, so the
two-sided ideal they generate is graded.  Identities "in the quotient
algebra" are decided by a rewriting system (Bergman's diamond lemma):
monic rules, each led by its deglex-largest word, completed by
S-polynomials of overlapping leads up to the degree a check needs.
Through that degree the leads are a Groebner basis, so a polynomial is
in the ideal exactly when its normal form is zero, and the normal form
does not depend on which rule is applied first.

ideal_component(relations, d) keeps the direct construction: an
EchelonBasis of one degree-d slice, each row led by its smallest
monomial, whose pivot-free remainder depends only on the slice.  It is
the oracle the rewriting system is tested against.  Given a
RewritingSystem as well, ideal_component completes that system through
d and returns its DegreeView instead; the commands take that path, so
the column cap refuses both engines alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .qscalar import format_scalar
from .tensor import TensorOperator

DEFAULT_COLUMN_CAP = 20000


class DegreeError(ValueError):
    pass


class ResourceError(RuntimeError):
    """Monomial space larger than DEFAULT_COLUMN_CAP."""


def _scalar(x):
    return not isinstance(x, NCPoly)


class NCPoly:
    """Polynomial in noncommuting generators; terms maps word -> coeff.

    Coefficients are whatever scalar type the ambient field uses (exact
    rationals, rational functions of q, or residues); int constants mix in
    freely.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(): c} if c else None)

    @classmethod
    def generator(cls, i, j):
        assert i >= 1 and j >= 1
        return cls({(i, j): 1})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Word length of the longest monomial; zero polynomial has -1."""
        if not self.terms:
            return -1
        return max(len(m) for m in self.terms) // 2

    def is_homogeneous(self):
        lens = {len(m) for m in self.terms}
        return len(lens) <= 1

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        # scalars compare against the constant term
        if not self.terms:
            return other == 0
        if set(self.terms) != {()}:
            return False
        return self.terms[()] == other

    __hash__ = None

    def __add__(self, other):
        if _scalar(other):
            other = NCPoly.const(other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m)
            s = c if s is None else s + c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return NCPoly(d)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, NCPoly) else -NCPoly.const(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _scalar(other):
            if not other:
                return NCPoly()
            return NCPoly({m: c * other for m, c in self.terms.items()})
        acc = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma + mb
                c = ca * cb
                s = acc.get(m)
                s = c if s is None else s + c
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return NCPoly(acc)

    def __rmul__(self, other):
        # only scalars land here, and scalars are central
        if not other:
            return NCPoly()
        return NCPoly({m: other * c for m, c in self.terms.items()})

    def map_coefficients(self, fn):
        d = {}
        for m, c in self.terms.items():
            w = fn(c)
            if w:
                d[m] = w
        return NCPoly(d)

    def lead(self):
        """(monomial, coeff) at the deglex-smallest monomial."""
        m = min(self.terms, key=_mono_key)
        return m, self.terms[m]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _mono_key(t[0]))

    def evaluate(self, assign):
        """Substitute commuting values for the generators; assign maps
        (i, j) pairs to scalars.  Words multiply out left to right."""
        acc = 0
        for m, c in self.terms.items():
            v = c
            for t in range(0, len(m), 2):
                v = v * assign[(m[t], m[t + 1])]
            acc = acc + v
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            word = "*".join("L[%d,%d]" % (m[t], m[t + 1])
                            for t in range(0, len(m), 2))
            cs = format_scalar(c)
            if not word:
                parts.append(cs)
            elif cs == "1":
                parts.append(word)
            elif cs == "-1":
                parts.append("-" + word)
            else:
                if ("+" in cs or "-" in cs[1:] or "/" in cs) and not (
                        cs.startswith("(") and cs.endswith(")")):
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, word))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "NCPoly(%s)" % self


def _mono_key(m):
    return (len(m), m)


def generator_matrix(n):
    """The N x N matrix L with entry (i, j) the generator L[i,j]."""
    return TensorOperator.from_multi(
        n, 1, {((i,), (j,)): NCPoly.generator(i, j)
               for i in range(1, n + 1) for j in range(1, n + 1)})


def re_relations(h):
    """Entries of R L1 R L1 - L1 R L1 R, one homogeneous quadratic
    polynomial per nonzero entry, in row-major entry order."""
    n = h.dim
    l1 = generator_matrix(n).embed(1, 2)
    defect = h.R @ l1 @ h.R @ l1 - l1 @ h.R @ l1 @ h.R
    return [defect.entries[k] for k in sorted(defect.entries)]


class EchelonBasis:
    """Row-echelon span of polynomials of one fixed degree.

    Each row is keyed by its lead, its deglex-smallest monomial, and
    scaled to lead coefficient one; leads are distinct.  Rows are not
    back-reduced.  ``degree`` is the slice degree that ``is_member``
    checks against.
    """

    def __init__(self, degree=None):
        self.degree = degree
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, f):
        """Fully reduce f; the result has no pivot monomials left.

        Eliminates the smallest pivot monomial present at each step.  A
        row's other monomials all exceed its lead, so each pivot is met
        at most once."""
        rows = self.rows
        while True:
            hits = [m for m in f.terms if m in rows]
            if not hits:
                return f
            m = min(hits, key=_mono_key)
            f = f - rows[m] * f.terms[m]

    def insert(self, f):
        """Add f to the span; returns True if the rank grew."""
        r = self.reduce(f)
        if not r:
            return False
        m, c = r.lead()
        # Fraction(1) / c keeps an int lead exact, where c ** -1 is a float
        self.rows[m] = r * (Fraction(1) / c)
        return True

    def pivots(self):
        return sorted(self.rows, key=_mono_key)


def _max_generator_index(relations):
    n = 0
    for r in relations:
        for m in r.terms:
            if m:
                n = max(n, max(m))
    return n


def ideal_component(relations, d, system=None):
    """Echelon basis of the degree-d slice of the two-sided ideal
    generated by the (homogeneous quadratic) relations.

    Built iteratively: the degree-(k+1) slice is spanned by g * w and
    w * g over all generators g and all rows w of the degree-k slice,
    which equals the span of all m_L * r * m_R with matching degrees.

    Given ``system``, a RewritingSystem of the same relations, no slice
    is built: the system is completed through d and its DegreeView at d
    is returned, which decides the same memberships.

    A slice spanning more than DEFAULT_COLUMN_CAP monomials is refused
    before any row or rule is built.
    """
    if d < 2:
        raise DegreeError("ideal components start at degree 2")
    n = _max_generator_index(relations)
    columns = (n * n) ** d
    if columns > DEFAULT_COLUMN_CAP:
        raise ResourceError(
            "degree-%d slice spans %d monomials, over the cap of %d"
            % (d, columns, DEFAULT_COLUMN_CAP))
    if system is not None:
        system.complete(d)
        return DegreeView(system, d)
    gens = [NCPoly.generator(i, j)
            for i in range(1, n + 1) for j in range(1, n + 1)]
    basis = EchelonBasis(2)
    for r in relations:
        if r:
            basis.insert(r)
    for k in range(3, d + 1):
        grown = EchelonBasis(k)
        for w in [basis.rows[m] for m in basis.pivots()]:
            for g in gens:
                grown.insert(g * w)
                grown.insert(w * g)
        basis = grown
    return basis


class RewritingSystem:
    """Rules for the ideal generated by homogeneous quadratic relations,
    complete through degree ``top``.

    ``rules`` maps each lead, the deglex-largest word of a monic rule, to
    its replacement: the lead minus the rule.  Every rule comes from
    ``insert``.  ``complete`` inserts the relations for degree 2, then,
    for each further degree d, the S-polynomial of every overlap of two
    leads (a proper suffix of one equal to a proper prefix of the other)
    spanning d letters.  A new system has no rules (``top`` is 1).
    Normal forms of words are memoised; a new rule of degree k drops
    those of degree k and up.
    """

    def __init__(self, relations, top=1):
        self.relations = list(relations)
        self.n = _max_generator_index(self.relations)
        self.top = 1
        self.rules = {}
        self._nf = {}
        self.complete(top)

    def complete(self, top):
        """Add the rules that make the system complete through degree
        top."""
        while self.top < top:
            self.top += 1
            if self.top == 2:
                new = self.relations
            else:
                new = self._s_polynomials(self.top)
            for f in new:
                self.insert(f)

    def insert(self, f):
        """Add f's normal form as a rule, if it is nonzero; returns True
        if a rule was added."""
        r = self.reduce(f)
        if not r:
            return False
        lead = max(r.terms, key=_mono_key)
        # Fraction(1) / c keeps an int lead exact, where c ** -1 is a float
        scale = -(Fraction(1) / r.terms[lead])
        self.rules[lead] = NCPoly({m: c * scale for m, c in r.terms.items()
                                   if m != lead})
        k = len(lead)
        self._nf = {w: nf for w, nf in self._nf.items() if len(w) < k}
        return True

    def _s_polynomials(self, d):
        """p * rep(b) - rep(a) * s for every pair of leads a = p o and
        b = o s with a nonempty overlap o and |p o s| = d."""
        out = []
        for a in self.rules:
            for b in self.rules:
                o = len(a) + len(b) - 2 * d
                if 0 < o < min(len(a), len(b)) and a[-o:] == b[:o]:
                    out.append(NCPoly({a[:-o]: 1}) * self.rules[b]
                               - self.rules[a] * NCPoly({b[o:]: 1}))
        return out

    def _split(self, w):
        """(prefix, replacement, suffix) at the leftmost lead in w, or
        None when w is a normal word."""
        for t in range(0, len(w), 2):
            for k in range(4, len(w) - t + 1, 2):
                rep = self.rules.get(w[t:t + k])
                if rep is not None:
                    return w[:t], rep, w[t + k:]
        return None

    def _word_nf(self, w):
        """Normal form of one word.  Words still to be done wait on an
        explicit stack, since a rewriting chain can be longer than the
        interpreter's recursion limit."""
        memo = self._nf
        stack = [w]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            hit = self._split(x)
            if hit is None:
                memo[x] = NCPoly({x: 1})
                stack.pop()
                continue
            a, rep, b = hit
            parts = [(a + m + b, c) for m, c in rep.terms.items()]
            todo = [y for y, _ in parts if y not in memo]
            if todo:
                stack.extend(todo)
                continue
            memo[x] = _combine(parts, memo.__getitem__)
            stack.pop()
        return memo[w]

    def reduce(self, f):
        """Normal form of f: linear in its words."""
        return _combine(f.terms.items(), self._word_nf)


def _combine(parts, nf):
    """The sum of c * nf(w) over (w, c) in parts."""
    acc = {}
    for w, c in parts:
        for m, e in nf(w).terms.items():
            v = c * e
            s = acc.get(m)
            s = v if s is None else s + v
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return NCPoly(acc)


class DegreeView:
    """One degree of a RewritingSystem, with the ``degree`` and ``reduce``
    that is_member reads; the system must be complete through it."""

    __slots__ = ("system", "degree")

    def __init__(self, system, degree):
        assert 2 <= degree <= system.top
        self.system = system
        self.degree = degree

    @property
    def rank(self):
        """Dimension of the degree-d ideal slice: the number of degree-d
        words with a lead as a factor, counted over every word."""
        n = self.system.n
        letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        split = self.system._split
        return sum(split(sum(word, ())) is not None
                   for word in itertools.product(letters, repeat=self.degree))

    def reduce(self, f):
        return self.system.reduce(f)


def is_member(f, basis):
    """Membership of a homogeneous polynomial in the ideal slice of its
    degree, read from anything with ``degree`` and ``reduce`` (an
    EchelonBasis or a DegreeView); returns (flag, residual) where the
    residual is the fully reduced remainder, a certificate of
    non-membership when nonzero."""
    if f.is_zero():
        return True, f
    if not f.is_homogeneous() or f.degree() != basis.degree:
        raise DegreeError("degree %s polynomial against a degree-%d basis"
                          % (f.degree(), basis.degree))
    r = basis.reduce(f)
    return r.is_zero(), r
