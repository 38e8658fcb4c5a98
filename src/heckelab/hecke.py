"""Hecke-type R-matrices and the calculus built from them.

Conventions (fixed here once, used everywhere):

* R is an operator on V x V written in braid form: it satisfies
  R_1 R_2 R_1 = R_2 R_1 R_2 on V^3 (R_i acting on slots i, i+1) together
  with the quadratic relation R^2 = I + lam * R, lam = q - 1/q, so its
  eigenvalues are q and -1/q.

* The built-in standard symmetry acts by R(e_i o e_i) = q e_i o e_i,
  R(e_i o e_j) = e_j o e_i + lam e_i o e_j for i < j, and
  R(e_i o e_j) = e_j o e_i for i > j.  Entrywise, with lower = row and
  upper = column: R_(ii)^(ii) = q, R_(ij)^(ji) = 1 for i != j, and
  R_(ij)^(ij) = lam for i < j.

* The closedness test composes with the flip: script-R = P @ R.  When its
  slot-1 partial transpose is invertible the two trace-weight matrices are
      C_i^j = sum_k inv_(j i)^(k k),    B_i^j = sum_k inv_(k k)^(i j),
  where inv = ((P @ R)^t1)^(-1), and the quantum trace of a matrix M is
  Tr(C M).

Everything is exact; no check here ever tolerates a nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import (
    NotInvertibleError,
    NotRankOneError,
    TensorOperator,
    decode,
)

DEFAULT_RANK_BOUND = 8


class HeckeError(ValueError):
    pass


class YBEViolationError(HeckeError):
    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__("braid Yang-Baxter relation fails first at %s with residual %s"
                         % (index, residual))


class HeckeViolationError(HeckeError):
    def __init__(self, index, residual):
        self.index = index
        self.residual = residual
        super().__init__("Hecke condition fails first at %s with residual %s"
                         % (index, residual))


class NotClosedError(HeckeError):
    """(P @ R)^t1 is singular: no trace weights exist."""


class NotEvenError(HeckeError):
    """No vanishing antisymmetrizer within the configured bound."""


class RankImageError(HeckeError):
    """The top nonzero antisymmetrizer is not a rank-1 idempotent."""


class FieldError(ArithmeticError):
    """A required q-number vanishes in the chosen field."""


def flip_operator(dim, one):
    entries = {}
    for a in range(dim):
        for b in range(dim):
            entries[(a + dim * b, b + dim * a)] = one
    return TensorOperator(dim, 2, entries)


def _first_violation(defect, dim, arity):
    key = min(defect.entries)
    r, c = key
    return (decode(r, dim, arity), decode(c, dim, arity)), defect.entries[key]


class HeckeSymmetry:
    """A validated braid-form Hecke symmetry plus cached derived data.

    Construct through ``validate`` (or the builtins); the constructor does
    not re-check the axioms.  Cached fields are computed at most once.
    """

    def __init__(self, R, field):
        self.R = R
        self.field = field
        self.q = field.q
        self.lam = field.lam
        self.dim = R.dim
        self._embeds = {}
        self._rt1_inv = None
        self._antisym = None
        self._rank = None
        self._uv = None
        self._w_cols = None  # w(x) columns, kept by invariants
        self._c = None
        self._b = None

    # -- plumbing -----------------------------------------------------------

    def r_slot(self, i, total):
        """R acting on slots (i, i+1) of V^total."""
        key = (i, total)
        got = self._embeds.get(key)
        if got is None:
            got = self.R.embed(i, total)
            self._embeds[key] = got
        return got

    def r_inverse(self):
        """R^-1 = R - lam I, from the quadratic relation."""
        one = self.field.one
        return self.R - TensorOperator.identity(self.dim, 2, one).scaled(self.lam)

    # -- closedness and trace weights ----------------------------------------

    def check_closed(self):
        if self._rt1_inv is None:
            flip = flip_operator(self.dim, self.field.one)
            script_r = flip @ self.R
            try:
                self._rt1_inv = script_r.partial_transpose_slot1().invert()
            except NotInvertibleError:
                raise NotClosedError(
                    "slot-1 partial transpose of P @ R is singular") from None
        return self

    def rt1_inverse(self):
        self.check_closed()
        return self._rt1_inv

    def matrix_c(self):
        """Trace-weight matrix C with Tr_q M = Tr(C M)."""
        if self._c is None:
            self._c = self._trace_weights(True)
        return self._c

    def matrix_b(self):
        """Companion weight matrix B with Tr_(1)(B_1 R_12) = I."""
        if self._b is None:
            self._b = self._trace_weights(False)
        return self._b

    def _trace_weights(self, for_c):
        """Sum the entries of ((P @ R)^t1)^-1 whose column (for C) or row
        (for B) is a diagonal pair (k, k); the other index (j, i) gives the
        entry (i, j) of C, or the entry (j, i) of B."""
        d = self.dim
        acc = {}
        for (r, c), v in self.rt1_inverse().entries.items():
            diag, kept = (c, r) if for_c else (r, c)
            if diag % d != diag // d:
                continue
            key = (kept // d, kept % d) if for_c else (kept % d, kept // d)
            s = acc.get(key)
            s = v if s is None else s + v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return TensorOperator(d, 1, acc)

    def quantum_trace(self, m):
        """Tr_q M = Tr(C M); M may have noncommutative entries."""
        return (self.matrix_c() @ m).trace_full()

    def quantum_trace_slots(self, a, slots):
        """Insert C on each named slot, then take the ordinary partial
        trace over those slots."""
        c = self.matrix_c()
        m = a
        for s in slots:
            m = c.embed(s, a.arity) @ m
        return m.trace_slots(slots)

    # -- antisymmetrizers ------------------------------------------------------

    def antisymmetrizer(self, k):
        """The k-th q-antisymmetrizer on V^k (iterative staircase form)."""
        assert k >= 1
        if self._antisym is None:
            one = self.field.one
            self._antisym = [TensorOperator.identity(self.dim, 1, one)]
        while len(self._antisym) < k:
            self._antisym.append(self._antisym_next(len(self._antisym) + 1))
        return self._antisym[k - 1]

    def _staircase_sum(self, k, start_fn):
        """sum_j (-1)^j q^(k-1-j) * (product of j R factors), where the
        product is built by repeatedly applying start_fn."""
        one = self.field.one
        acc = TensorOperator.identity(self.dim, k, one).scaled(self.q ** (k - 1))
        term = None
        sign = one
        for j in range(1, k):
            sign = -sign
            term = start_fn(j, term)
            acc = acc + term.scaled(sign * self.q ** (k - 1 - j))
        return acc

    def _antisym_next(self, k):
        kq = self.field.q_number(k)
        if not kq:
            raise FieldError("q-number %d vanishes in %s"
                             % (k, self.field.spec.describe()))
        prev = self._antisym[k - 2].embed(1, k)

        def grow(j, term):
            # R_{k-j} R_{k-j+1} ... R_{k-1}
            r = self.r_slot(k - j, k)
            return r if term is None else r @ term

        bracket = self._staircase_sum(k, grow)
        return (bracket @ prev).scaled(self.field.one / kq)

    def antisymmetrizer_variant(self, k, variant):
        """The same projector via the alternative published forms; used to
        cross-check the main construction."""
        assert k >= 2
        kq = self.field.q_number(k)
        if variant == "right":
            prev = self.antisymmetrizer(k - 1).embed(1, k)

            def grow(j, term):
                # R_{k-1} R_{k-2} ... R_{k-j}
                r = self.r_slot(k - j, k)
                return r if term is None else term @ r

            return (prev @ self._staircase_sum(k, grow)).scaled(self.field.one / kq)
        if variant == "slot2":
            prev = self.antisymmetrizer(k - 1).embed(2, k)

            def grow(j, term):
                # R_j R_{j-1} ... R_1
                r = self.r_slot(j, k)
                return r if term is None else r @ term

            return (self._staircase_sum(k, grow) @ prev).scaled(self.field.one / kq)
        if variant in ("rec_top", "rec_bottom"):
            # from P^(k-1) R_(k-1) P^(k-1) with P^(k-1) at slot 1, or
            # P^(k-1) R_1 P^(k-1) with P^(k-1) at slot 2
            m = k - 1
            top = variant == "rec_top"
            pm = self.antisymmetrizer(m).embed(1 if top else 2, k)
            mid = pm @ self.r_slot(m if top else 1, k) @ pm
            return (pm.scaled(self.q ** m)
                    - mid.scaled(self.field.q_number(m))).scaled(self.field.one / kq)
        raise ValueError("unknown variant %r" % variant)

    # -- rank and the Levi-Civita pair ---------------------------------------

    def detect_rank(self, bound=DEFAULT_RANK_BOUND):
        """Smallest p with vanishing (p+1)-antisymmetrizer, checking that
        the p-antisymmetrizer is a rank-1 idempotent."""
        if self._rank is not None:
            return self._rank
        for k in range(2, bound + 1):
            pk = self.antisymmetrizer(k)
            if pk.is_zero():
                p = k - 1
                top = self.antisymmetrizer(p)
                r = top.idempotent_rank()
                if r != 1:
                    raise RankImageError(
                        "top antisymmetrizer has rank %d, expected 1" % r)
                self._rank = p
                return p
        raise NotEvenError(
            "no vanishing antisymmetrizer found for k <= %d" % bound)

    def levi_civita(self):
        """The column u and row v with P^p = u v, v u = 1, normalised
        deterministically; checks the eigenvalue relations on both sides."""
        if self._uv is None:
            p = self.detect_rank()
            top = self.antisymmetrizer(p)
            try:
                u, v = top.rank1_factor()
            except NotRankOneError as e:
                raise RankImageError(str(e)) from None
            scale = -(self.field.one / self.q)
            for i in range(1, p):
                ri = self.r_slot(i, p)
                if (ri @ u) != u.scaled(scale):
                    raise RankImageError("u is not a -1/q eigenvector of R_%d" % i)
                if (v @ ri) != v.scaled(scale):
                    raise RankImageError("v is not a -1/q eigenvector of R_%d" % i)
            self._uv = (u, v)
        return self._uv

    # -- symmetrized insertion -------------------------------------------------

    def insertion_terms(self, x, k):
        """[T_0, ..., T_(k-1)]: T_0 = X and T_j = R_j (T_(j-1) o 1) R_j, i.e.
        R_j...R_1 X_1 R_1...R_j on V^(j+1), each built from the one below."""
        terms = [x]
        for j in range(1, k):
            rj = self.r_slot(j, j + 1)
            terms.append(rj @ terms[-1].embed(1, j + 1) @ rj)
        return terms

    def symmetrize(self, x, k):
        """S_k(X) = X_1 + R_1 X_1 R_1 + ... + R_(k-1)...R_1 X_1 R_1...R_(k-1)
        on V^k, the sum of the embedded insertion terms."""
        terms = [t.embed(1, k) for t in self.insertion_terms(x, k)]
        return sum(terms[1:], terms[0])


def validate(R, field):
    """Check the braid Yang-Baxter relation and the quadratic Hecke
    condition exactly; returns the wrapped symmetry on success."""
    if R.arity != 2:
        raise HeckeError("an R-matrix acts on two slots, got arity %d" % R.arity)
    if R.dim < 2:
        raise HeckeError("dim must be at least 2")
    r1 = R.embed(1, 3)
    r2 = R.embed(2, 3)
    defect = r1 @ r2 @ r1 - r2 @ r1 @ r2
    if not defect.is_zero():
        index, residual = _first_violation(defect, R.dim, 3)
        raise YBEViolationError(index, residual)
    one = TensorOperator.identity(R.dim, 2, field.one)
    defect = R @ R - one - R.scaled(field.lam)
    if not defect.is_zero():
        index, residual = _first_violation(defect, R.dim, 2)
        raise HeckeViolationError(index, residual)
    return HeckeSymmetry(R, field)


def builtin_standard(n, field):
    """Standard deformation symmetry on an n-dimensional space (see module
    docstring for the exact entry convention).  Classical at q = 1."""
    assert n >= 2
    q, lam, one = field.q, field.lam, field.one
    items = {}
    for i in range(1, n + 1):
        items[((i, i), (i, i))] = q
        for j in range(1, n + 1):
            if i != j:
                items[((i, j), (j, i))] = one
            if i < j:
                items[((i, j), (i, j))] = lam
    return validate(TensorOperator.from_multi(n, 2, items), field)


def builtin_permutation(n, field):
    """The flip operator; a valid involutive symmetry when lam = 0."""
    assert n >= 2
    return validate(flip_operator(n, field.one), field)


# ---------------------------------------------------------------------------
# the identity suite for a closed even symmetry
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    ok: bool                     # True | False | None = not evaluated (skipped)
    witness: str = None


def _eq_check(name, lhs, rhs):
    if lhs == rhs:
        return Check(name, True)
    if isinstance(lhs, TensorOperator):
        wit = "first difference at %s: %s" % _first_violation(
            lhs - rhs, lhs.dim, lhs.arity)
    else:
        wit = "lhs %s != rhs %s" % (lhs, rhs)
    return Check(name, False, wit)


def _first_failing_unit(h, arity, fails):
    """Witness for an identity "for all X on V^arity" that is linear in X:
    the first matrix unit X where fails(X) is truthy (followed by the
    detail when that is a string), or None when the identity holds on
    every unit and so for every X."""
    size = h.dim ** arity
    for r in range(size):
        for c in range(size):
            bad = fails(TensorOperator(h.dim, arity, {(r, c): h.field.one}))
            if bad:
                unit = "E_(%s),(%s)" % (",".join(map(str, decode(r, h.dim, arity))),
                                        ",".join(map(str, decode(c, h.dim, arity))))
                return unit if bad is True else "%s %s" % (unit, bad)
    return None


def insertion_commutes_fails(h, x, p):
    """First "k=.. i=.." with [S_k(X), R_i] != 0, k = 2..p+1 and i < k in
    that order, or None.  As S_k = S_(k-1) o 1 + T_(k-1), once the lower
    levels pass only [T_(k-1), R_(k-2)] and [T_(k-2) o 1 + T_(k-1), R_(k-1)]
    can fail: R_(i<=k-3) acts on slots disjoint from R_(k-1), and
    S_(k-2) o 1 o 1 commutes with R_(k-1), with no use of YBE or Hecke."""
    t = h.insertion_terms(x, p + 1)
    for k in range(2, p + 2):
        for i in range(max(1, k - 2), k):
            s = t[k - 1] if i < k - 1 else t[k - 2].embed(1, k) + t[k - 1]
            ri = h.r_slot(i, k)
            if s @ ri != ri @ s:
                return "k=%d i=%d" % (k, i)
    return None


def _first_failure(name, failures):
    """Check that passes when the iterator of failure descriptions is
    empty; otherwise it stops at the first one and names it."""
    wit = next(failures, None)
    return Check(name, wit is None, wit)


def antisym_checks(h, p):
    """The three antisymmetrizer facts (eigenvalue, absorption, agreement
    of the alternative constructions), checked for every order up to
    p + 1 where the tower collapses."""
    minus_inv_q = -(h.field.one / h.q)

    def eigenvalue_failures():
        # eigenvalue property of the antisymmetrizers, both sides
        for k in range(2, p + 2):
            pk = h.antisymmetrizer(k)
            want = pk.scaled(minus_inv_q)
            for i in range(1, k):
                ri = h.r_slot(i, k)
                if pk @ ri != want or ri @ pk != want:
                    yield "k=%d i=%d" % (k, i)

    def absorption_failures():
        # absorption of lower antisymmetrizers in any compatible slot
        for k in range(2, p + 2):
            pk = h.antisymmetrizer(k)
            for i in range(2, k + 1):
                for j in range(1, k - i + 2):
                    pij = h.antisymmetrizer(i).embed(j, k)
                    if pk @ pij != pk or pij @ pk != pk:
                        yield "k=%d i=%d j=%d" % (k, i, j)

    def variant_failures():
        # all alternative constructions agree
        for k in range(2, p + 2):
            pk = h.antisymmetrizer(k)
            for variant in ("right", "slot2", "rec_top", "rec_bottom"):
                if h.antisymmetrizer_variant(k, variant) != pk:
                    yield "k=%d variant=%s" % (k, variant)

    return [_first_failure("antisym_eigenvalue", eigenvalue_failures()),
            _first_failure("antisym_absorption", absorption_failures()),
            _first_failure("antisym_variants_agree", variant_failures())]


def identity_suite(h):
    """Every displayed identity of the trace calculus, checked exactly.

    Returns a list of Check records (sorted by name) covering: the
    antisymmetrizer eigenvalue/absorption properties and alternative
    constructions, the Levi-Civita eigenvalue relations, the rank-1
    factorisation of the trace weights, the trace normalisations, the
    R-C-C commutation, conjugation-invariance of the quantum trace, and
    the symmetrized-insertion projection identities.

    The identities "for all X" are linear in X, so checking them on every
    matrix unit proves them; a failure names the first failing unit.
    """
    f = h.field
    checks = []
    p = h.detect_rank()
    u, v = h.levi_civita()
    c = h.matrix_c()
    b = h.matrix_b()
    one1 = TensorOperator.identity(h.dim, 1, f.one)
    minus_inv_q = -(f.one / h.q)

    checks.extend(antisym_checks(h, p))

    # Levi-Civita eigenvalue relations
    def levi_civita_failures():
        for i in range(1, p):
            ri = h.r_slot(i, p)
            if ri @ u != u.scaled(minus_inv_q) or v @ ri != v.scaled(minus_inv_q):
                yield "i=%d" % i

    checks.append(_first_failure("levi_civita_eigenvalue", levi_civita_failures()))
    checks.append(_eq_check("levi_civita_pairing", (v @ u).as_scalar(), f.one))

    # trace weights from the Levi-Civita pair
    w = f.q_number(p) / h.q ** p
    uv = u @ v
    checks.append(_eq_check("weights_from_levi_civita_c",
                            c, uv.trace_slots(range(2, p + 1)).scaled(w)))
    checks.append(_eq_check("weights_from_levi_civita_b",
                            b, uv.trace_slots(range(1, p)).scaled(w)))

    # trace normalisations
    checks.append(_eq_check("trace_weight_total_c", c.trace_full(), w))
    checks.append(_eq_check("trace_weight_total_b", b.trace_full(), w))
    checks.append(_eq_check("partial_trace_r_slot2",
                            h.quantum_trace_slots(h.R, [2]), one1))
    checks.append(_eq_check("partial_trace_r_slot1_b",
                            (b.embed(1, 2) @ h.R).trace_slots([1]), one1))

    # R commutes with C o C
    cc = c.embed(1, 2) @ c.embed(2, 2)
    checks.append(_eq_check("weights_commute_with_r", h.R @ cc, cc @ h.R))

    # conjugation invariance, single slot
    rinv = h.r_inverse()

    def conj_one_slot_fails(x):
        want = one1.scaled(h.quantum_trace(x))
        x1 = x.embed(1, 2)
        return (h.quantum_trace_slots(h.R @ x1 @ rinv, [2]) != want
                or h.quantum_trace_slots(rinv @ x1 @ h.R, [2]) != want)

    # conjugation invariance, both slots
    def conj_two_slot_fails(x):
        lhs = h.quantum_trace_slots(h.R @ x @ rinv, [1, 2]).as_scalar()
        return lhs != h.quantum_trace_slots(x, [1, 2]).as_scalar()

    # symmetrized insertion against the Levi-Civita pair
    def projects_fails(x):
        s = h.symmetrize(x, p)
        lam_tr = h.q * h.quantum_trace(x)
        return (v @ s) != v.scaled(lam_tr) or (s @ u) != u.scaled(lam_tr)

    for name, arity, fails in (
            ("conjugation_scalar_one_slot", 1, conj_one_slot_fails),
            ("conjugation_scalar_two_slot", 2, conj_two_slot_fails),
            ("symmetrized_insertion_projects", 1, projects_fails),
            ("symmetrized_insertion_commutes", 1,
             lambda x: insertion_commutes_fails(h, x, p))):
        wit = _first_failing_unit(h, arity, fails)
        checks.append(Check(name, wit is None, wit))

    checks.sort(key=lambda ch: ch.name)
    return checks
