"""Exact checks for the Hecke symmetry layer.

The dim-2 standard symmetry is small enough to work out on paper; those
closed forms are pinned here so every convention (entry layout, flip
composition, partial transpose, weight matrices, Levi-Civita pair) is
locked against drift.
"""

from fractions import Fraction
from itertools import product

import pytest

from heckelab.hecke import (
    FieldError,
    HeckeSymmetry,
    HeckeViolationError,
    NotClosedError,
    NotEvenError,
    YBEViolationError,
    _first_failing_unit,
    antisym_checks,
    builtin_permutation,
    builtin_standard,
    flip_operator,
    identity_suite,
    insertion_commutes_fails,
    validate,
)
from heckelab.qscalar import (
    FieldSpec,
    QScalar,
    make_field,
    parse_scalar,
    q_number,
)
from heckelab.tensor import TensorOperator

SYM = make_field(FieldSpec.symbolic())
Q = SYM.q


@pytest.fixture(scope="module")
def std2():
    return builtin_standard(2, SYM)


@pytest.fixture(scope="module")
def std3():
    return builtin_standard(3, SYM)


@pytest.fixture(scope="module")
def std3_eval():
    return builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(3, 2))))


# -- validation ----------------------------------------------------------


def test_standard_entries_match_convention(std2):
    r = std2.R
    lam = SYM.lam
    assert r.entry((1, 1), (1, 1)) == Q
    assert r.entry((2, 2), (2, 2)) == Q
    assert r.entry((1, 2), (2, 1)) == 1
    assert r.entry((2, 1), (1, 2)) == 1
    assert r.entry((1, 2), (1, 2)) == lam
    assert r.entry((2, 1), (2, 1)) == 0
    assert len(r.entries) == 5


def test_validate_accepts_standard_and_permutation():
    for n in (2, 3):
        builtin_standard(n, SYM)
        builtin_permutation(n, make_field(FieldSpec.evaluated(1)))


def test_permutation_needs_classical_q():
    # flip squares to the identity, so lam must vanish
    with pytest.raises(HeckeViolationError):
        builtin_permutation(2, SYM)


def test_ybe_violation_reports_first_index(std2):
    bad = std2.R + TensorOperator.from_multi(2, 2, {((1, 2), (2, 2)): SYM.one})
    with pytest.raises(YBEViolationError) as exc:
        validate(bad, SYM)
    idx, residual = exc.value.index, exc.value.residual
    assert isinstance(idx, tuple) and len(idx) == 2
    assert all(len(part) == 3 for part in idx)
    assert residual


def test_hecke_violation_reported():
    two_i = TensorOperator.identity(2, 2, SYM.one).scaled(SYM.of_int(2))
    with pytest.raises(HeckeViolationError):
        validate(two_i, SYM)


def test_quadratic_relation_as_eigenvalues(std2):
    # (R - q)(R + 1/q) = 0
    one = TensorOperator.identity(2, 2, SYM.one)
    prod = (std2.R - one.scaled(Q)) @ (std2.R + one.scaled(SYM.one / Q))
    assert prod.is_zero()


def test_r_inverse(std2):
    one = TensorOperator.identity(2, 2, SYM.one)
    assert std2.R @ std2.r_inverse() == one
    assert std2.r_inverse() @ std2.R == one


def test_r_slot_cache(std3):
    assert std3.r_slot(2, 4) is std3.r_slot(2, 4)


# -- closedness and weights ------------------------------------------------


def test_weight_matrix_values_dim2(std2):
    c = std2.matrix_c()
    b = std2.matrix_b()
    assert c.entry((1,), (1,)) == QScalar.q_power(-3)
    assert c.entry((2,), (2,)) == QScalar.q_power(-1)
    assert len(c.entries) == 2
    assert b.entry((1,), (1,)) == QScalar.q_power(-1)
    assert b.entry((2,), (2,)) == QScalar.q_power(-3)
    assert len(b.entries) == 2


def test_weight_trace_value_dim2(std2):
    want = parse_scalar("q^-1 + q^-3")
    assert std2.matrix_c().trace_full() == want
    assert want == q_number(2) / QScalar.q_power(2)


def test_b_c_product_is_scalar_dim2(std2):
    bc = std2.matrix_b() @ std2.matrix_c()
    assert bc == TensorOperator.identity(2, 1, SYM.one).scaled(QScalar.q_power(-4))
    assert bc == std2.matrix_c() @ std2.matrix_b()


def test_partial_trace_of_r_is_identity(std2, std3):
    for h in (std2, std3):
        one = TensorOperator.identity(h.dim, 1, SYM.one)
        assert h.quantum_trace_slots(h.R, [2]) == one


def test_not_closed_raises():
    # a degenerate operator is not a symmetry at all, but check_closed only
    # needs the partial transpose, so it exercises the singular branch
    r = TensorOperator.from_multi(2, 2, {((1, 1), (1, 1)): SYM.one})
    with pytest.raises(NotClosedError):
        HeckeSymmetry(r, SYM).check_closed()


def test_classical_weights_are_identity():
    f = make_field(FieldSpec.evaluated(1))
    h = builtin_permutation(3, f)
    assert h.matrix_c() == TensorOperator.identity(3, 1, f.one)
    x = TensorOperator.from_multi(3, 1, {((1,), (1,)): Fraction(4),
                                         ((2,), (3,)): Fraction(7),
                                         ((3,), (3,)): Fraction(-2)})
    assert h.quantum_trace(x) == Fraction(2)


# -- antisymmetrizers -------------------------------------------------------


def test_antisymmetrizer_dim2_closed_form(std2):
    two = q_number(2)
    p2 = std2.antisymmetrizer(2)
    assert p2.entry((2, 1), (2, 1)) == Q / two
    assert p2.entry((1, 2), (1, 2)) == QScalar.q_power(-1) / two
    assert p2.entry((2, 1), (1, 2)) == -(SYM.one / two)
    assert p2.entry((1, 2), (2, 1)) == -(SYM.one / two)
    assert len(p2.entries) == 4
    assert p2 @ p2 == p2


def test_antisymmetrizer_vanishes_above_rank(std2):
    assert std2.antisymmetrizer(3).is_zero()
    assert std2.detect_rank() == 2


def test_detect_rank_dim3(std3):
    assert std3.detect_rank() == 3
    assert std3.antisymmetrizer(3).idempotent_rank() == 1


def test_detect_rank_bound_semantics(std3_eval):
    with pytest.raises(NotEvenError) as exc:
        std3_eval.detect_rank(bound=3)
    assert "3" in str(exc.value)
    assert std3_eval.detect_rank(bound=4) == 3


def test_rank_classical_permutation():
    f = make_field(FieldSpec.evaluated(1))
    assert builtin_permutation(2, f).detect_rank() == 2
    assert builtin_permutation(3, f).detect_rank() == 3


def test_antisymmetrizer_variants_agree(std3):
    for k in (2, 3, 4):
        main = std3.antisymmetrizer(k)
        for variant in ("right", "slot2", "rec_top", "rec_bottom"):
            assert std3.antisymmetrizer_variant(k, variant) == main


def test_antisymmetrizer_eigen_property(std3):
    minus_inv_q = -(SYM.one / Q)
    for k in (2, 3):
        pk = std3.antisymmetrizer(k)
        for i in range(1, k):
            ri = std3.r_slot(i, k)
            assert ri @ pk == pk.scaled(minus_inv_q)
            assert pk @ ri == pk.scaled(minus_inv_q)


def test_antisym_checks_name_the_first_failure(std3_eval, monkeypatch):
    # slot2 doubled at k = 2 and at k = 3: the witness is the first case
    real = HeckeSymmetry.antisymmetrizer_variant

    def doubled_slot2(self, k, variant):
        got = real(self, k, variant)
        if variant == "slot2" and k in (2, 3):
            return got.scaled(self.field.of_int(2))
        return got

    monkeypatch.setattr(HeckeSymmetry, "antisymmetrizer_variant", doubled_slot2)
    checks = {c.name: c for c in antisym_checks(std3_eval, std3_eval.detect_rank())}
    assert not checks["antisym_variants_agree"].ok
    assert checks["antisym_variants_agree"].witness == "k=2 variant=slot2"
    assert checks["antisym_eigenvalue"].ok and checks["antisym_absorption"].ok


def test_unknown_variant_rejected(std2):
    with pytest.raises(ValueError):
        std2.antisymmetrizer_variant(2, "sideways")


def test_field_error_when_q_number_vanishes():
    # 5^2 = -1 mod 13, so the symmetric q-integer 2 = q + 1/q vanishes and
    # the projector that divides by it cannot be built
    f = make_field(FieldSpec.modular(13, 5))
    assert not f.q + f.q ** -1
    h = builtin_standard(2, f)
    with pytest.raises(FieldError):
        h.antisymmetrizer(2)


# -- Levi-Civita pair -------------------------------------------------------


def test_levi_civita_dim2_values(std2):
    u, v = std2.levi_civita()
    two = q_number(2)
    # u is a column (entries in column (1, 1)), v a row (in row (1, 1))
    assert u.entry((2, 1), (1, 1)) == 1
    assert u.entry((1, 2), (1, 1)) == -(SYM.one / Q)
    assert len(u.entries) == 2
    assert v.entry((1, 1), (2, 1)) == Q / two
    assert v.entry((1, 1), (1, 2)) == -(SYM.one / two)
    assert len(v.entries) == 2
    assert (v @ u).as_scalar() == SYM.one


def test_levi_civita_eigen_dim3(std3):
    u, v = std3.levi_civita()
    minus_inv_q = -(SYM.one / Q)
    for i in (1, 2):
        ri = std3.r_slot(i, 3)
        assert ri @ u == u.scaled(minus_inv_q)
        assert v @ ri == v.scaled(minus_inv_q)
    assert (v @ u).as_scalar() == SYM.one


def test_levi_civita_eigenvalue_names_the_first_failure(monkeypatch):
    # u + e_(1,1,1) breaks the eigenvalue relation at i = 1 and at i = 2
    h = builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(3, 2))))
    real = HeckeSymmetry.levi_civita

    def shifted(self):
        u, v = real(self)
        e111 = TensorOperator.from_multi(
            3, 3, {((1, 1, 1), (1, 1, 1)): self.field.one})
        return u + e111, v

    monkeypatch.setattr(HeckeSymmetry, "levi_civita", shifted)
    checks = {c.name: c for c in identity_suite(h)}
    assert not checks["levi_civita_eigenvalue"].ok
    assert checks["levi_civita_eigenvalue"].witness == "i=1"


def test_top_antisymmetrizer_factors(std3):
    u, v = std3.levi_civita()
    assert u @ v == std3.antisymmetrizer(3)


# -- symmetrized insertion ---------------------------------------------------


def test_symmetrize_small_cases(std2):
    x = TensorOperator.from_multi(2, 1, {((1,), (2,)): SYM.one,
                                         ((2,), (2,)): Q})
    assert std2.symmetrize(x, 1) == x
    x1 = x.embed(1, 2)
    assert std2.symmetrize(x, 2) == x1 + std2.R @ x1 @ std2.R


# -- the full identity suite --------------------------------------------------


def _assert_all_ok(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, "failed: %s" % ", ".join(
        "%s (%s)" % (c.name, c.witness) for c in bad)


def test_identity_suite_dim2_symbolic(std2):
    checks = identity_suite(std2)
    assert [c.name for c in checks] == sorted(c.name for c in checks)
    _assert_all_ok(checks)


def test_identity_suite_dim3_evaluated(std3_eval):
    _assert_all_ok(identity_suite(std3_eval))


def test_identity_suite_dim3_symbolic(std3):
    _assert_all_ok(identity_suite(std3))


def test_identity_suite_modular():
    f = make_field(FieldSpec.modular((1 << 61) - 1, 9001))
    _assert_all_ok(identity_suite(builtin_standard(3, f)))


def test_identity_suite_classical():
    f = make_field(FieldSpec.evaluated(1))
    _assert_all_ok(identity_suite(builtin_permutation(3, f)))


def test_identity_suite_catches_dropped_symmetrize_term(std2, monkeypatch):
    # every insertion without its last term R_(k-1)...R_1 X_1 R_1...R_(k-1):
    # both insertion identities must fail on a named matrix unit
    real = HeckeSymmetry.insertion_terms

    def short(self, x, k):
        terms = real(self, x, k)
        return terms[:-1] + [TensorOperator.zero(self.dim, k)]

    monkeypatch.setattr(HeckeSymmetry, "insertion_terms", short)
    checks = {c.name: c for c in identity_suite(std2)}
    for name in ("symmetrized_insertion_projects",
                 "symmetrized_insertion_commutes"):
        assert not checks[name].ok
        assert checks[name].witness.startswith("E_(")
    assert checks["conjugation_scalar_one_slot"].ok


def test_identity_suite_catches_wrong_top_insertion_term(std3_eval, monkeypatch):
    # only T_p, the term S_(p+1) adds to S_p o 1, is doubled: the commutes
    # check must fail at k = p+1, and the projection (which reads S_p) holds
    p = std3_eval.detect_rank()
    real = HeckeSymmetry.insertion_terms

    def doubled_top(self, x, k):
        terms = real(self, x, k)
        if k == p + 1:
            terms[p] = terms[p].scaled(self.field.of_int(2))
        return terms

    monkeypatch.setattr(HeckeSymmetry, "insertion_terms", doubled_top)
    checks = {c.name: c for c in identity_suite(std3_eval)}
    wit = checks["symmetrized_insertion_commutes"].witness
    assert not checks["symmetrized_insertion_commutes"].ok
    assert wit.startswith("E_(") and " k=%d i=" % (p + 1) in wit
    assert checks["symmetrized_insertion_projects"].ok


# -- the commutation check against the all-(k, i) loop -----------------------


def _all_pairs_commutes_fails(h, x, p):
    # reference: S_k built from scratch at each level, every [S_k, R_i] tested
    for k in range(2, p + 2):
        s = x.embed(1, k)
        term = s
        for i in range(1, k):
            ri = h.r_slot(i, k)
            term = ri @ term @ ri
            s = s + term
        for i in range(1, k):
            ri = h.r_slot(i, k)
            if s @ ri != ri @ s:
                return "k=%d i=%d" % (k, i)
    return None


def _unit(h, r, c):
    return TensorOperator(h.dim, 1, {(r, c): h.field.one})


@pytest.mark.parametrize("make, units", [
    (lambda: builtin_standard(2, SYM), None),
    (lambda: builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(3, 2)))), None),
    (lambda: builtin_permutation(3, make_field(FieldSpec.evaluated(1))), None),
    (lambda: builtin_standard(4, make_field(FieldSpec.modular((1 << 61) - 1, 9001))),
     ((0, 0), (0, 3), (2, 1), (3, 3))),
], ids=["std2-symbolic", "std3-3/2", "perm3", "std4-modular"])
def test_insertion_commutes_matches_all_pairs_loop(make, units):
    h = make()
    p = h.detect_rank()
    for r, c in units or product(range(h.dim), repeat=2):
        x = _unit(h, r, c)
        assert insertion_commutes_fails(h, x, p) is None
        assert _all_pairs_commutes_fails(h, x, p) is None


def _one_entry_changed(h, key):
    # a symmetry whose R differs from a validated one in a single entry;
    # the constructor does not re-check the axioms
    entries = dict(h.R.entries)
    entries[key] = entries.get(key, 0 * h.field.one) + h.field.one
    return HeckeSymmetry(TensorOperator(h.dim, 2, entries), h.field)


def _conjugated(h, key):
    # g R g^-1 with g = I + E_key: still Hecke, no longer braided
    one = h.field.one
    e = TensorOperator(h.dim, 2, {key: one})
    eye = TensorOperator.identity(h.dim, 2, one)
    return HeckeSymmetry((eye + e) @ h.R @ (eye - e), h.field)


@pytest.mark.parametrize("corrupt, key, level", [
    (_one_entry_changed, (0, 0), "k=3 i=1"),
    (_one_entry_changed, (3, 3), "k=3 i=1"),
    (_one_entry_changed, (8, 8), "k=3 i=1"),
    (_one_entry_changed, (0, 1), "k=2 i=1"),
    (_one_entry_changed, (1, 3), "k=2 i=1"),
    (_one_entry_changed, (2, 6), "k=2 i=1"),
    (_one_entry_changed, (8, 0), "k=2 i=1"),
    (_conjugated, (1, 3), "k=3 i=1"),
    (_conjugated, (5, 7), "k=4 i=2"),
])
def test_corrupted_r_fails_with_the_all_pairs_witness(std3_eval, corrupt, key, level):
    bad = corrupt(std3_eval, key)
    p = std3_eval.detect_rank()
    new = _first_failing_unit(bad, 1, lambda x: insertion_commutes_fails(bad, x, p))
    old = _first_failing_unit(bad, 1, lambda x: _all_pairs_commutes_fails(bad, x, p))
    assert new == old
    assert new is not None and new.endswith(level)


def test_insertion_commutes_products_per_arity(std3_eval, monkeypatch):
    # two products build each term and two per commutator, two
    # commutators per level above k = 2: a return to checking every
    # [S_k, R_i] or to building S_k from scratch changes these counts
    p = std3_eval.detect_rank()
    x = _unit(std3_eval, 0, 1)
    counts = {}
    real = TensorOperator.__matmul__

    def counted(self, other):
        counts[self.arity] = counts.get(self.arity, 0) + 1
        return real(self, other)

    monkeypatch.setattr(TensorOperator, "__matmul__", counted)
    assert insertion_commutes_fails(std3_eval, x, p) is None
    assert counts == {2: 4, 3: 6, 4: 6}


def test_flip_operator_is_involution():
    p = flip_operator(3, SYM.one)
    assert p @ p == TensorOperator.identity(3, 2, SYM.one)
