"""Exact checks for the Hecke symmetry layer.

The dim-2 standard symmetry is small enough to work out on paper; those
closed forms are pinned here so every convention (entry layout, flip
composition, partial transpose, weight matrices, Levi-Civita pair) is
locked against drift.
"""

from fractions import Fraction

import pytest

from heckelab.hecke import (
    FieldError,
    HeckeSymmetry,
    HeckeViolationError,
    NotClosedError,
    NotEvenError,
    YBEViolationError,
    builtin_permutation,
    builtin_standard,
    flip_operator,
    identity_suite,
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
    assert u.entry((2, 1)) == 1
    assert u.entry((1, 2)) == -(SYM.one / Q)
    assert len(u.entries) == 2
    assert v.entry((2, 1)) == Q / two
    assert v.entry((1, 2)) == -(SYM.one / two)
    assert v @ u == SYM.one


def test_levi_civita_eigen_dim3(std3):
    u, v = std3.levi_civita()
    minus_inv_q = -(SYM.one / Q)
    for i in (1, 2):
        ri = std3.r_slot(i, 3)
        assert ri @ u == u.scaled(minus_inv_q)
        assert v @ ri == v.scaled(minus_inv_q)
    assert v @ u == SYM.one


def test_top_antisymmetrizer_factors(std3):
    from heckelab.tensor import outer

    u, v = std3.levi_civita()
    assert outer(u, v) == std3.antisymmetrizer(3)


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
    # symmetrize without its last term R_(k-1)...R_1 X_1 R_1...R_(k-1):
    # both insertion identities must fail on a named matrix unit
    def short(self, x, k):
        term = acc = x.embed(1, k)
        for i in range(1, k - 1):
            ri = self.r_slot(i, k)
            term = ri @ term @ ri
            acc = acc + term
        return acc

    monkeypatch.setattr(HeckeSymmetry, "symmetrize", short)
    checks = {c.name: c for c in identity_suite(std2)}
    for name in ("symmetrized_insertion_projects",
                 "symmetrized_insertion_commutes"):
        assert not checks[name].ok
        assert checks[name].witness.startswith("E_(")
    assert checks["conjugation_scalar_one_slot"].ok


def test_flip_operator_is_involution():
    p = flip_operator(3, SYM.one)
    assert p @ p == TensorOperator.identity(3, 2, SYM.one)
