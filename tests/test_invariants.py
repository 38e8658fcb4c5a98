"""Central elements, Newton relations, Cayley-Hamilton, and the
characteristic column.

The dim-2 symbolic case is fully proved here (exact rational-function
arithmetic); dim 3 runs at one sampled rational q to keep the unit suite
fast, with the multi-point sweep living in the acceptance tests.
"""

from fractions import Fraction

import pytest

from heckelab import ncalgebra
from heckelab.cli import RunConfig, run
from heckelab.hecke import builtin_permutation, builtin_standard
from heckelab.invariants import (
    alpha,
    cayley_hamilton_defect,
    central_set,
    char_poly,
    classical_crosscheck,
    centrality_defects,
    eigen_relation_check,
    ideal_components,
    member_at_degree,
    newton_defect,
    power_sum,
    sigma,
    verify_cayley_hamilton,
    verify_centrality,
    verify_char_poly,
    verify_newton,
    w_column,
)
from heckelab.ncalgebra import (
    DegreeView,
    EchelonBasis,
    NCPoly,
    ResourceError,
    RewritingSystem,
    generator_matrix,
    ideal_component,
    re_relations,
)
from heckelab.qscalar import DEFAULT_PRIME, FieldSpec, QScalar, make_field, q_number
from heckelab.tensor import TensorOperator

SYM = make_field(FieldSpec.symbolic())


@pytest.fixture(scope="module")
def std2():
    return builtin_standard(2, SYM)


@pytest.fixture(scope="module")
def comps2(std2):
    return ideal_components(std2, 3)


@pytest.fixture(scope="module")
def sets2(std2):
    return central_set(std2)


@pytest.fixture(scope="module")
def classical2():
    return builtin_permutation(2, make_field(FieldSpec.evaluated(1)))


def _all_ok(checks):
    bad = [c for c in checks if not c.ok]
    assert not bad, bad


# -- normalization constants --------------------------------------------------


def test_alpha_boundary_values():
    for p in range(1, 6):
        assert alpha(1, p) == q_number(p) * QScalar.q_power(1 - p)
        assert alpha(p, p) == 1


def test_alpha_closed_form_matches_recurrence_everywhere():
    # the constructor asserts closed form == recurrence on every call
    for p in range(1, 6):
        for i in range(1, p + 1):
            alpha(i, p)


def test_alpha_out_of_range():
    with pytest.raises(ValueError):
        alpha(0, 3)
    with pytest.raises(ValueError):
        alpha(4, 3)


# -- the central families ------------------------------------------------------


def test_power_sum_classical_is_trace(classical2):
    s1 = power_sum(classical2, generator_matrix(2), 1)
    assert s1 == NCPoly.generator(1, 1) + NCPoly.generator(2, 2)


def test_l_power_convention():
    sq = generator_matrix(2) @ generator_matrix(2)
    want = (NCPoly.generator(1, 1) * NCPoly.generator(1, 1)
            + NCPoly.generator(1, 2) * NCPoly.generator(2, 1))
    assert sq.entry((1,), (1,)) == want


def test_first_elements_coincide(std2, sets2):
    assert sets2.s[1] == sets2.sigma[1]
    assert not sets2.s[1].is_zero()


def test_first_elements_coincide_dim3():
    h = builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(2, 5))))
    u, v = h.levi_civita()
    assert power_sum(h, generator_matrix(3), 1) == sigma(h, u, v, 1)


def test_sigma_classical_determinant(classical2):
    u, v = classical2.levi_civita()
    det2 = sigma(classical2, u, v, 2)
    assign = {(1, 1): Fraction(3), (1, 2): Fraction(5),
              (2, 1): Fraction(2), (2, 2): Fraction(7)}
    assert det2.evaluate(assign) == 3 * 7 - 5 * 2


def test_sigma_out_of_range(std2):
    u, v = std2.levi_civita()
    with pytest.raises(ValueError):
        sigma(std2, u, v, 3)


def test_homogeneity(sets2):
    for i, f in sets2.s.items():
        assert f.is_homogeneous() and f.degree() == i
    for i, f in sets2.sigma.items():
        assert f.is_homogeneous() and f.degree() == i


# -- Newton relations -----------------------------------------------------------


def test_newton_first_defect_vanishes_identically(std2, sets2):
    assert newton_defect(std2, sets2, 1).is_zero()


def test_newton_chain_symbolic(std2, sets2, comps2):
    _all_ok(verify_newton(std2, sets2, comps2))


def test_newton_rank2_defects_vanish_identically(std2, sets2):
    # at rank 2 the cancellation happens already in the free algebra;
    # the quotient is first needed at rank 3 (see the dim-3 test)
    assert newton_defect(std2, sets2, 2).is_zero()


def test_newton_specialization_consistency(std2, sets2):
    q0 = Fraction(5, 3)
    d2 = newton_defect(std2, sets2, 2).map_coefficients(
        lambda c: c.evaluate(q0))
    hev = builtin_standard(2, make_field(FieldSpec.evaluated(q0)))
    comps = ideal_components(hev, 2)
    assert member_at_degree(d2, comps)[0]


# -- Cayley-Hamilton and the characteristic column -------------------------------


def test_cayley_hamilton_symbolic(std2, sets2, comps2):
    _all_ok(verify_cayley_hamilton(std2, sets2, comps2))


def test_cayley_hamilton_defect_entries_nonzero(std2, sets2):
    defect = cayley_hamilton_defect(std2, sets2)
    assert any(isinstance(v, NCPoly) and not v.is_zero()
               for v in defect.entries.values())


def test_char_poly_shape_and_top(std2):
    u, v = std2.levi_civita()
    cp = char_poly(std2, v, w_column(std2, u))
    assert cp.degree() == 2
    assert cp.coeffs[2] == 1
    for k, c in enumerate(cp.coeffs):
        assert c.is_zero() or c.degree() == 2 - k


def test_char_poly_linear_coeff_exact(std2, sets2):
    # the degree-1 ideal slice is zero, so the x^1 statement is exact
    u, v = std2.levi_civita()
    cp = char_poly(std2, v, w_column(std2, u))
    assert cp.coeffs[1] == -sets2.sigma[1]


def test_char_poly_suite(std2, comps2, sets2):
    _all_ok(verify_char_poly(std2, comps2, sets2))


@pytest.mark.parametrize("build", [
    lambda: builtin_standard(2, SYM),
    lambda: builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(3, 2)))),
    lambda: builtin_standard(4, make_field(FieldSpec.evaluated(Fraction(3, 2)))),
    lambda: builtin_permutation(3, make_field(FieldSpec.evaluated(1))),
], ids=["std2-symbolic", "std3-3/2", "std4-3/2", "perm3"])
def test_char_poly_coefficients_hold_in_the_free_algebra(build):
    # Delta's x^i coefficient is (-1)^i sigma(p - i) before any reduction,
    # so of verify_char_poly's checks only the eigen relation needs the ideal
    h = build()
    p = h.detect_rank()
    u, v = h.levi_civita()
    sets = central_set(h)
    cp = char_poly(h, v, w_column(h, u))
    for i in range(p + 1):
        sig = sets.sigma[p - i] if i < p else NCPoly.const(h.field.one)
        assert (cp.coeffs[i] - h.field.of_int((-1) ** i) * sig).is_zero(), i


def test_char_poly_coefficient_control_fails_alone():
    # sigma(1) + L[1,2] in place of sigma(1) breaks exactly the x^2
    # coefficient of Delta at p = 3; the eigen relation does not read sets
    h = builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(3, 2))))
    sets = central_set(h)
    sets.sigma[1] = sets.sigma[1] + NCPoly.generator(1, 2)
    checks = verify_char_poly(h, ideal_components(h, 3), sets)
    assert [c.name for c in checks if not c.ok] == ["char_poly_coeff_2"]


def test_char_poly_suite_builds_w_once(std2, comps2, sets2, monkeypatch):
    import heckelab.invariants as inv

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return w_column(*args, **kwargs)

    monkeypatch.setattr(inv, "w_column", counted)
    _all_ok(verify_char_poly(std2, comps2, sets2))
    assert len(calls) == 1


def test_w_column_grading(std2):
    u, _ = std2.levi_civita()
    cols = w_column(std2, u)
    assert len(cols) == 3
    for k, col in enumerate(cols):
        for val in col.entries.values():
            if isinstance(val, NCPoly):
                assert val.is_zero() or val.degree() == 2 - k


def test_eigen_relation(std2, comps2):
    u, _ = std2.levi_civita()
    ok, fail = eigen_relation_check(std2, comps2, w_column(std2, u))
    assert ok and fail is None


def test_eigen_relation_perturbed_l(std2, comps2):
    bad = generator_matrix(2)
    del bad.entries[(0, 0)]
    u, _ = std2.levi_civita()
    ok, fail = eigen_relation_check(std2, comps2, w_column(std2, u, l=bad))
    assert not ok
    assert fail == (1, 0)


# -- centrality -------------------------------------------------------------------


def test_centrality_symbolic(std2, sets2, comps2):
    _all_ok(verify_centrality(std2, sets2, comps2))


def test_centrality_defects_shape(std2, sets2):
    defects = centrality_defects(std2, sets2, 1)
    assert len(defects) == 8
    for f in defects:
        assert f.is_zero() or f.degree() == 2


# -- dim 3 at one sampled point ----------------------------------------------------


def test_dim3_sampled_full_stack():
    h = builtin_standard(3, make_field(FieldSpec.evaluated(Fraction(2, 3))))
    comps = ideal_components(h, 3)
    sets = central_set(h)
    # the top Newton defect is nonzero in the free algebra, so the
    # reduction below is doing real work
    assert not newton_defect(h, sets, 3).is_zero()
    _all_ok(verify_newton(h, sets, comps))
    _all_ok(verify_cayley_hamilton(h, sets, comps))
    _all_ok(verify_char_poly(h, comps, sets))


# -- classical limit ---------------------------------------------------------------


def test_classical_crosscheck_dims():
    for n, seed in ((2, 7), (3, 8)):
        h = builtin_permutation(n, make_field(FieldSpec.evaluated(1)))
        _all_ok(classical_crosscheck(h, seed=seed))


def test_classical_newton_reduces(classical2):
    sets = central_set(classical2)
    comps = ideal_components(classical2, 2)
    d = newton_defect(classical2, sets, 2)
    assert member_at_degree(d, comps)[0]


# -- negative controls ---------------------------------------------------------------


def test_deleted_relation_breaks_memberships(std2, sets2):
    rels = re_relations(std2)
    b = EchelonBasis()
    independent = [r for r in rels if b.insert(r)]
    assert len(independent) == 6
    sub = independent[1:]
    crippled = {d: ideal_component(sub, d) for d in (2, 3)}
    assert crippled[2].rank == 5
    # the same ideal through the engine the commands use
    system = RewritingSystem(sub, 3)
    for comps in (crippled, {d: DegreeView(system, d) for d in (2, 3)}):
        checks = (verify_newton(std2, sets2, comps)
                  + verify_cayley_hamilton(std2, sets2, comps)
                  + verify_char_poly(std2, comps, sets2))
        assert any(not c.ok for c in checks)


def test_resource_cap_surfaces(std2, monkeypatch):
    # 256 degree-4 monomials against a cap of 100
    monkeypatch.setattr(ncalgebra, "DEFAULT_COLUMN_CAP", 100)
    with pytest.raises(ResourceError):
        ideal_components(std2, 4)


# -- contraction against u: oracle and N = 4 -----------------------------------------


def _operator_power_sigma(h, u, v, i):
    """sigma(i) as v (staircase)^i u with the power formed as an operator
    first: the direct reading of the definition, kept as an oracle."""
    p = h.detect_rank()
    step = generator_matrix(h.dim).embed(1, p)
    for j in range(1, i):
        step = step @ h.r_slot(j, p)
    op = step
    for _ in range(i - 1):
        op = op @ step
    val = ((v @ op) @ u).as_scalar()
    if not isinstance(val, NCPoly):
        val = NCPoly.const(val)
    return h.field.from_qscalar(alpha(i, p)) * val


def _operator_product_w(h, u):
    """w(x) with prod_i (L_1 - q^{2i} x) R_1 ... R_{p-1} multiplied out as
    operators, one per power of x, and applied to u at the end."""
    p = h.detect_rank()
    ident = TensorOperator.identity(h.dim, p, h.field.one)
    rchain = ident
    for j in range(1, p):
        rchain = rchain @ h.r_slot(j, p)
    g = generator_matrix(h.dim).embed(1, p) @ rchain
    acc = [ident]
    for i in range(p):
        ci = h.q ** (2 * i)
        nxt = [acc[0] @ g]
        for k in range(1, len(acc)):
            nxt.append(acc[k] @ g + (acc[k - 1] @ rchain).scaled(-ci))
        nxt.append((acc[-1] @ rchain).scaled(-ci))
        acc = nxt
    return [op @ u for op in acc]


@pytest.mark.parametrize("kind,n,spec", [
    ("std", 2, FieldSpec.symbolic()),
    ("std", 3, FieldSpec.evaluated(Fraction(3, 2))),
    ("std", 3, FieldSpec.modular(DEFAULT_PRIME, 123456789)),
    ("perm", 3, FieldSpec.evaluated(1)),
])
def test_contracted_sigma_and_w_match_operator_powers(kind, n, spec):
    build = builtin_standard if kind == "std" else builtin_permutation
    h = build(n, make_field(spec))
    p = h.detect_rank()
    u, v = h.levi_civita()
    for i in range(1, p + 1):
        assert sigma(h, u, v, i) == _operator_power_sigma(h, u, v, i)
    assert w_column(h, u) == _operator_product_w(h, u)


@pytest.fixture
def matmul_routes(monkeypatch):
    """[left, right, took the residue kernel] for every operator product."""
    routes = []
    matmul, kernel = TensorOperator.__matmul__, TensorOperator._matmul_mod

    def spy_matmul(self, other):
        routes.append([self, other, False])
        return matmul(self, other)

    def spy_kernel(self, other, prime):
        routes[-1][2] = True
        return kernel(self, other, prime)

    monkeypatch.setattr(TensorOperator, "__matmul__", spy_matmul)
    monkeypatch.setattr(TensorOperator, "_matmul_mod", spy_kernel)
    return routes


def _has_nc(op):
    return any(isinstance(x, NCPoly) for x in op.entries.values())


def _modular_std3():
    return builtin_standard(
        3, make_field(FieldSpec.modular(DEFAULT_PRIME, 123456789)))


def test_levi_civita_products_over_gf_p_take_the_residue_kernel(matmul_routes):
    # u and v are a column and a row: R_i @ u and v @ R_i are operator
    # products, so over GF(p) they run on plain residues like any other
    h = _modular_std3()
    h.detect_rank()
    del matmul_routes[:]
    u, v = h.levi_civita()
    for i in (1, 2):
        ri = h.r_slot(i, 3)
        for left, right in ((ri, u), (v, ri)):
            hits = [k for a, b, k in matmul_routes if a is left and b is right]
            assert hits == [True]
    assert all(k for _, _, k in matmul_routes)


def test_nc_columns_take_the_generic_loop(matmul_routes):
    # sigma and w_column start from the residue column u; once L_1 has
    # acted the column holds NC polynomials and must leave the kernel
    h = _modular_std3()
    u, v = h.levi_civita()
    del matmul_routes[:]
    sigma(h, u, v, 3)
    w_column(h, u)
    nc = [k for a, b, k in matmul_routes if _has_nc(a) or _has_nc(b)]
    residue = [k for a, b, k in matmul_routes
               if not (_has_nc(a) or _has_nc(b))]
    assert nc and not any(nc)
    assert residue and all(residue)


def _explicit_power_cayley_hamilton(h, sets, drop=None):
    """sum_i (-1)^i L^i sigma(p-i) with every power L^i formed first and
    sigma(p-i) multiplied onto its entries from the right: the direct
    reading of the definition, kept as an oracle.  The sigma(drop) term
    is left out when drop is given."""
    p = sets.p
    l = generator_matrix(h.dim)
    li = TensorOperator.identity(h.dim, 1, h.field.one)
    acc = TensorOperator.zero(h.dim, 1)
    for i in range(p + 1):
        sig = sets.sigma[p - i] if i < p else NCPoly.const(h.field.one)
        if p - i != drop:
            term = TensorOperator(h.dim, 1,
                                  {k: e * sig for k, e in li.entries.items()})
            acc = acc + (term if i % 2 == 0 else -term)
        li = li @ l
    return acc


@pytest.mark.parametrize("kind,n,spec", [
    ("std", 2, FieldSpec.symbolic()),
    ("std", 3, FieldSpec.evaluated(Fraction(3, 2))),
    ("perm", 3, FieldSpec.evaluated(1)),
    ("std", 4, FieldSpec.modular(DEFAULT_PRIME, 123456789)),
])
def test_cayley_hamilton_defect_matches_explicit_powers(kind, n, spec):
    build = builtin_standard if kind == "std" else builtin_permutation
    h = build(n, make_field(spec))
    sets = central_set(h)
    defect = cayley_hamilton_defect(h, sets)
    assert defect == _explicit_power_cayley_hamilton(h, sets)
    # negative control: the oracle without its sigma(p-1) term differs
    assert defect != _explicit_power_cayley_hamilton(h, sets, drop=sets.p - 1)


def _elementary(xs, i):
    e = [Fraction(1)] + [Fraction(0)] * len(xs)
    for x in xs:
        for k in range(len(xs), 0, -1):
            e[k] += e[k - 1] * x
    return e[i]


def test_std4_sigma_and_delta_at_scalar_matrix():
    # at L = c * 1 the RE relations hold, sigma(i) is c^i times the
    # elementary symmetric function of 1, q^-2, ..., q^(2-2p), and
    # Delta(x) is (-1/q)^(p(p-1)) prod_{i<p} (c - q^(2i) x)
    q, c = Fraction(3, 2), Fraction(5, 7)
    h = builtin_standard(4, make_field(FieldSpec.evaluated(q)))
    u, v = h.levi_civita()
    p = h.detect_rank()
    assert p == 4
    assign = {(a, b): (c if a == b else Fraction(0))
              for a in range(1, 5) for b in range(1, 5)}
    roots = [q ** (-2 * k) for k in range(p)]
    for i in range(1, p + 1):
        assert sigma(h, u, v, i).evaluate(assign) == c ** i * _elementary(roots, i)
    want = [Fraction(1)]
    for i in range(p):
        nxt = [Fraction(0)] * (len(want) + 1)
        for k, co in enumerate(want):
            nxt[k] += co * c
            nxt[k + 1] -= co * q ** (2 * i)
        want = nxt
    scale = (-1 / q) ** (p * (p - 1))
    got = [co.evaluate(assign) for co in char_poly(h, v, w_column(h, u)).coeffs]
    assert got == [scale * co for co in want]


def test_std4_membership_refuses_before_any_slice(monkeypatch):
    # the degree-4 monomial span is over the column cap; no rule may be
    # built before that refusal
    inserts = []
    original = RewritingSystem.insert

    def spy(self, f):
        inserts.append(f)
        return original(self, f)

    monkeypatch.setattr(RewritingSystem, "insert", spy)
    report = run(RunConfig("newton", builtin="std:4"))
    assert [c.status for c in report.checks] == ["skipped"] * 4
    assert inserts == []
    with pytest.raises(ResourceError):
        ideal_components(builtin_standard(4, SYM), 4)
    assert inserts == []
    # the spy does see the rules of a system under the cap
    ideal_components(builtin_standard(2, SYM), 2)
    assert inserts
