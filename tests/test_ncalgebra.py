"""Free-algebra arithmetic, reflection-equation relations, and graded
ideal membership.

Rank pins use the independent dimension count: the degree-d slice of the
free algebra on N^2 generators has (N^2)^d monomials, and the quotient is
a flat deformation of the symmetric algebra, whose degree-d slice has
C(N^2+d-1, d) monomials.  The ideal slice rank is the difference.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import ncalgebra
from heckelab.hecke import builtin_permutation, builtin_standard, validate
from heckelab.ncalgebra import (
    DegreeError,
    EchelonBasis,
    NCPoly,
    ResourceError,
    generator_matrix,
    ideal_component,
    is_member,
    re_relations,
)
from heckelab.qscalar import FieldSpec, make_field
from heckelab.tensor import TensorOperator

SYM = make_field(FieldSpec.symbolic())


def expected_rank(n, d):
    total = (n * n) ** d
    sym = math.comb(n * n + d - 1, d)
    return total - sym


@pytest.fixture(scope="module")
def std2():
    return builtin_standard(2, SYM)


@pytest.fixture(scope="module")
def rel2(std2):
    return re_relations(std2)


@pytest.fixture(scope="module")
def perm2():
    return builtin_permutation(2, make_field(FieldSpec.evaluated(1)))


# -- free algebra basics -----------------------------------------------------


def test_unit_and_noncommutativity():
    x = NCPoly.generator(1, 1)
    y = NCPoly.generator(2, 2)
    assert NCPoly.const(1) * x == x
    assert x * y != y * x
    assert (x * y).terms == {(1, 1, 2, 2): 1}


def small_polys():
    gens = st.tuples(st.integers(1, 2), st.integers(1, 2))
    mono = st.lists(gens, max_size=3).map(
        lambda ps: sum(ps, ()))
    return st.dictionaries(mono, st.integers(-4, 4), max_size=4).map(
        lambda d: NCPoly({m: Fraction(c) for m, c in d.items() if c}))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_distributive_and_associative(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_scalar_interop():
    x = NCPoly.generator(1, 2)
    assert (x + 0) == x
    assert (0 + x) == x
    assert x * 3 - 3 * x == 0
    assert 1 - x + x == 1
    q = SYM.q
    assert (q * x).terms == {(1, 2): q}
    assert (x * q) == q * x


def test_degree_and_lead():
    x = NCPoly.generator(1, 2) * NCPoly.generator(2, 1) + NCPoly.generator(1, 1)
    assert x.degree() == 2
    assert not x.is_homogeneous()
    assert x.lead() == ((1, 1), 1)
    assert NCPoly.zero().degree() == -1


def test_deglex_is_row_major():
    a = NCPoly({(1, 1, 2, 2): 1, (1, 2, 1, 1): 2})
    assert a.lead()[0] == (1, 1, 2, 2)


def test_str_forms():
    assert str(NCPoly.zero()) == "0"
    assert str(NCPoly.generator(1, 2) * NCPoly.generator(2, 1)) == "L[1,2]*L[2,1]"
    assert str(SYM.lam * NCPoly.generator(1, 1)) == "(q - q^-1)*L[1,1]"
    assert str(NCPoly.generator(1, 1) - NCPoly.generator(2, 2)) == "L[1,1] - L[2,2]"


def test_evaluate_commutative():
    f = NCPoly.generator(1, 2) * NCPoly.generator(2, 1) - NCPoly.const(Fraction(3))
    assign = {(1, 2): Fraction(5), (2, 1): Fraction(2)}
    assert f.evaluate(assign) == Fraction(7)


def test_generator_matrix_shape():
    l = generator_matrix(2)
    assert l.entry((1,), (2,)) == NCPoly.generator(1, 2)
    assert len(l.entries) == 4


# -- relations ----------------------------------------------------------------


def test_relations_homogeneous_quadratic(rel2):
    assert rel2
    for r in rel2:
        assert r.is_homogeneous()
        assert r.degree() == 2


def test_classical_relations_are_commutators(perm2):
    rels = re_relations(perm2)
    for r in rels:
        # vanishes commutatively
        acc = {}
        for m, c in r.terms.items():
            key = tuple(sorted((m[t], m[t + 1]) for t in range(0, len(m), 2)))
            acc[key] = acc.get(key, 0) + c
        assert all(not v for v in acc.values())
    comp = ideal_component(rels, 2)
    assert comp.rank == expected_rank(2, 2) == 6


def test_relation_count_matches_rank(rel2):
    # the defect entries carry scalar-multiple pairs and one further
    # linear dependency, so the meaningful count is of independent rows
    b = EchelonBasis()
    survivors = sum(1 for r in rel2 if b.insert(r))
    comp = ideal_component(rel2, 2)
    assert survivors == comp.rank == 6


# -- ideal components ----------------------------------------------------------


def test_component_ranks_dim2(rel2):
    assert ideal_component(rel2, 2).rank == expected_rank(2, 2) == 6
    assert ideal_component(rel2, 3).rank == expected_rank(2, 3) == 44


def test_component_rank_dim3_degree2():
    f = make_field(FieldSpec.evaluated(Fraction(3, 2)))
    rels = re_relations(builtin_standard(3, f))
    assert ideal_component(rels, 2).rank == expected_rank(3, 2) == 36


def test_gradedness(rel2):
    comp = ideal_component(rel2, 3)
    for m in comp.pivots():
        row = comp.rows[m]
        assert row.is_homogeneous() and row.degree() == 3


def test_two_sided_closure(rel2):
    comp3 = ideal_component(rel2, 3)
    gens = [NCPoly.generator(i, j) for i in (1, 2) for j in (1, 2)]
    for r in rel2[:3]:
        for g in gens:
            assert is_member(g * r, comp3)[0]
            assert is_member(r * g, comp3)[0]


def test_membership_basics(rel2):
    comp = ideal_component(rel2, 2)
    ok, res = is_member(NCPoly.zero(), comp)
    assert ok and res.is_zero()
    for r in rel2:
        ok, res = is_member(r, comp)
        assert ok and res.is_zero()
    # a plain product of generators is not in the ideal
    ok, res = is_member(NCPoly.generator(1, 1) * NCPoly.generator(1, 1), comp)
    assert not ok and res


def test_membership_degree_mismatch(rel2):
    comp = ideal_component(rel2, 2)
    with pytest.raises(DegreeError):
        is_member(NCPoly.generator(1, 1), comp)
    with pytest.raises(DegreeError):
        is_member(NCPoly.generator(1, 1) + NCPoly.generator(1, 1)
                  * NCPoly.generator(2, 2), comp)


def test_degree_below_two_rejected(rel2):
    with pytest.raises(DegreeError):
        ideal_component(rel2, 1)


def test_resource_cap(rel2, monkeypatch):
    # the cap is read when a slice is asked for: 64 degree-3 monomials
    monkeypatch.setattr(ncalgebra, "DEFAULT_COLUMN_CAP", 50)
    with pytest.raises(ResourceError):
        ideal_component(rel2, 3)
    monkeypatch.setattr(ncalgebra, "DEFAULT_COLUMN_CAP", 64)
    assert ideal_component(rel2, 3).degree == 3


def test_classical_membership_oracle(perm2):
    # at q = 1 the quotient is the commutative polynomial ring, so
    # membership must agree with commutative vanishing
    rels = re_relations(perm2)
    comps = {2: ideal_component(rels, 2), 3: ideal_component(rels, 3)}
    rng = Random(11)
    gens = [(i, j) for i in (1, 2) for j in (1, 2)]

    def commutative_image(f):
        acc = {}
        for m, c in f.terms.items():
            key = tuple(sorted((m[t], m[t + 1]) for t in range(0, len(m), 2)))
            acc[key] = acc.get(key, 0) + c
        return {k: v for k, v in acc.items() if v}

    for t in range(20):
        d = 2 if t % 2 == 0 else 3
        if t % 4 < 2:
            # random word combination, almost surely not a member
            f = NCPoly.zero()
            for _ in range(3):
                word = ()
                for _ in range(d):
                    word = word + gens[rng.randrange(4)]
                f = f + NCPoly({word: Fraction(rng.randint(-3, 3))})
        else:
            # swap two adjacent letters in one word: vanishes commutatively
            word = ()
            for _ in range(d):
                word = word + gens[rng.randrange(4)]
            k = rng.randrange(d - 1) * 2
            swapped = (word[:k] + word[k + 2:k + 4]
                       + word[k:k + 2] + word[k + 4:])
            f = NCPoly({word: Fraction(1)}) - NCPoly({swapped: Fraction(1)})
        if f.is_zero():
            continue
        ok, _ = is_member(f, comps[d])
        assert ok == (not commutative_image(f))


def test_specialization_consistency(rel2, std2):
    # a symbolic member specializes to a member at any valid q
    rng = Random(5)
    f = NCPoly.zero()
    gens = [NCPoly.generator(i, j) for i in (1, 2) for j in (1, 2)]
    for r in rel2[:4]:
        f = f + gens[rng.randrange(4)] * r * SYM.q ** rng.randint(-1, 1)
    comp3 = ideal_component(rel2, 3)
    assert is_member(f, comp3)[0]
    q0 = Fraction(3, 7)
    fev = make_field(FieldSpec.evaluated(q0))
    rels_ev = re_relations(builtin_standard(2, fev))
    comp3_ev = ideal_component(rels_ev, 3)
    f_ev = f.map_coefficients(lambda c: c.evaluate(q0))
    assert is_member(f_ev, comp3_ev)[0]


def test_echelon_idempotent_inserts(rel2):
    b = EchelonBasis()
    for r in rel2:
        b.insert(r)
    rank = b.rank
    for r in rel2:
        assert not b.insert(r)
    assert b.rank == rank
    # row-echelon: each row's lead is its smallest monomial, coefficient 1
    for lead, row in b.rows.items():
        assert row.lead() == (lead, 1)


def test_echelon_keeps_int_coefficients_exact():
    # an int lead coefficient is inverted exactly, not to a float
    L = NCPoly.generator
    b = EchelonBasis(2)
    assert b.insert(L(1, 2) * L(1, 1) - L(1, 1) * L(1, 2))
    [row] = b.rows.values()
    assert not any(isinstance(c, float) for c in row.terms.values())
    assert str(row) == "L[1,1]*L[1,2] - L[1,2]*L[1,1]"
    assert str(b.reduce(L(1, 1) * L(1, 2) + L(2, 2) * L(1, 1))) == \
        "L[1,2]*L[1,1] + L[2,2]*L[1,1]"


def _gauged_std3(f):
    # (g o g) R (g o g)^-1 with g = 1 + 2 E_12, the matrix that
    # perfbench's gauge file draws for seed 7
    g = TensorOperator.from_multi(
        3, 1, {((i,), (j,)): f.of_int(int(i == j) + 2 * ((i, j) == (1, 2)))
               for i in (1, 2, 3) for j in (1, 2, 3)})
    gg = g.embed(1, 2) @ g.embed(2, 2)
    return validate(gg @ builtin_standard(3, f).R @ gg.invert(), f)


@pytest.mark.parametrize("build", [lambda f: builtin_standard(3, f), _gauged_std3],
                         ids=["std3", "gauge7"])
def test_echelon_independent_of_insert_order(build):
    f = make_field(FieldSpec.evaluated(Fraction(3, 2)))
    rels = re_relations(build(f))
    L = NCPoly.generator
    outsiders = [L(1, 1) * L(1, 1), L(3, 3) * L(1, 1),
                 L(1, 2) * L(2, 1) + L(2, 3) * L(3, 2), L(3, 1) * L(1, 3)]

    def summary(order):
        b = EchelonBasis(2)
        for r in order:
            b.insert(r)
        rests = [is_member(x, b) for x in outsiders]
        assert not any(ok for ok, _ in rests)
        return b.rank, b.pivots(), [str(rest) for _, rest in rests]

    want = summary(rels)
    assert want[0] == expected_rank(3, 2) == 36
    rng = Random(23)
    for _ in range(3):
        order = list(rels)
        rng.shuffle(order)
        assert summary(order) == want
