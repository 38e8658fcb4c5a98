"""Free-algebra arithmetic, reflection-equation relations, and graded
ideal membership.

Rank pins use the independent dimension count: the degree-d slice of the
free algebra on N^2 generators has (N^2)^d monomials, and the quotient is
a flat deformation of the symmetric algebra, whose degree-d slice has
C(N^2+d-1, d) monomials.  The ideal slice rank is the difference.
"""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import invariants, ncalgebra
from heckelab.hecke import builtin_permutation, builtin_standard, validate
from heckelab.invariants import (
    cayley_hamilton_defect,
    central_set,
    char_columns,
    char_poly,
    ideal_components,
    member_at_degree,
    newton_defect,
)
from heckelab.ncalgebra import (
    DegreeError,
    DegreeView,
    EchelonBasis,
    NCPoly,
    ResourceError,
    RewritingSystem,
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


# -- the rewriting system against the echelon slices --------------------------
#
# The commands decide membership with RewritingSystem; the echelon slices
# built straight from the relations are its oracle at degrees <= 3.


def _rational(q):
    return make_field(FieldSpec.evaluated(q))


ORACLE_SOURCES = {
    "std2-symbolic": lambda: builtin_standard(2, SYM),
    "std3-3/2": lambda: builtin_standard(3, _rational(Fraction(3, 2))),
    "perm3": lambda: builtin_permutation(3, _rational(1)),
    "gauge7-3/2": lambda: _gauged_std3(_rational(Fraction(3, 2))),
}
# rules that completion adds at degree 3: only the gauge has any
DEGREE3_RULES = {"std2-symbolic": 0, "std3-3/2": 0, "perm3": 0, "gauge7-3/2": 21}


@pytest.fixture(scope="module", params=sorted(ORACLE_SOURCES))
def oracle(request):
    h = ORACLE_SOURCES[request.param]()
    rels = re_relations(h)
    slices = {d: ideal_component(rels, d) for d in (2, 3)}
    return request.param, h, RewritingSystem(rels, 3), slices


def _reducible_words(rules, n, d):
    """Degree-d words with a rule's lead as a factor."""
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    count = 0
    for word in itertools.product(letters, repeat=d):
        w = sum(word, ())
        if any(w[t:t + k] in rules for t in range(0, 2 * d, 2)
               for k in range(4, 2 * d - t + 1, 2)):
            count += 1
    return count


def test_rewriting_leads_count_slice_ranks(oracle):
    name, h, system, slices = oracle
    for d in (2, 3):
        assert _reducible_words(system.rules, h.dim, d) == slices[d].rank
        assert DegreeView(system, d).rank == slices[d].rank
    assert sum(len(m) == 6 for m in system.rules) == DEGREE3_RULES[name]


def test_completion_is_needed_on_the_gauge():
    # negative control: without S-polynomials the gauge's degree-3 leads
    # fall short of the slice rank (std:3 needs no such rule, so it
    # cannot catch a broken completion step)
    rels = re_relations(_gauged_std3(_rational(Fraction(3, 2))))
    bare = RewritingSystem(rels, 2)
    assert _reducible_words(bare.rules, 3, 3) \
        == ideal_component(rels, 3).rank - DEGREE3_RULES["gauge7-3/2"]


def test_rewriting_rules_lie_in_the_slices(oracle):
    _, _, system, slices = oracle
    for lead, rep in system.rules.items():
        rule = NCPoly({lead: 1}) - rep
        assert rule.is_homogeneous()
        assert is_member(rule, slices[len(lead) // 2])[0]


def _defects(h):
    """Every polynomial the newton, cayley-hamilton and charpoly commands
    reduce: the Newton defects, the Cayley-Hamilton entries, the
    char-poly coefficient defects and the eigen-relation entries."""
    sets = central_set(h)
    p = sets.p
    out = [newton_defect(h, sets, i) for i in range(1, p + 1)]
    out += list(cayley_hamilton_defect(h, sets).entries.values())
    u, v = h.levi_civita()
    cols = char_columns(h)
    cp = char_poly(h, v, cols)
    for i in range(p + 1):
        sig = sets.sigma[p - i] if i < p else NCPoly.const(h.field.one)
        out.append(cp.coeffs[i] - h.field.of_int((-1) ** i) * sig)
    shift = TensorOperator.identity(h.dim, p, h.field.one).scaled(
        h.field.one / h.q)
    for i in range(1, p):
        op = h.r_slot(i, p) + shift
        for col in cols:
            out += list((op @ col).entries.values())
    return [f if isinstance(f, NCPoly) else NCPoly.const(f) for f in out]


def test_rewriting_and_echelon_agree_on_every_defect(oracle):
    _, h, system, slices = oracle
    views = {d: DegreeView(system, d) for d in (2, 3)}
    defects = _defects(h)
    assert any(f.degree() >= 2 and not f.is_zero() for f in defects)
    for f in defects:
        assert member_at_degree(f, views) == (True, NCPoly())
        assert member_at_degree(f, slices)[0]


def _non_members(h, rng):
    """The controls (sigma(p) alone, the top Newton defect without its
    s(p) term, one word of two generators) and random word combinations
    of degree 2 and 3."""
    sets = central_set(h)
    p = sets.p
    L = NCPoly.generator
    out = [sets.sigma[p],
           newton_defect(h, sets, p) - (-1) ** p * sets.s[p],
           L(1, 1) * L(1, 2)]
    letters = [(i, j) for i in range(1, h.dim + 1) for j in range(1, h.dim + 1)]
    for d in (2, 2, 3, 3, 3):
        f = NCPoly()
        for _ in range(4):
            w = sum((rng.choice(letters) for _ in range(d)), ())
            f = f + NCPoly({w: h.field.of_int(rng.randint(1, 5))})
        out.append(f)
    return out


def test_rewriting_and_echelon_remainders_differ_by_the_slice(oracle):
    _, h, system, slices = oracle
    rng = Random(31)
    for f in _non_members(h, rng):
        d = f.degree()
        ok, rest = is_member(f, DegreeView(system, d))
        assert not ok and rest
        ok, oracle_rest = is_member(f, slices[d])
        assert not ok
        assert is_member(rest - oracle_rest, slices[d])[0]


def test_ideal_components_is_one_system(std2, monkeypatch):
    # every degree passes through ideal_component, the top one first, so
    # the column cap and anything watching ideal_component see them all
    calls = []
    original = invariants.ideal_component

    def spy(relations, d, system=None):
        calls.append((d, type(system).__name__))
        return original(relations, d, system)

    monkeypatch.setattr(invariants, "ideal_component", spy)
    comps = ideal_components(std2, 3)
    assert calls == [(3, "RewritingSystem"), (2, "RewritingSystem")]
    assert sorted(comps) == [2, 3]
    assert comps[2].system is comps[3].system
    assert [comps[d].degree for d in (2, 3)] == [2, 3]
    slices = {d: ideal_component(re_relations(std2), d) for d in (2, 3)}
    assert [comps[d].rank for d in (2, 3)] == [slices[d].rank for d in (2, 3)]
