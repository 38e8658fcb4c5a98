"""Sparse tensor operators against brute-force dense oracles."""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckelab.ncalgebra import NCPoly
from heckelab.qscalar import DEFAULT_PRIME, ModInt, Q_VAR
from heckelab.tensor import (
    NotIdempotentError,
    NotInvertibleError,
    NotRankOneError,
    ShapeError,
    TensorOperator,
    decode,
    encode,
)


def random_operator(rng, dim, arity, density=0.4, span=5):
    size = dim ** arity
    entries = {}
    for r in range(size):
        for c in range(size):
            if rng.random() < density:
                v = Fraction(rng.randint(-span, span))
                if v:
                    entries[(r, c)] = v
    return TensorOperator(dim, arity, entries)


def dense(a):
    m = [[Fraction(0)] * a.size for _ in range(a.size)]
    for (r, c), v in a.entries.items():
        m[r][c] = v
    return m


def dense_mul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def from_dense(m, dim, arity):
    entries = {}
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
    return TensorOperator(dim, arity, entries)


# --- encoding ----------------------------------------------------------------

def test_encode_decode_roundtrip():
    for dim in (2, 3):
        for arity in (1, 2, 3):
            for flat in range(dim ** arity):
                assert encode(decode(flat, dim, arity), dim) == flat


def test_encode_slot1_least_significant():
    assert encode((2, 1, 1), 3) == 1
    assert encode((1, 2, 1), 3) == 3
    assert encode((1, 1, 2), 3) == 9


# --- algebra -----------------------------------------------------------------

def test_compose_matches_dense_oracle():
    rng = Random(7)
    for _ in range(8):
        a = random_operator(rng, 2, 2)
        b = random_operator(rng, 2, 2)
        assert dense(a @ b) == dense_mul(dense(a), dense(b))


def test_add_sub_scale():
    rng = Random(9)
    a = random_operator(rng, 2, 2)
    b = random_operator(rng, 2, 2)
    assert a + b - b == a
    assert (a - a).is_zero()
    assert a.scaled(Fraction(3)) @ b == (a @ b).scaled(Fraction(3))
    assert 2 * a == a + a


def test_shape_mismatch_raises():
    a = TensorOperator.identity(2, 2, Fraction(1))
    b = TensorOperator.identity(2, 3, Fraction(1))
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ShapeError):
        a + b


def test_identity_neutral():
    rng = Random(3)
    a = random_operator(rng, 3, 1)
    one = TensorOperator.identity(3, 1, Fraction(1))
    assert one @ a == a and a @ one == a


# --- embed ------------------------------------------------------------------

def kron(a, b):
    """Dense Kronecker product with the slot-1-least-significant layout:
    slot-1 factor a, slot-2 factor b gives entry (i2 i1, j2 j1) = b*a."""
    na, nb = len(a), len(b)
    out = [[Fraction(0)] * (na * nb) for _ in range(na * nb)]
    for i2 in range(nb):
        for j2 in range(nb):
            for i1 in range(na):
                for j1 in range(na):
                    out[i2 * na + i1][j2 * na + j1] = b[i2][j2] * a[i1][j1]
    return out


def test_embed_matches_kron_oracle():
    rng = Random(21)
    a = random_operator(rng, 2, 1)
    ident = dense(TensorOperator.identity(2, 1, Fraction(1)))
    # slot 1 of 2
    assert dense(a.embed(1, 2)) == kron(dense(a), ident)
    # slot 2 of 2
    assert dense(a.embed(2, 2)) == kron(ident, dense(a))


def test_embed_two_slot_operator():
    rng = Random(22)
    r = random_operator(rng, 2, 2)
    ident1 = dense(TensorOperator.identity(2, 1, Fraction(1)))
    got = dense(r.embed(1, 3))
    want = kron(dense(r), ident1)  # slots (1,2) tensor identity on slot 3
    assert got == want
    got2 = dense(r.embed(2, 3))
    want2 = kron(ident1, dense(r))
    assert got2 == want2


def test_embedded_disjoint_slots_commute():
    rng = Random(23)
    a = random_operator(rng, 2, 1)
    b = random_operator(rng, 2, 1)
    a1 = a.embed(1, 3)
    b3 = b.embed(3, 3)
    assert a1 @ b3 == b3 @ a1


def test_embed_is_homomorphism():
    rng = Random(24)
    a = random_operator(rng, 2, 2)
    b = random_operator(rng, 2, 2)
    assert (a @ b).embed(2, 4) == a.embed(2, 4) @ b.embed(2, 4)


# --- partial transpose --------------------------------------------------------

def test_partial_transpose_definition():
    rng = Random(31)
    a = random_operator(rng, 3, 2)
    t = a.partial_transpose_slot1()
    for (r, c), v in a.entries.items():
        i1, i2 = decode(r, 3, 2)
        j1, j2 = decode(c, 3, 2)
        assert t.entry((j1, i2), (i1, j2)) == v


def test_partial_transpose_involution():
    rng = Random(32)
    a = random_operator(rng, 2, 2)
    assert a.partial_transpose_slot1().partial_transpose_slot1() == a


def test_partial_transpose_slot2_factor_commutes():
    # t1 only touches slot 1, so it is multiplicative across slot-2 factors
    rng = Random(33)
    a = random_operator(rng, 2, 1)
    a2 = a.embed(2, 2)
    b = random_operator(rng, 2, 2)
    assert (a2 @ b).partial_transpose_slot1() == a2 @ b.partial_transpose_slot1()


# --- traces -------------------------------------------------------------------

def test_trace_full_cyclic():
    rng = Random(41)
    a = random_operator(rng, 2, 2)
    b = random_operator(rng, 2, 2)
    assert (a @ b).trace_full() == (b @ a).trace_full()


def test_trace_empty_is_int_zero():
    assert TensorOperator.zero(2, 1).trace_full() == 0


def test_trace_slots_against_dense():
    rng = Random(42)
    a = random_operator(rng, 2, 2)
    t = a.trace_slots([2])
    for i in (1, 2):
        for j in (1, 2):
            want = sum((a.entry((i, k), (j, k)) for k in (1, 2)), Fraction(0))
            assert t.entry((i,), (j,)) == want


def test_trace_slots_compose_to_full():
    rng = Random(43)
    a = random_operator(rng, 2, 3, density=0.25)
    assert a.trace_slots([1, 2, 3]).as_scalar() == a.trace_full()
    assert a.trace_slots([2]).trace_slots([1, 2]).as_scalar() == a.trace_full()


def test_trace_slots_partial_cyclicity():
    # tracing slot 2 of (B2 A) equals tracing slot 2 of (A B2)
    rng = Random(44)
    a = random_operator(rng, 2, 2)
    b = random_operator(rng, 2, 1)
    b2 = b.embed(2, 2)
    assert (b2 @ a).trace_slots([2]) == (a @ b2).trace_slots([2])


# --- inversion ----------------------------------------------------------------

def test_invert_random_exact():
    rng = Random(51)
    found = 0
    while found < 5:
        a = random_operator(rng, 2, 2, density=0.6)
        try:
            inv = a.invert()
        except NotInvertibleError:
            continue
        found += 1
        one = TensorOperator.identity(2, 2, Fraction(1))
        assert a @ inv == one and inv @ a == one


def test_invert_singular_raises():
    a = TensorOperator(2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    with pytest.raises(NotInvertibleError):
        a.invert()


def test_invert_symbolic():
    from heckelab.qscalar import Q_ONE, Q_VAR
    a = TensorOperator(2, 1, {(0, 0): Q_VAR, (0, 1): Q_ONE, (1, 1): Q_VAR})
    inv = a.invert()
    one = TensorOperator.identity(2, 1, Q_ONE)
    assert a @ inv == one and inv @ a == one


def test_invert_modular():
    from heckelab.qscalar import ModInt
    m = {(0, 0): 0, (0, 1): 3, (1, 0): 5, (1, 1): 2}
    a = TensorOperator(2, 1, {k: ModInt(v, 7) for k, v in m.items() if v})
    inv = a.invert()
    one = TensorOperator.identity(2, 1, ModInt(1, 7))
    assert a @ inv == one and inv @ a == one
    # [[0, 3], [5, 2]]^-1 = 6^-1 [[2, -3], [-5, 0]] = [[5, 3], [5, 0]] mod 7,
    # stored as residues with the prime on the operator
    assert inv.prime == 7
    assert inv.entries == {(0, 0): 5, (0, 1): 3, (1, 0): 5}
    assert all(type(v) is int for v in inv.entries.values())
    for r in (1, 2):
        for c in (1, 2):
            x = inv.entry((r,), (c,))
            assert type(x) is ModInt and x.prime == 7
    assert inv.entry((2,), (1,)).value == 5 and inv.entry((2,), (2,)).value == 0


def test_invert_first_pivot_not_one():
    # the first nonzero entry of column 1 is 3/2, so the first pivot divides
    a = TensorOperator(2, 1, {(0, 0): Fraction(3, 2), (0, 1): Fraction(5, 7),
                              (1, 0): Fraction(1), (1, 1): Fraction(-2)})
    inv = a.invert()
    one = TensorOperator.identity(2, 1, Fraction(1))
    assert a @ inv == one and inv @ a == one
    assert inv.entry((1,), (1,)) == Fraction(-2) / (Fraction(-3) - Fraction(5, 7))


# --- idempotents ----------------------------------------------------------------

def test_idempotent_rank_projector():
    half = Fraction(1, 2)
    p = TensorOperator(2, 1, {(0, 0): half, (0, 1): half,
                              (1, 0): half, (1, 1): half})
    assert p.idempotent_rank() == 1


def test_idempotent_rank_modular_and_symbolic():
    from heckelab.qscalar import Q_ONE, Q_VAR, ModInt
    # the rank-1 projector [[1, q], [0, 0]], alone and tensored with 1 on C^2
    sym = TensorOperator(2, 1, {(0, 0): Q_ONE, (0, 1): Q_VAR})
    assert sym.idempotent_rank() == 1
    assert sym.embed(1, 2).idempotent_rank() == 2
    half = ModInt(4, 7)  # 1/2 mod 7
    mod = TensorOperator(2, 1, {k: half for k in ((0, 0), (0, 1), (1, 0), (1, 1))})
    assert mod.idempotent_rank() == 1
    assert TensorOperator.identity(2, 2, ModInt(1, 7)).idempotent_rank() == 4


def test_idempotent_rank_rejects_non_idempotent():
    a = TensorOperator(2, 1, {(0, 1): Fraction(1)})
    with pytest.raises(NotIdempotentError):
        a.idempotent_rank()


def test_idempotent_rank_identity_and_zero():
    assert TensorOperator.identity(2, 2, Fraction(1)).idempotent_rank() == 4
    assert TensorOperator.zero(2, 2).idempotent_rank() == 0


# --- rank-1 factorisation --------------------------------------------------------

def test_rank1_factor_recovers_projector():
    u = TensorOperator(2, 2, {(1, 0): Fraction(2), (2, 0): Fraction(-1)})
    v = TensorOperator(2, 2, {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 3)})
    # normalise the pairing to 1 so that u v is idempotent
    pairing = (v @ u).as_scalar()
    v = v.scaled(1 / pairing)
    a = u @ v
    uu, vv = a.rank1_factor()
    assert uu @ vv == a
    assert (vv @ uu).as_scalar() == 1
    # uu is a column and vv a row
    assert {c for _, c in uu.entries} == {0}
    assert {r for r, _ in vv.entries} == {0}
    # first nonzero entry of uu is exactly 1
    first = min(uu.entries)
    assert uu.entries[first] == 1


def test_rank1_factor_rejects_rank2():
    a = TensorOperator.identity(2, 1, Fraction(1))
    with pytest.raises(NotRankOneError):
        a.rank1_factor()


# --- columns and rows ----------------------------------------------------------
#
# A column holds its entries in column 0 and a row in row 0; the flat index
# 0 is the multi-index (1, 1).

def test_vector_contraction_associativity():
    rng = Random(61)
    o = random_operator(rng, 2, 2)
    xs = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
    u = TensorOperator(2, 2, {(i, 0): x for i, x in enumerate(xs[:4]) if x})
    v = TensorOperator(2, 2, {(0, i): x for i, x in enumerate(xs[4:]) if x})
    assert (v @ o) @ u == v @ (o @ u)
    assert ((v @ o) @ u).as_scalar() != 0


def test_contract_keep_helpers():
    u = TensorOperator.from_multi(2, 2, {((1, 2), (1, 1)): Fraction(3),
                                         ((2, 1), (1, 1)): Fraction(5)})
    v = TensorOperator.from_multi(2, 2, {((1, 1), (1, 2)): Fraction(7),
                                         ((1, 1), (2, 2)): Fraction(1)})
    kf = (u @ v).trace_slots([2])
    # tails must match: u_(1,2) pairs with v^(1,2) and v^(2,2)
    assert kf.entry((1,), (1,)) == 21
    assert kf.entry((1,), (2,)) == 3
    assert kf.entry((2,), (1,)) == 0
    kl = (u @ v).trace_slots([1])
    # heads must match: u_(2,1) with nothing, u_(1,2) with v head 1
    assert kl.entry((2,), (2,)) == 21
    assert kl.entry((1,), (1,)) == 0


# --- products over GF(p) on plain residues ------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Records the prime of every product that takes the residue kernel."""
    calls = []
    kernel = TensorOperator._matmul_mod

    def spy(self, other, prime):
        calls.append(prime)
        return kernel(self, other, prime)

    monkeypatch.setattr(TensorOperator, "_matmul_mod", spy)
    return calls


def dict_product(x, y, size, zero):
    """The product of two entry maps as a dense product, each sum started
    from zero (ModInt(0, p), Fraction(0) or 0), zeros dropped."""
    out = {}
    for i in range(size):
        for j in range(size):
            s = zero
            for k in range(size):
                u, v = x.get((i, k)), y.get((k, j))
                if u is not None and v is not None:
                    s = s + u * v
            if s:
                out[(i, j)] = s
    return out


def reference_product(a, b, zero):
    """a @ b on the operators' field-scalar entries, densely."""
    return dict_product(a.scalar_entries(), b.scalar_entries(), a.size, zero)


@st.composite
def residue_operators(draw, p, dim=2, arity=2):
    """A sparse operator mod p whose entries are ModInts and plain ints
    (some of them multiples of p), with at least one ModInt."""
    size = dim ** arity
    key = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    value = st.one_of(st.integers(1, p - 1).map(lambda v: ModInt(v, p)),
                      st.integers(-2 * p, 2 * p).filter(bool))
    entries = draw(st.dictionaries(key, value, max_size=size * size))
    entries[draw(key)] = ModInt(draw(st.integers(1, p - 1)), p)
    return TensorOperator(dim, arity, entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, DEFAULT_PRIME]).flatmap(
    lambda p: st.tuples(st.just(p), residue_operators(p), residue_operators(p))))
def test_residue_product_matches_modint_reference(case):
    p, a, b = case
    got = a @ b
    want = reference_product(a, b, ModInt(0, p))
    assert got.prime == p
    assert all(type(v) is int and 0 < v < p for v in got.entries.values())
    assert got.entries == {k: v.value for k, v in want.items()}
    assert all(type(v) is ModInt and v.prime == p and v.value
               for v in got.scalar_entries().values())


@pytest.mark.parametrize("p, a0, a1, b0, b1", [
    (7, ModInt(3, 7), ModInt(2, 7), ModInt(4, 7), ModInt(1, 7)),
    (DEFAULT_PRIME, ModInt(2, DEFAULT_PRIME), -1,
     ModInt((DEFAULT_PRIME + 1) // 2, DEFAULT_PRIME), 1),
])
def test_residue_product_cancelling_mod_p_is_zero(p, a0, a1, b0, b1,
                                                  kernel_calls):
    # row (a0, a1) against column (b0, b1): 3*4 + 2*1 = 14 = 0 mod 7,
    # and 2*(p+1)/2 - 1 = p at the large prime, with plain ints mixed in
    a = TensorOperator(2, 1, {(0, 0): a0, (0, 1): a1})
    b = TensorOperator(2, 1, {(0, 0): b0, (1, 0): b1})
    assert (a @ b).is_zero()
    assert kernel_calls == [p]


def test_mixed_moduli_still_fail():
    # b shares a's keys, so == has to compare the values
    a = TensorOperator(2, 1, {(0, 0): ModInt(3, 7), (0, 1): ModInt(1, 7)})
    b = TensorOperator(2, 1, {(0, 0): ModInt(4, 11), (0, 1): ModInt(1, 11)})
    c = TensorOperator(2, 1, {(0, 0): ModInt(4, 11), (1, 0): ModInt(1, 11)})
    for op in (lambda: a @ c, lambda: c @ a, lambda: a + b, lambda: a - b,
               lambda: a == b, lambda: a.scaled(ModInt(2, 11))):
        with pytest.raises(AssertionError, match="mixed moduli"):
            op()


@pytest.mark.parametrize("one, q", [
    (Fraction(1), Fraction(2, 3)),
    (Q_VAR ** 0, Q_VAR),
    (NCPoly.const(1), NCPoly.generator(1, 2)),
    (ModInt(1, 7), Fraction(2, 3)),
], ids=["Fraction", "QScalar", "NCPoly", "ModInt-with-Fraction"])
def test_other_entries_take_the_generic_loop(one, q, kernel_calls):
    a = TensorOperator(2, 1, {(0, 0): one, (0, 1): q, (1, 1): one})
    b = TensorOperator(2, 1, {(0, 1): q, (1, 0): one})
    got = a @ b
    assert got.entries == {(0, 0): q * one, (0, 1): one * q, (1, 0): one * one}
    assert kernel_calls == []


# --- columns and rows against a dense reference ----------------------------------

@st.composite
def vector_products(draw):
    """(O, u, v, zero) on V^2 at dim 2 over Fraction or GF(7): entries mix
    field elements with nonzero plain ints (over GF(7) some are multiples
    of 7), each operand holds at least one field element, and O's row 0
    is planted to cancel against u, so (O @ u) has a zero entry to drop."""
    one = draw(st.sampled_from([Fraction(1), ModInt(1, 7)]))
    if type(one) is ModInt:
        elem = st.integers(1, 6).map(lambda k: ModInt(k, 7))
    else:
        elem = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.integers(1, 5))
    value = st.one_of(elem, st.integers(-14, 14).filter(bool))
    idx = st.integers(0, 3)
    op = draw(st.dictionaries(st.tuples(idx, idx), value, max_size=16))
    col = draw(st.dictionaries(idx, value, max_size=4))
    row = draw(st.dictionaries(idx, value, max_size=4))
    k1, k2 = draw(st.lists(idx, min_size=2, max_size=2, unique=True))
    col[k1], col[k2], x = draw(elem), draw(elem), draw(elem)
    row[draw(idx)] = draw(elem)
    for c in range(4):
        op.pop((0, c), None)
    op[(0, k1)] = x
    op[(0, k2)] = -x * col[k1] / col[k2]
    return (TensorOperator(2, 2, op),
            TensorOperator(2, 2, {(r, 0): a for r, a in col.items()}),
            TensorOperator(2, 2, {(0, c): a for c, a in row.items()}),
            one - one)


@settings(max_examples=120, deadline=None)
@given(vector_products())
def test_column_and_row_products_match_dense_reference(case):
    o, u, v, zero = case
    ou = o @ u
    assert ou.entries == reference_product(o, u, zero)
    assert (0, 0) not in ou.entries
    assert {c for _, c in ou.entries} <= {0}
    vo = v @ o
    assert vo.entries == reference_product(v, o, zero)
    assert {r for r, _ in vo.entries} <= {0}
    assert (v @ u).as_scalar() == reference_product(v, u, zero).get((0, 0), 0)
    assert (u @ v).entries == reference_product(u, v, zero)


def test_as_scalar_rejects_an_entry_off_the_corner():
    u = TensorOperator(2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(2)})
    v = TensorOperator(2, 1, {(0, 0): Fraction(3)})
    assert (v @ u).as_scalar() == 3
    with pytest.raises(AssertionError, match=r"entry off \(0, 0\)"):
        (u @ v).as_scalar()


# --- GF(p) operators in residue form against ModInt-entry references ----------

def as_modints(entries, p):
    """A raw entry map read as nonzero ModInts mod p: what an operator
    built from it must hold."""
    out = {}
    for k, v in entries.items():
        v = ModInt(0, p) + v
        if v:
            out[k] = v
    return out


def assert_residues(op, p, want):
    """op is stored as ints in 1..p-1 with op.prime == p and equals the
    ModInt-entry map want."""
    assert op.prime == p
    assert all(type(v) is int and 0 < v < p for v in op.entries.values())
    assert op.entries == {k: v.value for k, v in want.items()}
    assert op.scalar_entries() == want


def ref_add(x, y, zero):
    out = {}
    for k in x.keys() | y.keys():
        s = x.get(k, zero) + y.get(k, zero)
        if s:
            out[k] = s
    return out


def ref_embed(x, dim, arity, slot, total):
    out = {}
    inside = range(slot - 1, slot - 1 + arity)
    for r in range(dim ** total):
        for c in range(dim ** total):
            rd, cd = decode(r, dim, total), decode(c, dim, total)
            if any(rd[t] != cd[t] for t in range(total) if t not in inside):
                continue
            v = x.get((encode(rd[inside.start:inside.stop], dim),
                       encode(cd[inside.start:inside.stop], dim)))
            if v:
                out[(r, c)] = v
    return out


def ref_transpose_slot1(x, dim, arity):
    out = {}
    for (r, c), v in x.items():
        rd, cd = list(decode(r, dim, arity)), list(decode(c, dim, arity))
        rd[0], cd[0] = cd[0], rd[0]
        out[(encode(rd, dim), encode(cd, dim))] = v
    return out


def ref_trace_slots(x, dim, arity, slots, zero):
    keep = [t for t in range(arity) if t + 1 not in slots]
    out = {}
    for (r, c), v in x.items():
        rd, cd = decode(r, dim, arity), decode(c, dim, arity)
        if any(rd[s - 1] != cd[s - 1] for s in slots):
            continue
        key = (encode([rd[t] for t in keep], dim),
               encode([cd[t] for t in keep], dim))
        out[key] = out.get(key, zero) + v
    return {k: v for k, v in out.items() if v}


def ref_det(x, size, zero):
    """Leibniz determinant of a dense entry map."""
    total = zero
    for perm in itertools.permutations(range(size)):
        term = zero + 1
        for i, j in enumerate(perm):
            term = term * x.get((i, j), zero)
        inversions = sum(perm[i] > perm[j] for i in range(size)
                         for j in range(i + 1, size))
        total = total - term if inversions % 2 else total + term
    return total


@st.composite
def residue_cases(draw):
    """(p, raw_a, raw_b, c): two entry maps on V^2 at dim 2 mixing ModInts
    mod p with plain ints (some multiples of p), each with at least one
    ModInt, where raw_b cancels raw_a at one planted key, and a scalar c
    that is a ModInt or a plain int (possibly 0 mod p)."""
    p = draw(st.sampled_from([7, DEFAULT_PRIME]))
    key = st.tuples(st.integers(0, 3), st.integers(0, 3))
    elem = st.integers(1, p - 1).map(lambda v: ModInt(v, p))
    value = st.one_of(elem, st.integers(-2 * p, 2 * p).filter(bool))
    raw_a = draw(st.dictionaries(key, value, max_size=16))
    raw_b = draw(st.dictionaries(key, value, max_size=16))
    raw_a[draw(key)] = draw(elem)
    planted = draw(key)
    x = draw(elem)
    raw_a[planted], raw_b[planted] = x, ModInt(p - x.value, p)
    c = draw(st.one_of(elem, st.integers(-2 * p, 2 * p)))
    return p, raw_a, raw_b, c, planted


@settings(max_examples=60, deadline=None)
@given(residue_cases())
def test_residue_operations_match_modint_reference(case):
    p, raw_a, raw_b, c, planted = case
    zero = ModInt(0, p)
    a, b = TensorOperator(2, 2, raw_a), TensorOperator(2, 2, raw_b)
    x, y = as_modints(raw_a, p), as_modints(raw_b, p)
    assert_residues(a, p, x)
    assert_residues(b, p, y)

    assert_residues(a @ b, p, dict_product(x, y, 4, zero))
    total = a + b
    assert_residues(total, p, ref_add(x, y, zero))
    assert planted not in total.entries  # a + (p - a) drops the entry
    assert_residues(a - b, p, ref_add(x, {k: -v for k, v in y.items()}, zero))
    assert_residues(-a, p, {k: -v for k, v in x.items()})
    assert (a - a).is_zero() and (a - a).prime == p
    assert_residues(a.scaled(c), p, {k: v * c for k, v in x.items() if v * c})
    assert a.scaled(p).is_zero() and a.scaled(ModInt(p, p)).is_zero()
    assert (a == b) == (x == y)
    assert a == TensorOperator(2, 2, dict(x))
    assert a != a + TensorOperator(2, 2, {(0, 0): ModInt(1, p)})

    for slot, total_arity in ((1, 3), (2, 3), (1, 2)):
        assert_residues(a.embed(slot, total_arity), p,
                        ref_embed(x, 2, 2, slot, total_arity))
    assert_residues(a.partial_transpose_slot1(), p, ref_transpose_slot1(x, 2, 2))
    for slots in ([1], [2], [1, 2]):
        assert_residues(a.trace_slots(slots), p,
                        ref_trace_slots(x, 2, 2, slots, zero))

    reads = [a.trace_full(), a.trace_slots([1, 2]).as_scalar()]
    reads += [a.entry(decode(r, 2, 2), decode(k, 2, 2))
              for r in range(4) for k in range(4)]
    assert all(type(v) is ModInt and v.prime == p for v in reads)
    assert reads[0] == reads[1] == sum((x.get((i, i), zero) for i in range(4)),
                                       zero)
    assert reads[2:] == [x.get((r, k), zero) for r in range(4) for k in range(4)]
    assert all(type(v) is ModInt for row in a.to_dense() for v in row if v)

    if ref_det(x, 4, zero):
        inv = a.invert()
        identity = {(i, i): ModInt(1, p) for i in range(4)}
        assert inv.prime == p
        assert dict_product(x, inv.scalar_entries(), 4, zero) == identity
        assert_residues(inv, p, inv.scalar_entries())
    else:
        with pytest.raises(NotInvertibleError):
            a.invert()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, DEFAULT_PRIME]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.dictionaries(st.integers(0, 3), st.integers(1, p - 1), min_size=1),
    st.dictionaries(st.integers(0, 3), st.integers(1, p - 1), min_size=1))))
def test_residue_rank1_factor_matches_modint_reference(case):
    # the planted idempotent u w / (w u), for any column u and row w
    # whose pairing is nonzero
    p, col, row = case
    pairing = sum((ModInt(col[i], p) * row[i] for i in col.keys() & row.keys()),
                  ModInt(0, p))
    assume(pairing)
    want = {(r, c): ModInt(col[r], p) * row[c] / pairing
            for r in col for c in row}
    u, v = TensorOperator(2, 2, want).rank1_factor()
    assert_residues(u, p, u.scalar_entries())
    assert_residues(v, p, v.scalar_entries())
    assert dict_product(u.scalar_entries(), v.scalar_entries(), 4,
                        ModInt(0, p)) == want
    one = (v @ u).as_scalar()
    assert type(one) is ModInt and one == ModInt(1, p)
    assert u.entries[min(u.entries)] == 1


@pytest.mark.parametrize("other", [
    {(0, 0): Fraction(2, 3), (1, 0): Fraction(-5), (1, 1): Fraction(1, 4)},
    {(0, 0): NCPoly.generator(1, 2), (1, 1): NCPoly.const(3)},
], ids=["Fraction", "NCPoly"])
def test_residue_against_other_entries_takes_the_generic_loop(other,
                                                              kernel_calls):
    p = 7
    raw = {(0, 0): ModInt(3, p), (0, 1): ModInt(6, p), (1, 1): 9}
    a, o = TensorOperator(2, 1, raw), TensorOperator(2, 1, other)
    zero = ModInt(0, p) if type(other[(0, 0)]) is Fraction else 0
    assert (a @ o).scalar_entries() == dict_product(as_modints(raw, p), other,
                                                    2, zero)
    assert (o @ a).scalar_entries() == dict_product(other, as_modints(raw, p),
                                                    2, zero)
    assert kernel_calls == []


def test_residue_add_product_and_compare_build_no_modint(monkeypatch):
    a = TensorOperator(2, 2, {(i, j): ModInt(3 * i + j + 1, 7)
                              for i in range(4) for j in range(4)})
    b = a.scaled(ModInt(3, 7)) + TensorOperator.identity(2, 2, ModInt(1, 7))
    built = []
    init = ModInt.__init__

    def spy(self, value, prime):
        built.append((value, prime))
        init(self, value, prime)

    monkeypatch.setattr(ModInt, "__init__", spy)
    prod, total, same = a @ b, a + b, a == b
    assert built == []
    monkeypatch.undo()
    assert not same and prod.prime == total.prime == 7
    assert prod.scalar_entries() == dict_product(
        a.scalar_entries(), b.scalar_entries(), 4, ModInt(0, 7))
