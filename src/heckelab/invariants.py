"""Central elements of the reflection-equation algebra and the exact
verification of the trace identities they satisfy.

Two families are built from a closed even symmetry of rank p:

* power sums s(i) = q Tr_q L^i,
* elementary elements sigma(i) = alpha_i * v (L_1 R_1 ... R_{i-1})^i u,

together with the characteristic column w(x) = prod (L_1 - q^{2i} x) R_1
... R_{p-1} applied to u, and its pairing Delta(x) = v w(x).  Identities
among them are statements in the quotient by the graded relation ideal,
so every verifier here reduces a defect polynomial to an exact ideal
membership, by the normal form of one rewriting system per symmetry
(degrees below 2 have empty ideal slices: membership there means
literal vanishing).

Each object has one construction.  sigma(i) and w(x) share one fold:
R_{i-1}, ..., R_1 (R_{p-1}, ..., R_1 for w), looked up once per call,
are applied to a column over V^p, then L_1, so neither builds an
operator with noncommutative entries on V^p.  L^i is one running
product, read only by s(i); the Cayley-Hamilton defect is taken by
Horner's rule and forms no power of L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .hecke import Check
from .ncalgebra import (
    NCPoly,
    RewritingSystem,
    generator_matrix,
    ideal_component,
    is_member,
    re_relations,
)
from .qscalar import QScalar, q_binomial, q_number
from .tensor import TensorOperator


@dataclass
class CentralSet:
    """The two central families up to the rank, plus the normalizations.

    s[i] and sigma[i] are 1-indexed via dict access; alpha holds exact
    rational functions of q regardless of the working field.
    """

    p: int
    s: dict
    sigma: dict
    alpha: dict


@dataclass
class CharPoly:
    """Coefficients of Delta(x), indexed by power of x (length p+1)."""

    coeffs: list

    def degree(self):
        return len(self.coeffs) - 1


def alpha(i, p):
    """Normalization making sigma(i) match the quantum minors: the closed
    form q^{-i(p-i)} binom_q(p, i), cross-checked against the recurrence
    alpha_j = q^{2j-1-p} ((p-j+1)_q / j_q) alpha_{j-1}."""
    if not 1 <= i <= p:
        raise ValueError("alpha index out of range")
    closed = q_binomial(p, i) * QScalar.q_power(-i * (p - i))
    rec = q_number(p) * QScalar.q_power(1 - p)
    for j in range(2, i + 1):
        rec = rec * QScalar.q_power(2 * j - 1 - p) \
            * q_number(p - j + 1) / q_number(j)
    assert rec == closed, "alpha recurrence disagrees with closed form"
    return closed


def power_sum(h, li, i):
    """s(i) = q Tr_q L^i from the power li = L^i, homogeneous of degree i."""
    assert i >= 1
    out = h.q * h.quantum_trace(li)
    assert out.is_homogeneous() and out.degree() == i
    return out


def _r_slots(h, i, p):
    """R_(i-1), ..., R_1 on V^p, in the order _r_chain applies them."""
    return [h.r_slot(j, p) for j in reversed(range(1, i))]


def _r_chain(rs, col):
    """R_1 ... R_(i-1) applied to a column, rs from _r_slots."""
    for r in rs:
        col = r @ col
    return col


def sigma(h, u, v, i):
    """sigma(i) = alpha_i * v (L_1 R_1 ... R_{i-1})^i u on the rank-p
    tensor space, homogeneous of degree i.  R_{i-1}, ..., R_1 and then
    L_1 are applied to u, i times, and the result is paired with v last,
    so neither the staircase nor a power of it is formed."""
    p = h.detect_rank()
    if not 1 <= i <= p:
        raise ValueError("sigma index out of range")
    l1 = generator_matrix(h.dim).embed(1, p)
    rs = _r_slots(h, i, p)
    col = u
    for _ in range(i):
        col = l1 @ _r_chain(rs, col)
    val = (v @ col).as_scalar()
    if not isinstance(val, NCPoly):
        val = NCPoly.const(val)
    out = h.field.from_qscalar(alpha(i, p)) * val
    assert out.is_homogeneous() and out.degree() == i
    return out


def central_set(h):
    """s(i) and sigma(i) for i = 1..p; the powers L^i are one running
    product."""
    p = h.detect_rank()
    u, v = h.levi_civita()
    l = generator_matrix(h.dim)
    li, s = l, {}
    for i in range(1, p + 1):
        s[i] = power_sum(h, li, i)
        if i < p:
            li = li @ l
    return CentralSet(
        p=p,
        s=s,
        sigma={i: sigma(h, u, v, i) for i in range(1, p + 1)},
        alpha={i: alpha(i, p) for i in range(1, p + 1)},
    )


def newton_defect(h, sets, i):
    """(i_q / q^{i-1}) sigma(i) - s(1) sigma(i-1) + ...
    + (-1)^{i-1} s(i-1) sigma(1) + (-1)^i s(i); zero in the quotient."""
    if not 1 <= i <= sets.p:
        raise ValueError("newton index out of range")
    f = h.field
    acc = f.q_number(i) / h.q ** (i - 1) * sets.sigma[i]
    sign = 1
    for j in range(1, i):
        sign = -sign
        acc = acc + sign * (sets.s[j] * sets.sigma[i - j])
    acc = acc + (-sign) * sets.s[i]
    assert acc.is_zero() or (acc.is_homogeneous() and acc.degree() == i)
    return acc


def w_column(h, u, l=None):
    """x-graded coefficients of w(x): a list of columns over V^tensor-p,
    index k holding the x^k coefficient (entries homogeneous, degree p-k).

    The factors (L_1 - q^{2i} x) R_1 ... R_{p-1} are folded onto u from
    the right, i = p-1 first, one column per power of x.  Passing a
    replacement generator matrix l supports deliberate falsification
    runs.
    """
    p = h.detect_rank()
    l1 = (generator_matrix(h.dim) if l is None else l).embed(1, p)
    rs = _r_slots(h, p, p)
    cols = [u]
    for i in reversed(range(p)):
        ci = h.q ** (2 * i)
        moved = [_r_chain(rs, col) for col in cols]
        cols = [l1 @ col for col in moved] + [moved[-1].scaled(-ci)]
        for k in range(1, len(moved)):
            cols[k] = cols[k] + moved[k - 1].scaled(-ci)
    return cols


def char_columns(h):
    """w(x) for h's own u and L, kept on h: as verify_char_poly built it,
    else built now.  A w_column run with a replacement l is never kept."""
    if h._w_cols is None:
        h._w_cols = w_column(h, h.levi_civita()[0])
    return h._w_cols


def char_poly(h, v, cols):
    """Delta(x) = v w(x) as x-graded coefficients, from the columns that
    w_column returns; the top coefficient collapses to the exact constant
    (-1)^p."""
    p = h.detect_rank()
    coeffs = []
    for k, col in enumerate(cols):
        val = (v @ col).as_scalar()
        if not isinstance(val, NCPoly):
            val = NCPoly.const(val)
        assert val.is_zero() or (val.is_homogeneous()
                                 and val.degree() == p - k)
        coeffs.append(val)
    want = h.field.of_int((-1) ** p)
    assert coeffs[p] == want, "top coefficient of Delta is not (-1)^p"
    return CharPoly(coeffs)


def cayley_hamilton_defect(h, sets):
    """Entries of sum_{i=0}^{p} (-L)^i sigma(p-i), sigma multiplying from
    the right and sigma(0) = 1, each homogeneous of degree p.  Taken by
    Horner's rule, sigma(p) 1 - L (sigma(p-1) 1 - L (... - L 1)), so L's
    entries land left of sigma's and no power of L is formed."""
    p = sets.p
    l = generator_matrix(h.dim)
    acc = TensorOperator.zero(h.dim, 1)
    for k in range(p + 1):
        sig = sets.sigma[k] if k else NCPoly.const(h.field.one)
        acc = TensorOperator.identity(h.dim, 1, sig) - l @ acc
    for val in acc.entries.values():
        assert val.is_homogeneous() and val.degree() == p
    return acc


def centrality_defects(h, sets, i):
    """Commutators [s(i), L_a^b] and [sigma(i), L_a^b] over all
    generators, each homogeneous of degree i+1."""
    out = []
    for fam in (sets.s, sets.sigma):
        c = fam[i]
        for a in range(1, h.dim + 1):
            for b in range(1, h.dim + 1):
                g = NCPoly.generator(a, b)
                out.append(c * g - g * c)
    return out


def ideal_components(h, max_degree):
    """Graded ideal views 2..max_degree for the symmetry's relations, all
    reducing by one rewriting system completed through max_degree.

    The top degree is asked for first: it completes the system through
    every lower degree, and its column cap refuses before any rule is
    built."""
    rels = re_relations(h)
    system = RewritingSystem(rels)
    comps = {d: ideal_component(rels, d, system)
             for d in range(max_degree, 1, -1)}
    return dict(sorted(comps.items()))


def member_at_degree(f, components):
    """Graded membership with the convention that slices below degree 2
    are zero; returns (flag, residual)."""
    d = f.degree()
    if d < 2:
        return f.is_zero(), f
    return is_member(f, components[d])


def eigen_relation_check(h, components, cols):
    """The braid generators act on the characteristic column by the
    factor -1/q modulo the ideal: (R_i + 1/q) w(x) reduces to zero for
    every i < p and every x-power, w(x) given by the columns that
    w_column returns.  Returns (ok, first_failure) with first_failure =
    (i, x_power) when some entry survives reduction."""
    p = h.detect_rank()
    shift = TensorOperator.identity(h.dim, p, h.field.one).scaled(
        h.field.one / h.q)
    for i in range(1, p):
        op = h.r_slot(i, p) + shift
        for k, col in enumerate(cols):
            moved = op @ col
            for val in moved.entries.values():
                if not isinstance(val, NCPoly):
                    val = NCPoly.const(val)
                if not member_at_degree(val, components)[0]:
                    return False, (i, k)
    return True, None


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


def verify_newton(h, sets, components):
    """One Check per index i: defect(i) reduces to zero at degree i."""
    out = []
    for i in range(1, sets.p + 1):
        d = newton_defect(h, sets, i)
        ok, res = member_at_degree(d, components)
        wit = None if ok else "residual %s" % res
        out.append(Check("newton_defect_%d" % i, ok, wit))
    return out


def verify_cayley_hamilton(h, sets, components):
    defect = cayley_hamilton_defect(h, sets)
    out = []
    for a in range(1, h.dim + 1):
        for b in range(1, h.dim + 1):
            f = defect.entry((a,), (b,))
            if not isinstance(f, NCPoly):
                f = NCPoly.const(f)
            ok, res = member_at_degree(f, components)
            wit = None if ok else "residual %s" % res
            out.append(Check("cayley_hamilton_entry_%d_%d" % (a, b), ok, wit))
    return out


def verify_char_poly(h, components, sets=None):
    """Delta's x^i coefficient minus (-1)^i sigma(p-i) is in the
    degree-(p-i) slice, and the braid generators fix w(x) up to -1/q.
    The coefficient defects are already zero in the free algebra, so
    only the eigen relation exercises the ideal."""
    p = h.detect_rank()
    u, v = h.levi_civita()
    if sets is None:
        sets = central_set(h)
    cols = h._w_cols = w_column(h, u)
    cp = char_poly(h, v, cols)
    out = []
    for i in range(p + 1):
        sig = sets.sigma[p - i] if i < p else NCPoly.const(h.field.one)
        f = cp.coeffs[i] - h.field.of_int((-1) ** i) * sig
        ok, res = member_at_degree(f, components)
        wit = None if ok else "residual %s" % res
        out.append(Check("char_poly_coeff_%d" % i, ok, wit))
    ok, fail = eigen_relation_check(h, components, cols)
    out.append(Check("char_column_eigen_relation", ok,
                     None if ok else "first failure (i, x-power) = %s" % (fail,)))
    return out


def verify_centrality(h, sets, components, top=None):
    out = []
    for i in range(1, (top or sets.p) + 1):
        defects = centrality_defects(h, sets, i)
        bad = None
        for k, f in enumerate(defects):
            ok, _ = member_at_degree(f, components)
            if not ok:
                bad = k
                break
        out.append(Check("centrality_degree_%d" % i, bad is None,
                         None if bad is None else "defect %d escapes" % bad))
    return out


# ---------------------------------------------------------------------------
# classical brute-force crosscheck
# ---------------------------------------------------------------------------


def _det_char_coeffs(m):
    """Coefficients of det(x I - M) by brute-force permutation expansion,
    returned as a list indexed by x-power."""
    from itertools import permutations

    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # product of (x delta - M) entries along the permutation
        poly = [Fraction(sign)]
        for i in range(n):
            lin = [-m[i][perm[i]], Fraction(1) if perm[i] == i else Fraction(0)]
            nxt = [Fraction(0)] * (len(poly) + 1)
            for a, ca in enumerate(poly):
                nxt[a] = nxt[a] + ca * lin[0]
                nxt[a + 1] = nxt[a + 1] + ca * lin[1]
            poly = nxt
        for a, ca in enumerate(poly):
            coeffs[a] = coeffs[a] + ca
    return coeffs


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def classical_crosscheck(h, seed=0):
    """At q = 1 the central families must collapse to ordinary power sums
    and elementary symmetric functions: evaluate everything at a random
    rational matrix and compare with a brute-force determinant oracle."""
    assert h.q == 1 and h.lam == 0, "crosscheck runs in the classical limit"
    n = h.dim
    rng = Random(seed)
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    assign = {(i + 1, j + 1): m[i][j] for i in range(n) for j in range(n)}

    dc = _det_char_coeffs(m)
    elementary = {i: (-1) ** i * dc[n - i] for i in range(n + 1)}
    mk = m
    power = {}
    for i in range(1, n + 1):
        power[i] = sum(mk[a][a] for a in range(n))
        mk = _mat_mul(mk, m)

    sets = central_set(h)
    u, v = h.levi_civita()
    checks = []
    ok = all(sets.s[i].evaluate(assign) == power[i] for i in sets.s)
    checks.append(Check("classical_power_sums", ok))
    ok = all(sets.sigma[i].evaluate(assign) == elementary[i]
             for i in sets.sigma)
    checks.append(Check("classical_elementary", ok))
    ok = all(newton_defect(h, sets, i).evaluate(assign) == 0
             for i in range(1, sets.p + 1))
    checks.append(Check("classical_newton", ok))
    defect = cayley_hamilton_defect(h, sets)
    ok = all((defect.entry((a,), (b,)) == 0
              or defect.entry((a,), (b,)).evaluate(assign) == 0)
             for a in range(1, n + 1) for b in range(1, n + 1))
    checks.append(Check("classical_cayley_hamilton", ok))
    cp = char_poly(h, v, w_column(h, u))
    ok = all(cp.coeffs[k].evaluate(assign) == (-1) ** k * elementary[n - k]
             for k in range(n + 1))
    checks.append(Check("classical_char_poly", ok))
    return checks
