"""Sparse operators on tensor powers of an N-dimensional space.

An operator on V^(arity) is stored as a sparse map from (row, col) pairs of
flattened multi-indices to nonzero entries.  Multi-indices are 1-based
tuples (i_1, ..., i_n); flattening is mixed-radix with slot 1 least
significant.  Lower indices label rows (inputs), upper indices label
columns (outputs), and composition contracts the upper index of the left
factor with the lower index of the right factor, i.e. (A @ B)_i^j =
sum_k A_i^k B_k^j.

Entries are any ring elements supporting +, -, * and truth-testing
(QScalar, Fraction, ModInt, or noncommutative polynomials); the routines
that genuinely divide (invert, rank1_factor) need field entries.
Empty sums come back as the plain int 0, which every scalar kind here
accepts as an absorbing operand.

A product of two operators whose entries are all ModInts of one prime p
or plain ints runs on the integer residues: each output entry sums its
products as an unreduced int and is reduced mod p once, and entries
that reduce to 0 are dropped.  Reduction is a ring homomorphism Z -> Z/p,
so this is the same sum in Z/p as reducing after every step.  Columns
and rows are operators too, so their products take the same kernel.

A column u over V^(arity) is an operator whose entries all sit in column
0, and a row v one whose entries all sit in row 0.  So O @ u, v @ O, the
pairing v @ u (read with as_scalar) and the rank-1 operator u @ v are
all the one operator product, and a partial contraction of u against v
is the partial trace ``(u @ v).trace_slots(slots)``.
"""

from __future__ import annotations

from .qscalar import ModInt


class ShapeError(ValueError):
    """Operands have incompatible dim/arity."""


class NotInvertibleError(ArithmeticError):
    pass


class NotIdempotentError(ArithmeticError):
    pass


class NotRankOneError(ArithmeticError):
    pass


def _residue_prime(*operators):
    """The prime p when every entry of the operators is a ModInt mod p or
    a plain int and at least one is a ModInt; None otherwise."""
    prime = None
    for op in operators:
        for v in op.entries.values():
            if type(v) is ModInt:
                if prime is None:
                    prime = v.prime
                elif v.prime != prime:
                    return None
            elif type(v) is not int:
                return None
    return prime


def encode(index, dim):
    """Flatten a 1-based multi-index tuple, slot 1 least significant."""
    flat = 0
    base = 1
    for t in index:
        assert 1 <= t <= dim, "index out of range"
        flat += (t - 1) * base
        base *= dim
    return flat


def decode(flat, dim, arity):
    out = []
    for _ in range(arity):
        out.append(flat % dim + 1)
        flat //= dim
    return tuple(out)


class TensorOperator:
    __slots__ = ("dim", "arity", "size", "entries")

    def __init__(self, dim, arity, entries=None):
        self.dim = dim
        self.arity = arity
        self.size = dim ** arity
        self.entries = {} if entries is None else entries

    # -- constructors --------------------------------------------------

    @classmethod
    def from_multi(cls, dim, arity, items):
        """Build from {(row_tuple, col_tuple): value}."""
        entries = {}
        for (r, c), v in items.items():
            if v:
                entries[(encode(r, dim), encode(c, dim))] = v
        return cls(dim, arity, entries)

    @classmethod
    def identity(cls, dim, arity, one=1):
        size = dim ** arity
        return cls(dim, arity, {(i, i): one for i in range(size)})

    @classmethod
    def zero(cls, dim, arity):
        return cls(dim, arity, {})

    # -- basics ----------------------------------------------------------

    def entry(self, row, col):
        """Entry at 1-based multi-index tuples; 0 when absent."""
        return self.entries.get((encode(row, self.dim), encode(col, self.dim)), 0)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return (self.dim == other.dim and self.arity == other.arity
                and self.entries == other.entries)

    __hash__ = None  # mutable container semantics

    def as_scalar(self):
        """The (0, 0) entry of an operator with no other entry: a fully
        traced value, or a row paired with a column."""
        assert self.entries.keys() <= {(0, 0)}, "entry off (0, 0)"
        return self.entries.get((0, 0), 0)

    def _check_same_shape(self, other):
        if self.dim != other.dim or self.arity != other.arity:
            raise ShapeError("operator shapes differ: (%d,%d) vs (%d,%d)"
                             % (self.dim, self.arity, other.dim, other.arity))

    def __add__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_same_shape(other)
        d = dict(self.entries)
        for k, v in other.entries.items():
            s = d.get(k)
            if s is None:
                d[k] = v
            else:
                s = s + v
                if s:
                    d[k] = s
                else:
                    del d[k]
        return TensorOperator(self.dim, self.arity, d)

    def __sub__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorOperator(self.dim, self.arity,
                              {k: -v for k, v in self.entries.items()})

    def scaled(self, c):
        if not c:
            return TensorOperator.zero(self.dim, self.arity)
        return TensorOperator(self.dim, self.arity,
                              {k: c * v for k, v in self.entries.items()})

    def __rmul__(self, c):
        if isinstance(c, TensorOperator):
            return NotImplemented
        return self.scaled(c)

    def __matmul__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        self._check_same_shape(other)
        prime = _residue_prime(self, other)
        if prime is not None:
            return self._matmul_mod(other, prime)
        rows = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v))
        acc = {}
        for (i, k), a in self.entries.items():
            hits = rows.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                s = acc.get(key)
                if s is None:
                    s = a * b
                else:
                    s = s + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return TensorOperator(self.dim, self.arity, acc)

    def _matmul_mod(self, other, prime):
        """self @ other over GF(prime), on plain residues: each output
        entry sums its products as an int and is reduced once."""
        rows = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v if type(v) is int else v.value))
        acc = {}
        get = acc.get
        for (i, k), a in self.entries.items():
            hits = rows.get(k)
            if not hits:
                continue
            if type(a) is not int:
                a = a.value
            for j, b in hits:
                key = (i, j)
                acc[key] = get(key, 0) + a * b
        zeros = []
        for key, s in acc.items():
            s %= prime
            if s:
                acc[key] = ModInt(s, prime)
            else:
                zeros.append(key)
        for key in zeros:
            del acc[key]
        return TensorOperator(self.dim, self.arity, acc)

    # -- tensor-structure operations --------------------------------------

    def embed(self, slot, total):
        """View this arity-m operator as acting on slots
        slot..slot+m-1 of V^(total), identity elsewhere."""
        m = self.arity
        assert 1 <= slot and slot + m - 1 <= total
        low_size = self.dim ** (slot - 1)
        mid = self.dim ** m
        high_size = self.dim ** (total - m - slot + 1)
        entries = {}
        shift = low_size * mid
        for (r, c), v in self.entries.items():
            rbase = r * low_size
            cbase = c * low_size
            for high in range(high_size):
                off = high * shift
                for low in range(low_size):
                    entries[(rbase + off + low, cbase + off + low)] = v
        return TensorOperator(self.dim, total, entries)

    def partial_transpose_slot1(self):
        """Swap the slot-1 row digit with the slot-1 column digit."""
        d = self.dim
        entries = {}
        for (r, c), v in self.entries.items():
            r1, rrest = r % d, r - r % d
            c1, crest = c % d, c - c % d
            entries[(rrest + c1, crest + r1)] = v
        return TensorOperator(self.dim, self.arity, entries)

    def trace_full(self):
        acc = 0
        for (r, c), v in self.entries.items():
            if r == c:
                acc = acc + v
        return acc

    def trace_slots(self, slots):
        """Ordinary partial trace over the named (1-based) slots."""
        slots = sorted(set(slots))
        assert all(1 <= s <= self.arity for s in slots)
        keep = [s for s in range(1, self.arity + 1) if s not in slots]
        d = self.dim
        acc = {}
        for (r, c), v in self.entries.items():
            rd = decode(r, d, self.arity)
            cd = decode(c, d, self.arity)
            if any(rd[s - 1] != cd[s - 1] for s in slots):
                continue
            key = (encode(tuple(rd[s - 1] for s in keep), d),
                   encode(tuple(cd[s - 1] for s in keep), d))
            s0 = acc.get(key)
            if s0 is None:
                s0 = v
            else:
                s0 = s0 + v
            if s0:
                acc[key] = s0
            else:
                acc.pop(key, None)
        return TensorOperator(d, len(keep), acc)

    # -- field-entry operations -------------------------------------------

    def to_dense(self):
        rows = [[0] * self.size for _ in range(self.size)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def invert(self):
        """Exact inverse by Gauss-Jordan elimination.

        Each column pivots on its first nonzero entry: the inverse is
        unique, so the choice of pivot does not change the result.
        """
        n = self.size
        a = self.to_dense()
        inv = [[0] * n for _ in range(n)]
        one = next(iter(self.entries.values())) ** 0 if self.entries else 1
        for i in range(n):
            inv[i][i] = one
        for col in range(n):
            pivot = next((row for row in range(col, n) if a[row][col]), None)
            if pivot is None:
                raise NotInvertibleError("matrix is singular")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
            pv = a[col][col]
            if pv != one:
                for j in range(n):
                    if a[col][j]:
                        a[col][j] = a[col][j] / pv
                    if inv[col][j]:
                        inv[col][j] = inv[col][j] / pv
            for row in range(n):
                if row == col:
                    continue
                f = a[row][col]
                if not f:
                    continue
                for j in range(n):
                    if a[col][j]:
                        a[row][j] = a[row][j] - f * a[col][j]
                    if inv[col][j]:
                        inv[row][j] = inv[row][j] - f * inv[col][j]
        entries = {}
        for r in range(n):
            for c in range(n):
                if inv[r][c]:
                    entries[(r, c)] = inv[r][c]
        return TensorOperator(self.dim, self.arity, entries)

    def idempotent_rank(self):
        """Trace of a checked idempotent, as a plain integer."""
        if self @ self != self:
            raise NotIdempotentError("operator is not idempotent")
        tr = self.trace_full()
        for r in range(self.size + 1):
            if tr == r:
                return r
        raise NotIdempotentError("idempotent trace %r is not an integer"
                                 % (tr,))

    def rank1_factor(self):
        """Split a rank-1 idempotent A into a column u and a row v with
        A = u v and v u = 1.

        Deterministic normalisation: u is the first nonzero column in
        ascending flattened order, scaled so its first nonzero entry is 1;
        v is the matching row, rescaled so the pairing is exactly 1.
        """
        if not self.entries:
            raise NotRankOneError("zero operator")
        cols = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, {})[r] = v
        cstar = min(cols)
        column = cols[cstar]
        rstar = min(column)
        anchor = column[rstar]
        u = TensorOperator(self.dim, self.arity,
                           {(r, 0): v / anchor for r, v in column.items()})
        v = TensorOperator(self.dim, self.arity,
                           {(0, c): v for (r, c), v in self.entries.items()
                            if r == rstar})
        pairing = (v @ u).as_scalar()
        if not pairing:
            raise NotRankOneError("degenerate pairing")
        v = v.scaled(1 / pairing)
        if u @ v != self:
            raise NotRankOneError("operator is not rank one")
        return u, v

    def __repr__(self):
        return ("TensorOperator(dim=%d, arity=%d, nnz=%d)"
                % (self.dim, self.arity, len(self.entries)))
