"""Dense integer polynomials, as used to put Q(q) scalars in canonical form.

A polynomial is a list of ints, index = exponent.  ``primitive_part``
splits one into its content and a primitive list, and ``gcd_heu`` returns
the gcd of two primitive lists together with both exact quotients.
"""

from math import gcd, isqrt


def primitive_part(a):
    """(c, a / c) for a nonzero integer list a: c is the content, signed
    so that the primitive part has a positive lead."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return c, [x // c for x in a]


def exact_quotient(a, b):
    """a / b over Z, or None when b does not divide a there."""
    m = len(b) - 1
    k = len(a) - 1 - m
    if k < 0:
        return None
    a = list(a)
    lead = b[m]
    quot = [0] * (k + 1)
    for i in range(k, -1, -1):
        f, r = divmod(a[i + m], lead)
        if r:
            return None
        if f:
            quot[i] = f
            for j in range(m):
                a[i + j] -= f * b[j]
    return None if any(a[:m]) else quot


def gcd_heu(a, b):
    """(g, a/g, b/g) over Z for primitive lists a, b with positive leads,
    g primitive with positive lead; None if the heuristic gives up.

    GCDHEU (B. Char, K. Geddes, G. Gonnet, J. Symbolic Comput. 7, 1989):
    the integer gcd h of a(xi) and b(xi) is read back as the polynomial H
    of its balanced xi-adic digits, and the primitive part P of H is
    accepted only if it divides both inputs over Z.  That makes the result
    exact: with M the smaller of the two max-norms and xi >= 2M + 2, the
    cofactor K = gcd(a, b)/P satisfies K(xi) | content(H), whose size is
    at most xi/2, while a nonconstant K has |K(xi)| > xi/2 because its
    roots lie within 1 + M of 0.  So K = 1.  The heuristic gives up
    after six evaluation points.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        h = gcd(va, vb)
        digits = []
        while h:
            d = h % xi
            if d > xi >> 1:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        if len(digits) == 1:
            return [1], a, b
        c = gcd(*digits)
        if digits[-1] < 0:
            c = -c
        g = [d // c for d in digits]
        qa = exact_quotient(a, g)
        if qa is not None:
            qb = exact_quotient(b, g)
            if qb is not None:
                return g, qa, qb
        # the next evaluation point, as in the GCDHEU paper
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None
