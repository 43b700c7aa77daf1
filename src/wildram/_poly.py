"""Dense univariate polynomial arithmetic over any exact coefficient ring.

A polynomial is a sequence of coefficients, constant term first; every
result is a list with no zero leading coefficient.  Coefficients only need
the arithmetic operators and a truth value that is false exactly for zero,
as ``FieldElement``, ``CyclotomicNumber``, ``SRingElement``, ``RPoly``,
``Fraction`` and ``int`` provide.  Division takes the coefficient inverse
as a function (``FieldElement.inverse``, ``domain.inv``).

This is the one object-generic kernel behind ``FqPoly``, ``RPoly``, the
rational maps of ``dynsys``, the characteristic-zero squarefree
decomposition and the s-ring inverse.  F_p[x] modulo a field's modulus
runs apart from it, on ``_linalg``'s packed ints (``ff._fp_*``): the moduli
are searched and tested (Ben-Or) before the field, and so any element
object, exists, and a product there is one big-int product.
"""

from __future__ import annotations


def trim(a) -> list:
    """a as a list without zero leading coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return trim(out)


def sub(a, b) -> list:
    out = [x - y for x, y in zip(a, b)]
    if len(a) > len(b):
        out.extend(a[len(b):])
    else:
        out.extend(-y for y in b[len(a):])
    return trim(out)


def mul(a, b) -> list:
    """a * b; zero coefficients of either factor contribute no products."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    zero = b[-1] - b[-1]
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] = out[i + j] + x * y
    return trim(out)


def scale(a, c) -> list:
    return trim([x * c for x in a])


def divmod(a, b, inv):
    """(q, r) with a = q b + r and deg r < deg b; b must be trimmed and nonzero."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], trim(rem)
    lead_inv = inv(b[-1])
    quo = [None] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c:
            c = c * lead_inv
            for j in range(db):
                rem[top - db + j] = rem[top - db + j] - c * b[j]
        quo[top - db] = c  # a zero c is the zero coefficient
    return trim(quo), trim(rem[:db])


def gcd(a, b, inv) -> list:
    """Monic gcd; [] when both are zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod(a, b, inv)[1]
    return scale(a, inv(a[-1])) if a else a


def deriv(a) -> list:
    return trim([a[i] * i for i in range(1, len(a))])


def evaluate(a, x):
    """a(x) by Horner's rule."""
    if not a:
        return x - x
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def compose(a, b) -> list:
    """a(b) by Horner's rule."""
    acc = []
    for c in reversed(a):
        acc = add(mul(acc, b), [c])
    return acc


def pow(a, e: int) -> list:
    """a^e for e >= 1, by square-and-multiply."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else mul(out, a)
        e >>= 1
        if not e:
            return trim(out)
        a = mul(a, a)
