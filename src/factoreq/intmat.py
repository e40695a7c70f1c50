"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of row tuples.  Everything here is fraction-free
where possible: Hermite normal form and kernels stay in integers, determinants
use Bareiss elimination (intermediate entries are minors, so divisions are
exact), and rational matrices are cleared to integers first.  No floats ever.

One elimination loop does all Hermite normal form work.  Only
:func:`hermite_normal_form` carries the transform ``U`` (for
:func:`kernel_basis`); :func:`row_span_basis` needs none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FactoreqError

IntMatrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat):
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a, b):
    """Product a @ b, skipping zero entries (our matrices are mostly sparse)."""
    if a and b and len(a[0]) != len(b):
        raise FactoreqError(f"cannot multiply a matrix with {len(a[0])} "
                            f"columns by one with {len(b)} rows")
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if not x:
                continue
            brow = b[k]
            if x == 1:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += y
            elif x == -1:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] -= y
            else:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v) if x and y) for row in a)


def _hnf_in_place(a, ncols):
    """Reduce columns ``< ncols`` of the row list ``a`` to HNF, in place.

    Later columns (an appended identity) ride along and record the transform.
    """
    m = len(a)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        # Kill all but one nonzero in column c at rows >= r via gcd steps.
        while True:
            live = [i for i in range(r, m) if a[i][c]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(a[i][c]))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < m and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1


def hermite_normal_form(rows):
    """Row Hermite normal form with transform.

    Returns ``(H, U)`` with ``U`` unimodular, ``U @ rows == H``, pivots
    positive, entries above each pivot reduced into ``[0, pivot)``, and zero
    rows collected at the bottom.  ``H`` is the canonical representative of
    the row span, so two spans are equal iff their nonzero HNF rows coincide.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [1 if i == j else 0 for j in range(m)]
         for i, row in enumerate(rows)]
    _hnf_in_place(a, n)
    return tuple(tuple(row[:n]) for row in a), tuple(tuple(row[n:]) for row in a)


def row_span_basis(rows):
    """Canonical basis (nonzero HNF rows) of the integer row span."""
    a = [list(row) for row in rows]
    _hnf_in_place(a, len(a[0]) if a else 0)
    return tuple(tuple(row) for row in a if any(row))


def kernel_basis(mat):
    """Canonical basis of the right kernel {x : mat @ x = 0} over Z.

    Kernels of integer matrices are saturated by construction: any integer
    vector killed by ``mat`` is an integer combination of the returned rows.
    """
    if not mat or not mat[0]:
        n = len(mat[0]) if mat else 0
        return identity_matrix(n)
    h, u = hermite_normal_form(transpose(mat))
    null_rows = tuple(u[i] for i in range(len(h)) if not any(h[i]))
    return row_span_basis(null_rows)


def bareiss_determinant(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def is_positive_definite(rows) -> bool:
    """Sylvester test on a symmetric rational matrix, done in integers.

    Scales by the common denominator (positive, so minor signs survive) and
    reads the leading principal minors off the Bareiss pivots.
    """
    n = len(rows)
    if n == 0:
        return True
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    m = [[int(Fraction(x) * den) for x in row] for row in rows]
    prev = 1
    for k in range(n):
        if m[k][k] <= 0:
            return False
        if k == n - 1:
            break
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return True


def fraction_determinant(rows) -> Fraction:
    """Determinant of a matrix with Fraction/int entries, exactly."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    cleared = []
    scale = Fraction(1)
    for row in rows:
        frow = [Fraction(x) for x in row]
        d = 1
        for x in frow:
            d = lcm(d, x.denominator)
        scale *= d
        cleared.append(tuple(int(x * d) for x in frow))
    return Fraction(bareiss_determinant(tuple(cleared))) / scale


def solve_exact(a, b):
    """Solve a @ x = b over Q (a has full column rank); None if inconsistent.

    ``a`` is n x r, ``b`` is n x s; the solution is r x s with Fraction
    entries.  Used for change-of-basis and sublattice-index computations.
    """
    n = len(a)
    r = len(a[0]) if a else 0
    s = len(b[0]) if b else 0
    aug = [[Fraction(x) for x in arow] + [Fraction(y) for y in brow]
           for arow, brow in zip(a, b)]
    pivots = []
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    if len(pivots) < r:
        return None  # not full column rank
    for i in range(row, n):
        if any(aug[i][r:]):
            return None  # inconsistent system
    x = [[Fraction(0)] * s for _ in range(r)]
    for i, col in enumerate(pivots):
        x[col] = aug[i][r:]
    return tuple(tuple(rw) for rw in x)


def sublattice_index(basis, sub_basis) -> int:
    """Index of the lattice spanned by sub_basis's columns inside basis's.

    Both are integer column matrices of the same full column rank; the change
    of basis must be integral (the sublattice really is contained), and the
    index is the absolute determinant of that change of basis.
    """
    x = solve_exact(basis, sub_basis)
    if x is None:
        raise ValueError("sublattice does not lie in the span of the basis")
    for row in x:
        for entry in row:
            if entry.denominator != 1:
                raise ValueError("sublattice is not contained in the lattice")
    d = fraction_determinant(x)
    if not d:
        raise ValueError("sublattice has smaller rank than the lattice")
    return abs(int(d))


def prime_factorization(n: int) -> dict[int, int]:
    """Trial-division factorization; our integers are smooth by construction."""
    if n <= 0:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 2 if q % 6 == 5 else 4
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def fraction_valuations(x: Fraction) -> dict[int, int]:
    """Map p -> v_p(x) for a positive rational, zeros omitted."""
    if x <= 0:
        raise ValueError("valuations need a positive rational")
    vals = dict(prime_factorization(x.numerator))
    for p, e in prime_factorization(x.denominator).items():
        vals[p] = vals.get(p, 0) - e
    return {p: e for p, e in sorted(vals.items()) if e}
