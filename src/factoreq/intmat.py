"""Exact linear algebra over the integers.

Matrices are immutable tuples of row tuples.  Everything here is
fraction-free: Hermite normal forms, kernels and sublattice indices stay in
integers, determinants use Bareiss elimination (intermediate entries are
minors, so divisions are exact), and a rational matrix is cleared to
integers by its common denominator first.  No floats ever.

One elimination loop does all echelon work, and none of it carries a
transform.  A row operation subtracts a multiple of the pivot row, which is
zero left of its pivot, so it touches only the pivot row's nonzero entries:
on sparse rows (the Bouc generators of a span check) a handful of cells, not
the whole row.  :func:`row_span_basis` runs the loop with the entries above
each pivot reduced (the Hermite normal form).  :func:`kernel_basis` runs it
without that reduction on the matrix with its columns reversed: the columns
left without a pivot are the pivot columns of the kernel's Hermite normal
form, and back-substitution gives one rational kernel vector for each.  When
one of those vectors is not integral, a single saturation step (one more
Hermite normal form, modulo the common denominator) picks the integral
combinations.  :func:`sublattice_index` compares two Hermite normal forms,
which are canonical, pivot by pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FactoreqError, ResourceError

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


def _echelon_in_place(a, reduce):
    """Bring the list of row lists ``a`` to row echelon form over Z, in place.

    Column by column, the row with the least nonzero |entry| (the first
    such) becomes the pivot row, every other live row (nonzero in that
    column) has the pivot row subtracted q times, q the floor quotient of
    their entries, and this repeats until only the pivot row is live; each
    pivot is then made positive.  With ``reduce`` the entries above each
    pivot are reduced into ``[0, pivot)`` as well, which gives the Hermite
    normal form.  The pivot row is zero left of the pivot column, so a row
    operation updates, in place, only the columns where the pivot row is
    nonzero (listed once per pivot row).  Returns the pivot column of each
    nonzero row; the zero rows end up at the bottom.
    """
    m = len(a)
    ncols = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        live = [i for i in range(r, m) if a[i][c]]
        if not live:
            continue
        # Kill all but one nonzero in column c at rows >= r via gcd steps;
        # ``live`` lists, ascending, the rows >= r still nonzero there.
        while True:
            piv = min(live, key=lambda i: abs(a[i][c]))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
            prow = a[r]
            p = prow[c]
            nonzeros = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
            rest = []
            for i in live:
                row = a[i]
                if i == r or not row[c]:
                    continue
                q = row[c] // p
                for j, y in nonzeros:
                    row[j] -= q * y
                if row[c]:
                    rest.append(i)
            if not rest:
                break
            live = [r, *rest]
        if p < 0:
            p = -p
            nonzeros = [(j, -y) for j, y in nonzeros]
            for j, y in nonzeros:
                prow[j] = y
        if reduce:
            for i in range(r):
                row = a[i]
                q = row[c] // p
                if q:
                    for j, y in nonzeros:
                        row[j] -= q * y
        pivots.append(c)
        r += 1
    return pivots


def row_span_basis(rows):
    """Canonical basis (nonzero HNF rows) of the integer row span.

    Pivots are positive, entries above each pivot lie in ``[0, pivot)``, so
    two row spans are equal iff their bases coincide.
    """
    a = [list(row) for row in rows]
    _echelon_in_place(a, reduce=True)
    return tuple(tuple(row) for row in a if any(row))


def kernel_basis(mat):
    """Canonical basis (HNF rows) of the right kernel {x : mat @ x = 0} over Z.

    Kernels of integer matrices are saturated by construction: any integer
    vector killed by ``mat`` is an integer combination of the returned rows.

    Column c is an HNF pivot of the kernel exactly when column c of ``mat``
    lies in the Q-span of the columns to its right.  So one echelon pass over
    ``mat`` with its columns reversed finds the kernel's pivot columns F:
    those that get no pivot.  For f in F, back-substitution with x_f = 1 and
    x = 0 on the rest of F gives the rational kernel vector v_f, supported
    on f and on pivot columns right of f.  The kernel is
    {sum t_f v_f : t in Z^F, integral}; if every v_f is integral the v_f are
    its HNF rows, else :func:`_saturate` picks the integral ones.
    """
    n = len(mat[0]) if mat else 0
    if not n:
        return ()
    a = [list(reversed(row)) for row in mat]
    pivots = _echelon_in_place(a, reduce=False)
    # (pivot column, row) in the original column order, leftmost pivot first;
    # each row is zero right of its pivot.
    echelon = [(n - 1 - c, a[r][::-1]) for r, c in enumerate(pivots)][::-1]
    pivot_cols = {p for p, _ in echelon}
    free = [c for c in range(n) if c not in pivot_cols]
    solutions = []             # (y, d): v_f = y / d, y sparse, y[f] == d
    for f in free:
        y = {f: 1}
        d = 1
        for p, row in echelon:
            if p < f:
                continue
            s = sum(row[q] * v for q, v in y.items())
            if not s:
                continue
            g = gcd(s, row[p])
            scale = row[p] // g
            if scale != 1:
                for q in y:
                    y[q] *= scale
                d *= scale
            y[p] = -s // g
        solutions.append((y, d))
    den = lcm(*(d for _, d in solutions))
    scaled = []                # den * v_f, as integer rows
    for y, d in solutions:
        vec = [0] * n
        for q, v in y.items():
            vec[q] = v * (den // d)
        scaled.append(tuple(vec))
    if den == 1:
        return tuple(scaled)
    return _saturate(scaled, den)


def _saturate(scaled, den):
    """HNF rows of {sum t_i w_i / den : t in Z^k, integral} for rows w_i.

    With W the entries of the w_i on the columns where some w_i / den is not
    integral, the rows of [[W | I], [den*I | 0]] whose W part vanishes after
    one HNF are the HNF of the admissible t.  Each w_i / den is 1 on its own
    free column and 0 on the others, so mapping those t back gives the HNF
    of the kernel.
    """
    n = len(scaled[0])
    cols = [q for q in range(n) if any(w[q] % den for w in scaled)]
    k = len(scaled)
    rows = [[w[q] % den for q in cols] + [int(j == i) for j in range(k)]
            for i, w in enumerate(scaled)]
    rows += [[den if j == i else 0 for j in range(len(cols) + k)]
             for i in range(len(cols))]
    out = []
    for row in row_span_basis(rows):
        if any(row[:len(cols)]):
            continue
        t = row[len(cols):]
        out.append(tuple(sum(ti * w[q] for ti, w in zip(t, scaled) if ti)
                         // den for q in range(n)))
    return tuple(out)


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


def sublattice_index(basis, sub_basis) -> int:
    """Index of the lattice spanned by sub_basis's columns inside basis's.

    Both column sets are brought to Hermite normal form, read as rows.  Each
    Hermite row of the sublattice must reduce to zero against the lattice's
    rows, with exact division at every pivot (containment), and the two
    ranks must agree; the forms then share their pivot columns, so the index
    is the product of the pivot ratios.  Raises :class:`ValueError`
    otherwise.  At rank 0 the index is 1.
    """
    if len(basis) != len(sub_basis):
        raise ValueError("lattice and sublattice have different ambient "
                         "dimensions")
    lattice = [(next(c for c, x in enumerate(row) if x), row)
               for row in row_span_basis(transpose(basis))]
    sub = row_span_basis(transpose(sub_basis))
    if len(sub) != len(lattice):
        raise ValueError("sublattice and lattice have different ranks")
    index = 1
    for row, (pivot, top) in zip(sub, lattice):
        rest = row
        for c, hrow in lattice:
            q, r = divmod(rest[c], hrow[c])
            if r:
                break
            if q:
                rest = [x - q * y for x, y in zip(rest, hrow)]
        if any(rest):
            raise ValueError("sublattice is not contained in the lattice")
        index *= row[pivot] // top[pivot]
    return index


def prime_factorization(n: int) -> dict[int, int]:
    """Trial-division factorization of a positive integer.

    The work grows with the square root of n's largest prime factor, so it
    suits the smooth integers the package builds (group orders, indices,
    regulator constants); test primality with :func:`is_prime`.
    """
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


# Miller-Rabin to these bases is exact below _MILLER_RABIN_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(n) -> bool:
    """Whether ``n`` is a prime; False for anything but an integer.

    Deterministic Miller-Rabin with the first 13 primes as bases, which is
    proven exact below 3,317,044,064,679,887,385,961,981.  A number that
    fails a base is composite at any size; one at or above the bound that
    passes every base raises :class:`ResourceError`, since no exact test
    of it runs in bounded time here.
    """
    if not isinstance(n, int) or n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise ResourceError(
            f"cannot prove {n} prime: it passes Miller-Rabin to the first "
            f"{len(_MILLER_RABIN_BASES)} prime bases, which is proven exact "
            f"only below {_MILLER_RABIN_EXACT_BELOW}")
    return True


def valuation(x, p: int) -> int:
    """v_p(x) of a positive int or Fraction, by repeated division by p.

    Costs O(v_p) divisions however large the other prime factors are.
    """
    x = Fraction(x)
    if x <= 0 or p < 2:
        raise ValueError("valuations need a positive rational and p >= 2")
    out = 0
    for part, sign in ((x.numerator, 1), (x.denominator, -1)):
        while part % p == 0:
            part //= p
            out += sign
    return out


def fraction_valuations(x: Fraction) -> dict[int, int]:
    """Map p -> v_p(x) for a positive rational, zeros omitted."""
    if x <= 0:
        raise ValueError("valuations need a positive rational")
    vals = dict(prime_factorization(x.numerator))
    for p, e in prime_factorization(x.denominator).items():
        vals[p] = vals.get(p, 0) - e
    return {p: e for p, e in sorted(vals.items()) if e}


def power_product(factors) -> tuple[int, int]:
    """Integers (num, den) with num/den = prod base**exponent, unreduced.

    ``factors`` yields (base, exponent) pairs; each base is an int or a
    Fraction.  Its numerator and denominator are raised apart, swapped for
    a negative exponent, so no gcd is taken.  ``den`` is 0 when a zero base
    has a negative exponent, and may be negative for a negative base.
    """
    num = den = 1
    for base, exponent in factors:
        if exponent >= 0:
            num *= base.numerator ** exponent
            den *= base.denominator ** exponent
        else:
            num *= base.denominator ** -exponent
            den *= base.numerator ** -exponent
    return num, den


def reassembles(value, factors) -> bool:
    """Whether prod base**exponent over ``factors`` equals ``value`` exactly.

    One cross-multiplication of :func:`power_product`'s integers against
    the int or Fraction ``value``.
    """
    num, den = power_product(factors)
    return den != 0 and num * value.denominator == value.numerator * den
