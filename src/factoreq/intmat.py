"""Exact linear algebra over the integers.

Matrices are immutable tuples of row tuples.  Everything here is
fraction-free: Hermite normal forms, kernels and sublattice indices stay in
integers, determinants use Bareiss elimination (intermediate entries are
minors, so divisions are exact), and a rational matrix is cleared to
integers by its common denominator first.  No floats ever.

One elimination loop brings matrices to echelon form, and none of it
carries a transform.  A row operation subtracts a multiple of the pivot
row, which is zero left of its pivot, so it touches only the pivot row's
nonzero entries: on sparse rows a handful of cells, not the whole row.
:func:`row_span_basis` runs the loop with the entries above each pivot
reduced (the Hermite normal form).  :func:`kernel_basis` runs it
without that reduction on the matrix with its columns reversed: the columns
left without a pivot are the pivot columns of the kernel's Hermite normal
form, and back-substitution, through an index of the echelon's nonzeros by
column, gives one rational kernel vector for each.  When one of those
vectors is not integral, a single saturation step (one more Hermite normal
form, modulo the common denominator) picks the integral combinations.
One routine, ``_lattice_index``, gives every sublattice index, of sparse
rows in a lattice known by its sparse Hermite rows: for the index check, the
span check and :func:`sublattice_index`.  Sparse rows, tuples of (column,
nonzero entry) pairs in column order, are made by ``_sparse``, read by
``_dense`` and transposed by ``_sparse_transpose``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm, prod

from .errors import FactoreqError, ResourceError, ValidationError


def _rational(x) -> Fraction:
    """``x`` as a Fraction if it is an int or a Fraction; a float (0.1 is
    not 1/10 in binary), a bool or anything else raises."""
    if type(x) not in (int, Fraction):
        raise ValidationError(f"{x!r} is not an exact rational")
    return Fraction(x)


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
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _sparse(m) -> tuple:
    """The sparse rows of a dense matrix."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def _sparse_product(gen, rows) -> tuple:
    """The sparse rows of gen @ m, for gen and m given as sparse rows.

    A row of gen that is a single +1 picks a row of m unchanged.
    """
    out = []
    for grow in gen:
        if len(grow) == 1 and grow[0][1] == 1:
            out.append(rows[grow[0][0]])
            continue
        acc: dict = {}
        for k, a in grow:
            for j, b in rows[k]:
                acc[j] = acc.get(j, 0) + a * b
        row = [item for item in acc.items() if item[1]]
        row.sort()
        out.append(tuple(row))
    return tuple(out)


def _sparse_transpose(rows, width: int) -> tuple:
    """The sparse rows of m^T, for m given as sparse rows of ``width``."""
    out = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def _dense(rows, width: int) -> tuple:
    """The dense matrix of a sequence of sparse rows."""
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row:
            dense[j] = x
        out.append(tuple(dense))
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
    They are the rows of :func:`_kernel_rows`, written out densely.
    """
    return _dense(_kernel_rows(mat), len(mat[0]) if mat else 0)


def _kernel_rows(mat) -> tuple:
    """:func:`kernel_basis`, each row a sorted tuple of (column, nonzero entry).

    Column c is an HNF pivot of the kernel exactly when column c of ``mat``
    lies in the Q-span of the columns to its right.  So one echelon pass over
    ``mat`` with its columns reversed finds the kernel's pivot columns F:
    those that get no pivot.  For f in F, back-substitution with x_f = 1 and
    x = 0 on the rest of F gives the rational kernel vector v_f, supported
    on f and on pivot columns right of f.  The kernel is
    {sum t_f v_f : t in Z^F, integral}; if every v_f is integral the v_f are
    its HNF rows, else :func:`_saturate` picks the integral ones.  v_f is
    kept as y / d; pivots are met from the left, each row's sum over the
    entries set so far pending, added to by column and scaled with y.
    """
    n = len(mat[0]) if mat else 0
    if not n:
        return ()
    a = [list(reversed(row)) for row in mat]
    pivots = _echelon_in_place(a, reduce=False)
    # Row r's pivot column p in the original order (r is zero right of p)
    # and entry there; per column q, the rows nonzero at q < p, read in a.
    heads, below = [], [[] for _ in range(n)]
    for r, c in enumerate(pivots):
        row = a[r]
        heads.append((r, n - 1 - c, row[c]))
        for j in range(c + 1, n):
            if row[j]:
                below[n - 1 - j].append(r)
    free = sorted(set(range(n)) - {p for _, p, _ in heads})
    solutions = []             # (y, d): v_f = y / d, y sparse, y[f] == d
    for f in free:
        y, d = {f: 1}, 1
        pending = [0] * len(heads)
        for r in below[f]:
            pending[r] = a[r][n - 1 - f]
        for r, p, x in reversed(heads):
            s = pending[r]
            if not s:
                continue
            g = gcd(s, x)
            scale = x // g
            if scale != 1:
                y = {q: v * scale for q, v in y.items()}
                pending = [v * scale for v in pending]
                d *= scale
            v = y[p] = -s // g
            j = n - 1 - p
            for q in below[p]:
                pending[q] += v * a[q][j]
        solutions.append((y, d))
    den = lcm(*(d for _, d in solutions))
    if den == 1:
        return tuple(tuple(sorted(y.items())) for y, _ in solutions)
    return _saturate([{q: v * (den // d) for q, v in y.items()}
                      for y, d in solutions], den)


def _saturate(scaled, den):
    """HNF rows of {sum t_i w_i / den : t in Z^k, integral} for sparse w_i.

    With W the entries of the w_i on the columns where some w_i / den is not
    integral, the rows of [[W | I], [den*I | 0]] whose W part vanishes after
    one HNF are the HNF of the admissible t.  Each w_i / den is 1 on its own
    free column and 0 on the others, so mapping those t back gives the HNF
    of the kernel, as sorted (column, entry) tuples.
    """
    cols = sorted({q for w in scaled for q, v in w.items() if v % den})
    k = len(scaled)
    rows = [[w.get(q, 0) % den for q in cols] + [int(j == i) for j in range(k)]
            for i, w in enumerate(scaled)]
    rows += [[den if j == i else 0 for j in range(len(cols) + k)]
             for i in range(len(cols))]
    out = []
    for row in row_span_basis(rows):
        if any(row[:len(cols)]):
            continue
        acc: dict[int, int] = {}
        for ti, w in zip(row[len(cols):], scaled):
            if ti:
                for q, v in w.items():
                    acc[q] = acc.get(q, 0) + ti * v
        out.append(tuple((q, v // den) for q, v in sorted(acc.items()) if v))
    return tuple(out)


def _bareiss(m):
    """Fraction-free elimination of the square list of rows ``m``, in place.

    Yields (pivot, sign) for each column in turn: pivot k is the (k+1)-th
    leading principal minor of ``m`` after its row swaps, and sign is the
    parity of those swaps.  A pivot of 0 means that ``m`` is singular, and
    is the last one yielded.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                yield 0, sign
                return
        pivot = m[k][k]
        yield pivot, sign
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot


def bareiss_determinant(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    pivot = sign = 1
    for pivot, sign in _bareiss([list(r) for r in rows]):
        pass
    return sign * pivot


def is_positive_definite(rows) -> bool:
    """Sylvester test on a symmetric rational matrix, done in integers.

    Scales by the common denominator (positive, so minor signs survive) and
    reads the leading principal minors off the Bareiss pivots; a row swap
    means a zero leading minor.
    """
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    m = [[int(Fraction(x) * den) for x in row] for row in rows]
    return all(pivot > 0 and sign == 1 for pivot, sign in _bareiss(m))


def sublattice_index(basis, sub_basis) -> int:
    """Index of the lattice spanned by sub_basis's columns inside basis's.

    The lattice's columns are brought to Hermite normal form, read as sparse
    rows, and the sublattice's columns are measured against them by
    :func:`_lattice_index`.  Raises :class:`ValueError` unless the sublattice
    lies in the lattice with the same rank.  At rank 0 the index is 1.
    """
    if len(basis) != len(sub_basis):
        raise ValueError("lattice and sublattice have different ambient "
                         "dimensions")
    if index := _lattice_index(_sparse(row_span_basis(transpose(basis))),
                               _sparse(transpose(sub_basis))):
        return index
    raise ValueError("sublattice and lattice have different ranks")


def _on_pivots(row, lattice, pivot_of, tails) -> list:
    """``row`` with its coordinates in L's basis, solved leftmost pivot first,
    on L's pivot columns; a pivot that does not divide raises ValueError."""
    rest = {c: x for c, x in row if c in pivot_of}
    out = [e for e in row if e[0] not in pivot_of]
    heap = list(rest)           # in column order, so a heap
    while heap:
        if x := rest[c := heappop(heap)]:
            q, r = divmod(x, lattice[pivot_of[c]][0][1])
            if r:
                raise ValueError("sublattice is not contained in the lattice")
            out.append((c, q))
            for col, y in tails[pivot_of[c]]:
                if col not in rest:
                    heappush(heap, col)
                rest[col] = rest.get(col, 0) - q * y
    return out


def _lattice_index(lattice, rows) -> int:
    """[L : span(rows)] for L given by its sparse Hermite rows ``lattice``,
    and 0 when the span has lower rank; ``rows`` are sparse rows too.

    A row's coordinates in L's basis are its entries on L's pivot columns
    if each pivot is 1 and no row of L meets another's pivot column, as on
    a relation basis; else :func:`_on_pivots` writes them there.  The row
    lies in L iff one sum is 0 (else :class:`ValueError`): each other column
    is a slot, kept below half its range, and a pivot column weighs minus
    its row of L packed in the slots.  Then, column by column from the last,
    the shortest coordinate row with a +-1 there is set aside and cleared
    from the others, and a row alone in a column is set aside with its
    entry's size as a factor of the index.  Of the columns left over, the
    index takes the Hermite form's diagonal product, or 0 at short rank.
    """
    pivot_of = {row[0][0]: j for j, row in enumerate(lattice)}
    tails = [[e for e in row[1:] if e[0] in pivot_of] for row in lattice]
    if any(tails) or any(row[0][1] != 1 for row in lattice):
        rows = [_on_pivots(row, lattice, pivot_of, tails) for row in rows]
    columns = {c for row in chain(lattice, rows) for c, _ in row} - {*pivot_of}
    # slot c holds v_c - sum_j q_j L[j][c]: |.| <= max|entry| * (1 + mass)
    mass = sum(abs(x) for _, x in chain.from_iterable(lattice))
    width = 1 + (max((abs(x) for _, x in chain.from_iterable(rows)), default=0)
                 * (1 + mass)).bit_length()
    weight = {c: 1 << i * width for i, c in enumerate(columns)}
    for c, j in pivot_of.items():
        weight[c] = -sum(x * weight[col] for col, x in lattice[j]
                         if col in columns)
    coords, holders = {}, [set() for _ in lattice]  # column -> rows there
    for n, row in enumerate(rows):
        if sum(x * weight[c] for c, x in row):
            raise ValueError("sublattice is not contained in the lattice")
        coords[n] = {pivot_of[c]: x for c, x in row if c in pivot_of}
        for j in coords[n]:
            holders[j].add(n)
    leftover, index = [], 1
    for j in reversed(range(len(lattice))):
        live = [n for n in holders[j] if j in coords.get(n, ())]
        unit = min(((len(coords[n]), n) for n in live
                    if coords[n][j] in (1, -1)), default=None)
        if unit is None and len(live) == 1:
            index *= abs(coords.pop(live[0])[j])
            continue
        if unit is None:
            leftover.insert(0, j)
            continue
        prow = coords.pop(unit[1])
        for n in live:
            row = coords.get(n)
            if row is None:     # the pivot row
                continue
            if len(prow) == 1:  # a unit vector: clearing j drops it
                del row[j]
            else:
                q = row[j] * prow[j]
                for col, val in prow.items():
                    if x := row.get(col, 0) - q * val:
                        row[col] = x
                        holders[col].add(n)
                    else:
                        del row[col]
            if not row:
                del coords[n]
    if not leftover:
        return index
    hermite = row_span_basis([[row.get(j, 0) for j in leftover]
                              for row in coords.values()])
    if len(hermite) < len(leftover):
        return 0
    return index * prod(row[i] for i, row in enumerate(hermite))


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
    """v_p(x) of a positive int or Fraction, by :func:`_int_valuation` of
    its numerator and denominator; an int is read as it is, without a
    Fraction.
    """
    if type(x) is not int:
        x = Fraction(x)
    if x <= 0 or p < 2:
        raise ValueError("valuations need a positive rational and p >= 2")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def _int_valuation(n: int, p: int) -> int:
    """v_p(n) of a positive int: divide by p, p^2, p^4, ... while they
    divide, then by the same powers from the top down, as the bits of what
    is left.  O(log v_p) divisions, however large the other prime factors
    are."""
    powers, q = [], p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    out = (1 << len(powers)) - 1
    for bit in range(len(powers) - 1, -1, -1):
        if n % powers[bit] == 0:
            n //= powers[bit]
            out += 1 << bit
    return out


def split_valuations(x, primes) -> tuple[dict[int, int], Fraction]:
    """({p: v_p(x)} over ``primes``, zeros omitted, and the rest of x, prime
    to them all; by division alone, however large the rest's primes are."""
    rest, vals = Fraction(x), {}
    for p in primes:
        if v := valuation(rest, p):
            vals[p] = v
            rest /= Fraction(p) ** v
    return vals, rest


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
