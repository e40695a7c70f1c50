"""Exact linear algebra: oracle checks and algebraic properties.

Determinants are checked against naive Laplace expansion, kernels against
brute-force enumeration over a small box, and normal forms against their
defining properties (canonical shape).  The transform-carrying Hermite
normal form and the two-HNF kernel it feeds live here as oracles: the
package computes both without any transform.  So does an elimination loop
that rebuilds each combined row whole, which the package's in-place sparse
row operations must follow step for step.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from factoreq import intmat, lattices, relations
from factoreq.cli import parse_group_spec, parse_lattice_expr
from factoreq.errors import FactoreqError, ResourceError
from factoreq.intmat import (
    bareiss_determinant,
    fraction_valuations,
    identity_matrix,
    is_positive_definite,
    is_prime,
    kernel_basis,
    mat_mul,
    prime_factorization,
    row_span_basis,
    sublattice_index,
    transpose,
    valuation,
)


def hermite_normal_form(rows):
    """Oracle: row HNF ``(H, U)`` of ``rows`` by elimination on ``[A | I]``.

    ``U`` is unimodular with ``U @ rows == H``; pivots are positive, entries
    above each pivot lie in ``[0, pivot)`` and zero rows come last.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [1 if i == j else 0 for j in range(m)]
         for i, row in enumerate(rows)]
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if a[i][c]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[piv] = a[piv], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return tuple(tuple(row[:n]) for row in a), tuple(tuple(row[n:]) for row in a)


def oracle_kernel_basis(mat):
    """Oracle: HNF of the null rows of the transform of HNF(mat^T)."""
    if not mat or not mat[0]:
        return identity_matrix(len(mat[0]) if mat else 0)
    h, u = hermite_normal_form(transpose(mat))
    null_rows = tuple(u[i] for i in range(len(h)) if not any(h[i]))
    basis, _ = hermite_normal_form(null_rows)
    return tuple(row for row in basis if any(row))


def oracle_echelon_in_place(a, reduce):
    """Oracle: the echelon loop that rebuilds each combined row whole.

    Same column sweep, pivot choice and sign rule as
    ``intmat._echelon_in_place``, so both leave the same matrix behind.
    """
    m = len(a)
    ncols = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
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
            if reduce:
                for i in range(r):
                    q = a[i][c] // a[r][c]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
    return pivots


def assert_echelon_matches_the_oracle(rows):
    """Same pivots and matrix as the oracle loop, with and without
    reduction; so the same span basis, and the same kernel (saturation
    included) as with the oracle patched in."""
    for reduce in (False, True):
        fast, slow = [list(row) for row in rows], [list(row) for row in rows]
        assert (intmat._echelon_in_place(fast, reduce), fast) == (
            oracle_echelon_in_place(slow, reduce), slow)
    assert row_span_basis(rows) == tuple(tuple(row) for row in slow
                                         if any(row))
    kernel = kernel_basis(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intmat, "_echelon_in_place", oracle_echelon_in_place)
        assert kernel_basis(rows) == kernel


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=4, max_cols=4, entries=small_entries):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n).map(tuple),
                min_size=m, max_size=m).map(tuple)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n).map(tuple),
                       min_size=n, max_size=n).map(tuple)))
def test_bareiss_matches_laplace(mat):
    assert bareiss_determinant(mat) == laplace_det(mat)


def test_mat_mul_rejects_mismatched_shapes():
    # checked, not asserted: under ``python -O`` the rows of b past the
    # width of a would be ignored silently
    with pytest.raises(FactoreqError, match="2 columns by one with 3 rows"):
        mat_mul(((1, 2),), ((1,), (2,), (3,)))
    assert mat_mul(((1, 2),), ((3,), (4,))) == ((11,),)


def test_det_edge_cases():
    assert bareiss_determinant(()) == 1
    assert bareiss_determinant(((7,),)) == 7
    assert bareiss_determinant(((0, 1), (1, 0))) == -1
    assert bareiss_determinant(identity_matrix(5)) == 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_is_unimodular_transform(mat):
    h, u = hermite_normal_form(mat)
    assert mat_mul(u, mat) == h
    assert abs(bareiss_determinant(u)) == 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_shape(mat):
    h = row_span_basis(mat)
    pivots = []
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        assert nz is not None, "only nonzero rows are returned"
        assert row[nz] > 0
        assert not pivots or nz > pivots[-1], "pivots move right"
        pivots.append(nz)
    for i, p in enumerate(pivots):
        for k in range(i):
            assert 0 <= h[k][p] < h[i][p], "entries above pivots reduced"


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_is_canonical_for_the_row_span(mat):
    # Shuffling rows or adding one row to another must not change the form.
    basis = row_span_basis(mat)
    twisted = list(mat)[::-1]
    if len(twisted) >= 2:
        twisted[0] = tuple(x + 3 * y for x, y in zip(twisted[0], twisted[1]))
    assert row_span_basis(tuple(twisted)) == basis


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6))
def test_row_span_basis_matches_transform_carrying_hnf(mat):
    # The transform-free path must give the rows the (H, U) path gives.
    h, _ = hermite_normal_form(mat)
    assert row_span_basis(mat) == tuple(row for row in h if any(row))


@st.composite
def echelon_inputs(draw):
    """Dense to sparse matrices with negative entries, zero rows and
    repeated rows, in any order."""
    n = draw(st.integers(1, 8))
    zeros = draw(st.sampled_from((0, 2, 8)))
    entries = st.sampled_from((0,) * zeros + tuple(range(-9, 10)))
    rows = draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=10))
    extra = draw(st.lists(st.just((0,) * n) | st.sampled_from(rows),
                          max_size=4))
    return tuple(draw(st.permutations(rows + extra)))


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_echelon_matches_the_whole_row_oracle(rows):
    assert_echelon_matches_the_oracle(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=3, max_cols=3, entries=st.integers(-3, 3)))
def test_kernel_annihilates_and_saturates(mat):
    kb = kernel_basis(mat)
    n = len(mat[0])
    for vec in kb:
        assert all(v == 0 for v in mat_vec_rows(mat, vec))
    # Brute force: every integer kernel vector in a small box lies in the
    # span of the basis over Z (saturation), via HNF membership.
    span = row_span_basis(kb) if kb else ()
    from itertools import product
    for cand in product(range(-2, 3), repeat=n):
        if any(cand) and all(v == 0 for v in mat_vec_rows(mat, cand)):
            joined = row_span_basis(span + (tuple(cand),))
            assert joined == span, f"{cand} not in integer span of kernel basis"


def mat_vec_rows(mat, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in mat]


def test_kernel_of_injective_map_is_trivial():
    assert kernel_basis(identity_matrix(3)) == ()


def test_kernel_of_zero_constraints_is_everything():
    assert kernel_basis(((0, 0, 0),)) == identity_matrix(3)


@settings(max_examples=300, deadline=None)
@given(matrices(max_rows=6, max_cols=8, entries=st.integers(-4, 4)))
def test_kernel_matches_the_two_hnf_oracle(mat):
    assert kernel_basis(mat) == oracle_kernel_basis(mat)


@pytest.mark.parametrize("mat, basis", [
    (((1, 2),), ((2, -1),)),     # back-substitution gives (1, -1/2)
    (((3, 2),), ((2, -3),)),     # back-substitution gives (1, -3/2)
    (((2, 4, 6),), ((1, 1, -1), (0, 3, -2))),
    (((1, 1, 1, 1), (0, 2, 4, 7)), ((1, 1, -4, 2), (0, 3, -5, 2))),
])
def test_kernel_saturates_fractional_back_substitution(mat, basis):
    assert kernel_basis(mat) == basis == oracle_kernel_basis(mat)


# The groups of the benchmark's span and regconst workloads, and the lattices
# of its regconst workload; (2^5) is checked structurally below.
CENSUS_GROUPS = (
    "elemab:2,4", "elemab:3,3", "elemab:5,2", "heisenberg:3", "heisenberg:5",
    "dihedral:8", "dihedral:16", "dihedral:32", "dihedral:64", "quaternion8",
    "product:dihedral:8;elemab:2,2", "product:quaternion8;cyclic:2",
    "product:cyclic:4;cyclic:4", "product:cyclic:9;cyclic:3", "cyclic:64",
    "cyclic:12", "dihedral:12", "dihedral:24", "elemab:2,2",
    "perm:[(0,1,2,3),(0,1)]", "perm:[(0,1,2,3,4),(0,1)]",
)
CENSUS_LATTICES = (
    ("dihedral:64", "A"), ("perm:[(0,1,2,3),(0,1)]", "Sum(A,Reg^2)"),
    ("elemab:2,2", "Z^100"), ("dihedral:32", "Sum(A,I,Z,Reg^2)"),
    ("elemab:2,4", "Sum(A,I,Reg^2)"), ("heisenberg:3", "Coset(o3#1)^8"),
    ("dihedral:16", "Reg^4"), ("heisenberg:3", "Sum(A,I)"),
)


# the p-groups among them, whose Bouc generators the span check eliminates
CENSUS_P_GROUPS = tuple(spec for spec in CENSUS_GROUPS if spec not in (
    "cyclic:12", "dihedral:12", "dihedral:24", "perm:[(0,1,2,3),(0,1)]",
    "perm:[(0,1,2,3,4),(0,1)]"))


@pytest.mark.parametrize("spec", CENSUS_P_GROUPS)
def test_echelon_of_bouc_generators_matches_the_oracle(spec):
    # the rows of the span check: in generation order (with repeats) and
    # sorted and distinct, as relation_span_basis feeds them
    group = parse_group_spec(spec)
    (p,) = prime_factorization(group.order)
    rows = [rel.as_vector() for rel in relations.bouc_generators(group, p)]
    assert_echelon_matches_the_oracle(tuple(rows))
    assert_echelon_matches_the_oracle(tuple(sorted(set(rows))))


@pytest.mark.parametrize("spec", CENSUS_GROUPS)
def test_relation_basis_matches_the_oracle(spec, monkeypatch):
    group = parse_group_spec(spec)
    basis = relations.relation_basis(group)
    monkeypatch.setattr(relations, "kernel_basis", oracle_kernel_basis)
    assert relations.relation_basis(group) == basis


@pytest.mark.parametrize("spec, expr", CENSUS_LATTICES)
def test_fixed_sublattices_match_the_oracle(spec, expr, monkeypatch):
    # on every atom, as the regulator constants use them; on the whole
    # lattice only where it is a single atom or the index-check lattice
    group = parse_group_spec(spec)
    classes = group.subgroup_classes()

    def fixed(lat):
        parts = [atom for atom, _ in lat.summands]
        if expr == "Sum(A,I)":
            parts.append(lat)
        return [[lattices.fixed_sublattice(part, cls) for cls in classes]
                for part in parts]

    fast = fixed(parse_lattice_expr(group, expr))
    monkeypatch.setattr(lattices, "kernel_basis", oracle_kernel_basis)
    assert fixed(parse_lattice_expr(group, expr)) == fast


def test_relation_basis_of_the_rank_five_elementary_abelian_2_group():
    # The oracle takes too long here; check the canonical structure instead.
    group = parse_group_spec("elemab:2,5")
    classes = group.subgroup_classes()
    basis = relations.relation_basis(group)
    cyclic = sum(1 for cls in classes if cls.is_cyclic)
    assert len(basis) == len(classes) - cyclic == 374 - 32   # Artin
    pivots = []
    for rel in basis:
        assert relations.is_relation(group, rel)
        idx, coeff = rel.coefficients[0]
        assert coeff == 1
        assert not pivots or idx > pivots[-1]
        pivots.append(idx)
    for rel in basis:
        assert all(rel.coefficient(p) == 0 for p in pivots
                   if p != rel.coefficients[0][0])


def test_positive_definite():
    assert is_positive_definite(((2, -1), (-1, 2)))
    assert not is_positive_definite(((1, 2), (2, 1)))
    assert not is_positive_definite(((0, 0), (0, 1)))
    assert is_positive_definite(((Fraction(1, 2), 0), (0, Fraction(1, 3))))
    assert not is_positive_definite(((-2,),))


def test_sublattice_index():
    assert sublattice_index(identity_matrix(2), ((2, 0), (0, 3))) == 6
    # k * Z^n inside Z^n has index k^n.
    assert sublattice_index(identity_matrix(3), tuple(tuple(2 * x for x in r) for r in identity_matrix(3))) == 8
    # columns (2,0,0), (0,3,0) and their images (4,0,0), (2,3,0)
    assert sublattice_index(((2, 0), (0, 3), (0, 0)),
                            ((4, 2), (0, 3), (0, 0))) == 2
    assert sublattice_index(((), ()), ((), ())) == 1       # rank 0


def test_sublattice_index_rejects_bad_sublattices():
    # e2 is not in the lattice, though both pivot products are 2
    with pytest.raises(ValueError, match="not contained"):
        sublattice_index(((1, 0), (0, 2)), ((2, 0), (0, 1)))
    # outside the Q-span
    with pytest.raises(ValueError, match="not contained"):
        sublattice_index(((1,), (1,)), ((1,), (2,)))
    with pytest.raises(ValueError, match="ranks"):
        sublattice_index(identity_matrix(2), ((2,), (0,)))
    with pytest.raises(ValueError, match="ranks"):
        sublattice_index(((1,), (0,)), identity_matrix(2))
    with pytest.raises(ValueError, match="dimensions"):
        sublattice_index(identity_matrix(2), identity_matrix(3))


def gram_det(columns):
    return bareiss_determinant(mat_mul(transpose(columns), columns))


@st.composite
def lattice_pairs(draw):
    """(basis, sub_basis): columns B of full rank r in Z^n and B X, det X != 0.

    The basis is scaled by a factor in 1..3, so Hermite pivots other than 1
    come up often."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    entries = st.integers(-4, 4)
    basis = tuple(tuple(draw(entries) for _ in range(r)) for _ in range(n))
    assume(gram_det(basis) != 0)
    scale = draw(st.integers(1, 3))
    basis = tuple(tuple(scale * x for x in row) for row in basis)
    change = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(r))
                   for _ in range(r))
    assume(bareiss_determinant(change) != 0)
    return basis, mat_mul(basis, change)


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
def test_sublattice_index_squared_is_the_gram_ratio(pair):
    basis, sub = pair
    index = sublattice_index(basis, sub)
    assert index > 0
    assert index ** 2 * gram_det(basis) == gram_det(sub)


def test_is_prime_matches_trial_division():
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == (n > 1 and all(n % d for d in
                                             range(2, isqrt(n) + 1))), n


def test_is_prime_on_strong_pseudoprimes_and_large_numbers():
    # strong pseudoprimes to base 2, to bases 2-7 and to bases 2-23
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(10000000000000061)
    assert not is_prime(3 * 10000000000000061)
    assert not is_prime(True) and not is_prime(7.0)


def test_is_prime_refuses_above_the_proven_bound(monkeypatch):
    # with base 2 alone, proven exact only below 2047, a number from 2047 on
    # that passes base 2 cannot be decided: the strong pseudoprime
    # 2047 = 23 * 89 and the prime 2053 are refused alike
    monkeypatch.setattr(intmat, "_MILLER_RABIN_BASES", (2,))
    monkeypatch.setattr(intmat, "_MILLER_RABIN_EXACT_BELOW", 2047)
    for n in (2047, 2053):
        with pytest.raises(ResourceError, match="proven exact only below"):
            is_prime(n)
    assert is_prime(2039)
    # a composite that base 2 rejects is decided at any size
    assert 2051 == 7 * 293 and is_prime(2051) is False


def test_prime_factorization_and_valuations():
    assert prime_factorization(1) == {}
    assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factorization(97) == {97: 1}
    assert fraction_valuations(Fraction(9, 8)) == {2: -3, 3: 2}
    assert fraction_valuations(Fraction(1)) == {}


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=Fraction(1, 400), max_value=400,
                    max_denominator=500).filter(lambda x: x > 0))
def test_valuations_reassemble_the_rational(x):
    prod = Fraction(1)
    for p, e in fraction_valuations(x).items():
        prod *= Fraction(p) ** e
    assert prod == x


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=Fraction(1, 400), max_value=400,
                    max_denominator=500).filter(lambda x: x > 0),
       st.sampled_from([2, 3, 5, 7, 401]))
def test_valuation_matches_the_factorization(x, p):
    assert valuation(x, p) == fraction_valuations(x).get(p, 0)


def test_valuation_by_division():
    big = 10000000000000061  # prime
    assert valuation(big, 2) == 0
    assert valuation(Fraction(2 ** 5 * big, 3 * big ** 2), 2) == 5
    assert valuation(Fraction(1, 9 * big), 3) == -2
    assert valuation(2 ** 300 * big, 2) == 300
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            valuation(bad, 2)
    with pytest.raises(ValueError):
        valuation(4, 1)


def test_transpose_roundtrip():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(m)) == m
    assert transpose(()) == ()
