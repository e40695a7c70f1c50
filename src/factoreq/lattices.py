"""Integral G-lattices, invariant pairings, and exact regulator constants.

A lattice is a free Z-module of finite rank with a G-action given by one
unimodular integer matrix per group generator.  Regulator constants are
evaluated exactly over Q:

    C_Theta(M) = prod_K det((1/|K|) <.,.> restricted to M^K)^{n_K}

for a relation Theta = sum n_K K, with any G-invariant positive-definite
pairing <.,.>; the value does not depend on that choice.

A lattice keeps its direct-sum decomposition as (atom, multiplicity)
pairs, and the default regulator constant is evaluated summand by summand:
C_Theta(M + N) = C_Theta(M) C_Theta(N), so C_Theta(M^m) = C_Theta(M)^m.
The five named atoms take closed forms (Dokchitser & Dokchitser,
*Regulator constants and the parity conjecture*, Invent. Math. 178, 2009):

    C_Theta(Z) = C_Theta(I) = prod_K |K|^{-n_K}
    C_Theta(A) = C_Theta(Z)^{-1}        (A = I*, and C(M*) = C(M)^{-1})
    C_Theta(Reg) = 1
    C_Theta(Z[G/H]) = prod_K (prod over double cosets KgH of
                               |K n gHg^-1|)^{-n_K}

The last holds because the K-orbit sums of G/H are an orthogonal basis of
the K-fixed part.  A closed form reads no matrix; before any other read,
each distinct atom runs its homomorphism check once, on sparse rows.  The
check covers unimodularity as well, so a named atom needs no determinant.

The Gram route remains for lattices with no kind (inflations,
restrictions and lattices built from matrices), for user-supplied
pairings and for index comparisons.  It evaluates the determinants above
under the integer averaged pairing sum_g rho(g)^T rho(g), or under a user
pairing cleared to an integer matrix by the lcm of its denominators; each
Gram determinant is an integer Bareiss determinant, divided once by its
scale.  Index comparisons need the fixed sublattices of the whole
lattices; a direct sum's is assembled block-diagonally from its atoms',
since (M + N)^H = M^H + N^H.  Each index is a ratio of Hermite pivots
(:func:`~factoreq.intmat.sublattice_index`).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .errors import FactoreqError, ValidationError
from .groups import Group, _greedy_generators
from .intmat import (
    bareiss_determinant,
    identity_matrix,
    is_positive_definite,
    kernel_basis,
    mat_mul,
    prime_factorization,
    reassembles,
    row_span_basis,
    sublattice_index,
    transpose,
    valuation,
)
from .relations import GRelation, _as_class


class GLattice:
    """A free Z-module with a G-action (columns map to their images).

    ``actions[i]`` is the matrix of the i-th group generator.  The matrices
    of all elements are built once, as sparse rows, breadth first along the
    generator words that enumerated the group; the same pass verifies
    rho(s)rho(x) = rho(sx) for every generator s and element x, which
    extends inductively to the full homomorphism law.  Since rho(1) is the
    identity, the pass also verifies rho(s)rho(s^-1) = 1: each generator
    has an integer inverse, so it is unimodular.  Each atom runs the pass
    just before its matrices are first read, never for a closed form; a
    named atom computes no determinant, and a lattice built from matrices
    is checked for unimodularity when built.

    ``summands`` lists the direct-sum decomposition as (atom, multiplicity)
    pairs, and ``_blocks`` the atom of each diagonal block in order; a
    lattice not built by :func:`direct_sum` is its own atom.  An atom built
    by one of the standard constructors records its kind, a (name, class
    index or None) pair, and takes its regulator constant from a closed form.
    """

    def __init__(self, group: Group, actions, label: str = ""):
        if len(actions) != len(group.generators):
            raise ValidationError(
                f"need one action matrix per generator "
                f"({len(group.generators)}), got {len(actions)}")
        mats = tuple(tuple(tuple(int(x) for x in row) for row in m)
                     for m in actions)
        rank = len(mats[0]) if mats else 0
        for m in mats:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValidationError("action matrices must be square and "
                                      "of equal size")
            if rank and abs(bareiss_determinant(m)) != 1:
                raise ValidationError("action matrices must be unimodular")
        self._setup(group, mats, rank, label or f"lattice(rank {rank})",
                    (self,))

    def _setup(self, group, mats, rank, label, blocks):
        self.group = group
        self.rank = rank
        self.actions = mats
        self.label = label
        self._blocks = blocks
        self.summands = tuple(Counter(blocks).items())
        self._kind = None
        self._rows = None
        self._materialized = None
        self._gram = None
        self._fixed: dict[int, tuple] = {}
        self._default_dets: dict[int, Fraction] = {}
        self._embeddings: dict[tuple, dict[int, int]] = {}

    def __repr__(self):
        return f"GLattice({self.label}, rank={self.rank}, {self.group.name})"

    def _verified_rows(self) -> tuple:
        """rho(x) for every element x as sparse rows, verified once.

        A row is a tuple of (column, value) pairs in column order, so equal
        rows are equal tuples.  A direct sum checks its atoms and shifts
        their rows into place.
        """
        if self._rows is None and self._blocks != (self,):
            ends = tuple(accumulate(a.rank for a in self._checked()._blocks))
            self._rows = tuple(tuple(
                tuple((j + end - atom.rank, v) for j, v in row)
                for atom, end in zip(self._blocks, ends)
                for row in atom._rows[x]) for x in range(self.group.order))
        if self._rows is None:
            grp = self.group
            gens = [_sparse(m) for m in self.actions]
            rows: list = [None] * grp.order
            rows[0] = tuple(((i, 1),) for i in range(self.rank))
            # each (generator s, element x) pair either defines rho(sx) or
            # is checked against it once
            queue = [0]
            for x in queue:
                for gen, g in zip(gens, grp.generators):
                    y = grp.mul[g][x]
                    prod = _sparse_product(gen, rows[x])
                    if rows[y] is None:
                        rows[y] = prod
                        queue.append(y)
                    elif prod != rows[y]:
                        raise ValidationError(
                            f"actions of {self.label} do not respect the "
                            f"multiplication table of {grp.name}")
            self._rows = tuple(rows)
        return self._rows

    def materialized(self) -> tuple:
        """One dense matrix per group element, verified to be a homomorphism."""
        if self._materialized is None:
            self._materialized = tuple(_dense(rows, self.rank)
                                       for rows in self._verified_rows())
        return self._materialized

    def _checked(self) -> "GLattice":
        """Run the homomorphism check on every distinct atom, once."""
        for atom, _ in self.summands:
            atom._verified_rows()
        return self


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


def _dense(rows, rank: int) -> tuple:
    """The dense matrix of a sequence of sparse rows."""
    out = []
    for row in rows:
        dense = [0] * rank
        for j, x in row:
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


@dataclass(frozen=True)
class Pairing:
    """A symmetric positive-definite rational form on a lattice's basis.

    Positive definite implies nondegenerate; definiteness also pins the
    regulator-constant value to the positive representative, which is the
    only one exposed here.  G-invariance is checked against a specific
    lattice when the pairing is used.
    """

    matrix: tuple

    def __init__(self, matrix):
        rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValidationError("pairing matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValidationError("pairing matrix must be symmetric")
        if n and not is_positive_definite(rows):
            raise ValidationError("pairing matrix must be positive definite")
        object.__setattr__(self, "matrix", rows)

    @property
    def rank(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class RegulatorValue:
    """An exact positive rational together with its prime factorization."""

    value: Fraction
    valuations: dict

    def __post_init__(self):
        if self.value <= 0:
            raise ValidationError("regulator constants are positive")
        if not reassembles(self.value, self.valuations.items()):
            raise ValidationError("valuations do not reassemble the value")

    def valuation(self, p: int) -> int:
        return self.valuations.get(p, 0)

    def __repr__(self):
        return f"RegulatorValue({self.value})"


# -- standard lattices --------------------------------------------------------


def _named_atom(group: Group, actions: tuple, label: str, kind) -> GLattice:
    """Build a named atom, whose matrices are checked on first read.

    The check compares rho(s)rho(s^-1) with rho(1) = 1, so every generator
    has an integer inverse and |det| = 1 without a determinant.
    """
    lat = GLattice.__new__(GLattice)
    lat._setup(group, actions, len(actions[0]) if actions else 0, label,
               (lat,))
    lat._kind = kind
    return lat


def trivial_lattice(group: Group) -> GLattice:
    """Z with every group element acting as the identity."""
    one = identity_matrix(1)
    return _named_atom(group, tuple(one for _ in group.generators), "Z",
                       ("Z", None))


def coset_lattice(group: Group, subgroup_class) -> GLattice:
    """Z[G/H]: permutation lattice on the left cosets of a representative."""
    cls = _as_class(group, subgroup_class)
    rep = sorted(cls.representative)
    cosets: list[frozenset] = []
    index: dict[frozenset, int] = {}
    for x in range(group.order):
        c = frozenset(group.mul[x][h] for h in rep)
        if c not in index:
            index[c] = len(cosets)
            cosets.append(c)
    rank = len(cosets)
    actions = []
    for g in group.generators:
        m = [[0] * rank for _ in range(rank)]
        for i, c in enumerate(cosets):
            image = frozenset(group.mul[g][x] for x in c)
            m[index[image]][i] = 1
        actions.append(tuple(tuple(row) for row in m))
    return _named_atom(group, tuple(actions), f"Coset({cls.label})",
                       ("Coset", cls.index))


def regular_lattice(group: Group) -> GLattice:
    """Z[G], i.e. the coset lattice of the trivial subgroup."""
    lat = coset_lattice(group, 0)
    lat.label = "Reg"
    lat._kind = ("Reg", None)
    return lat


def cyclic_quotient_lattice(group: Group) -> GLattice:
    """Z[G] modulo the sum-of-all-elements vector, basis {image of g != 1}.

    The identity's image is minus the sum of the other images, so an action
    column picks up a full column of -1 whenever a product lands on 1.
    """
    n = group.order
    rank = n - 1
    actions = []
    for g in group.generators:
        m = [[0] * rank for _ in range(rank)]
        for x in range(1, n):
            y = group.mul[g][x]
            if y == 0:
                for r in range(rank):
                    m[r][x - 1] = -1
            else:
                m[y - 1][x - 1] = 1
        actions.append(tuple(tuple(row) for row in m))
    return _named_atom(group, tuple(actions), "A", ("A", None))


def augmentation_lattice(group: Group) -> GLattice:
    """The kernel of Z[G] -> Z, g -> 1, with basis {g - 1 : g != 1}."""
    n = group.order
    rank = n - 1
    actions = []
    for g in group.generators:
        m = [[0] * rank for _ in range(rank)]
        for x in range(1, n):
            y = group.mul[g][x]
            # g*(x-1) = (gx-1) - (g-1); both terms vanish when they hit 1
            if y != 0:
                m[y - 1][x - 1] += 1
            if g != 0:
                m[g - 1][x - 1] -= 1
        actions.append(tuple(tuple(row) for row in m))
    return _named_atom(group, tuple(actions), "I", ("I", None))


def direct_sum(*parts: GLattice) -> GLattice:
    """Block-diagonal sum of lattices over the same group.

    The label nests to the left, ``Sum(Sum(a,b),c)``.  A block-diagonal
    determinant is the product of the block determinants, so no determinant
    runs again, and the homomorphism check runs atom by atom on first read.
    The summands of the parts are merged by atom.
    """
    if not parts:
        raise ValidationError("a direct sum needs at least one summand")
    group = parts[0].group
    if any(part.group is not group for part in parts):
        raise ValidationError("direct summands must share their group")
    if len(parts) == 1:
        return parts[0]
    total = sum(part.rank for part in parts)
    actions = []
    for gi in range(len(group.generators)):
        rows, offset = [], 0
        for part in parts:
            left = (0,) * offset
            right = (0,) * (total - offset - part.rank)
            rows.extend(left + row + right for row in part.actions[gi])
            offset += part.rank
        actions.append(tuple(rows))
    label = parts[0].label
    for part in parts[1:]:
        label = f"Sum({label},{part.label})"
    out = GLattice.__new__(GLattice)
    out._setup(group, tuple(actions), total, label,
               tuple(atom for part in parts for atom in part._blocks))
    return out


def tower_lattice(group: Group, m: int) -> GLattice:
    """The unit-lattice model A + I + Z + Reg^m, labelled ``Tower(m)``."""
    if not isinstance(m, int) or m < 0:
        raise ValidationError("the number of regular summands must be a "
                              "non-negative integer")
    base = (cyclic_quotient_lattice(group), augmentation_lattice(group),
            trivial_lattice(group))
    out = direct_sum(*base, *[regular_lattice(group)] * m)
    out.label = f"Tower({m})"
    return out


def _pulled_back(lat: GLattice, group: Group, images, label: str) -> GLattice:
    """``lat`` as a ``group``-lattice: element g acts as ``lat``'s
    element ``images[g]``."""
    rows = lat._verified_rows()
    actions = tuple(_dense(rows[images[g]], lat.rank) for g in group.generators)
    return GLattice(group, actions, label=label)


def inflate_lattice(group: Group, projection, lat: GLattice) -> GLattice:
    """Pull a quotient-group lattice back along G -> G/B.

    ``projection`` maps each element index of ``group`` to an element index
    of ``lat.group`` and must be the projection of a quotient construction.
    """
    proj = tuple(projection)
    if len(proj) != group.order:
        raise ValidationError("projection must cover every group element")
    return _pulled_back(lat, group, proj, f"Inf({lat.label})")


def restrict_lattice(lat: GLattice, sub: Group, embedding) -> GLattice:
    """View a G-lattice as a lattice over a subgroup.

    ``embedding[i]`` is the ambient index of ``sub``'s element i, as
    produced by ``subgroup_as_group``.
    """
    emb = tuple(embedding)
    if len(emb) != sub.order:
        raise ValidationError("embedding must cover every subgroup element")
    return _pulled_back(lat, sub, emb, f"Res({lat.label})")


# -- pairings and fixed sublattices -------------------------------------------


def _averaged_gram(lat: GLattice) -> tuple:
    """The integer matrix sum_g rho(g)^T rho(g), cached on the lattice.

    It is the sum of the outer products r^T r over the rows r of every
    rho(g); equal rows are counted and their outer product added once.
    """
    if lat._gram is None:
        total = [[0] * lat.rank for _ in range(lat.rank)]
        counts = Counter(row for rows in lat._verified_rows() for row in rows)
        for row, n in counts.items():
            for i, a in row:
                line = total[i]
                for j, b in row:
                    line[j] += n * a * b
        lat._gram = tuple(tuple(line) for line in total)
    return lat._gram


def averaged_pairing(lat: GLattice) -> Pairing:
    """The G-invariant form sum_g rho(g)^T rho(g); always positive definite."""
    return Pairing(_averaged_gram(lat))


def fixed_sublattice(lat: GLattice, subgroup_class):
    """Basis (as columns) of the sublattice fixed by a subgroup class.

    The kernel of the stacked maps rho(h) - id over a generating set of the
    class representative, taken atom by atom: a sum's basis is block-diagonal.
    Integer kernels are saturated, and the column form is the canonical one
    induced by the row normal form, for a sum too.
    """
    cls = _as_class(lat.group, subgroup_class)
    if cls.index not in lat._fixed and lat._blocks != (lat,):
        parts = [fixed_sublattice(a, cls) for a in lat._checked()._blocks]
        dims = [len(part[0]) if part else 0 for part in parts]
        lat._fixed[cls.index] = tuple(
            (0,) * sum(dims[:b]) + row + (0,) * sum(dims[b + 1:])
            for b, part in enumerate(parts) for row in part)
    if cls.index not in lat._fixed:
        gens = _greedy_generators(lat.group, cls.representative)
        if not gens:
            basis = identity_matrix(lat.rank)
        else:
            rows = lat._verified_rows()
            stacked = []
            for h in gens:
                for i, row in enumerate(_dense(rows[h], lat.rank)):
                    row = list(row)
                    row[i] -= 1
                    stacked.append(tuple(row))
            basis = kernel_basis(tuple(stacked))
        cols = transpose(basis) if basis else tuple(() for _ in range(lat.rank))
        lat._fixed[cls.index] = cols
    return lat._fixed[cls.index]


def _check_invariance(lat: GLattice, pairing: Pairing):
    if pairing.rank != lat.rank:
        raise ValidationError(
            f"pairing has rank {pairing.rank}, lattice has rank {lat.rank}")
    p = pairing.matrix
    for m in lat.actions:
        if mat_mul(mat_mul(transpose(m), p), m) != p:
            raise ValidationError("pairing is not invariant under the action")


def _scaled_gram_det(lat: GLattice, cls, form, den: int = 1) -> Fraction:
    """det of (1/|H|) <.,.> on a basis of the fixed sublattice of cls.

    The pairing is ``form / den`` for an integer matrix ``form``, so the
    Gram determinant stays in integers and is divided by (den |H|)^dim.
    """
    basis = fixed_sublattice(lat, cls)
    dim = len(basis[0]) if basis else 0
    gram = mat_mul(mat_mul(transpose(basis), form), basis)
    det = Fraction(bareiss_determinant(gram), (den * cls.order) ** dim)
    if det <= 0:
        raise FactoreqError(f"Gram determinant {det} on the {cls.label}-fixed "
                            f"sublattice of {lat.label} is not positive")
    return det


def _whole_constant(lat: GLattice, theta: GRelation) -> Fraction:
    """C_Theta of a lattice taken whole, under its averaged pairing.

    The pairing is a sum containing the identity term, hence positive
    definite by construction, so the Sylvester test is not repeated.
    """
    classes = lat.group.subgroup_classes()
    gram = _averaged_gram(lat)
    value = Fraction(1)
    for idx, n_h in theta.coefficients:
        if idx not in lat._default_dets:
            lat._default_dets[idx] = _scaled_gram_det(lat, classes[idx], gram)
        value *= lat._default_dets[idx] ** n_h
    return value


def _closed_constant(atom: GLattice, theta: GRelation) -> Fraction:
    """C_Theta of a named atom from its closed form.

    The factor of a class K is 1/|K| for Z and I, |K| for A, 1 for Reg, and
    for Z[G/H] the product of (K-orbit size)/|K| = 1/|K n xHx^-1| over the
    K-orbits on the cosets xH.  The value depends on the atom's kind and
    group alone, so no matrix is read and no homomorphism check runs.
    """
    group = atom.group
    classes = group.subgroup_classes()
    name, sub = atom._kind
    value = Fraction(1)
    for idx, n_k in theta.coefficients:
        k = classes[idx]
        if name == "Coset":
            factor = _coset_factor(group, k.representative,
                                   classes[sub].representative)
        elif name == "A":
            factor = Fraction(k.order)
        elif name == "Reg":
            factor = Fraction(1)
        else:  # Z and I
            factor = Fraction(1, k.order)
        value *= factor ** n_k
    return value


def _coset_factor(group: Group, k_members, h_members) -> Fraction:
    """prod over double cosets KxH of |KxH| / (|K| |H|)."""
    mul = group.mul
    seen: set = set()
    factor = Fraction(1)
    for x in range(group.order):
        if x not in seen:
            double = {mul[mul[k][x]][h] for k in k_members for h in h_members}
            seen |= double
            factor *= Fraction(len(double), len(k_members) * len(h_members))
    return factor


def regulator_constant(lat: GLattice, theta: GRelation,
                       pairing: Pairing | None = None) -> RegulatorValue:
    """Evaluate C_Theta on a lattice, exactly.

    With no pairing supplied the value is the product of the atoms'
    constants: a named atom takes its closed form, any other atom its
    averaged pairing (per-class determinants are cached on the atom).  A
    supplied pairing must be symmetric positive definite and invariant
    under the action, and is used on the whole lattice.  C_Theta is a
    p-adic unit for p not dividing |G|; any such prime factor raises.
    """
    if theta.group is not lat.group:
        raise ValidationError("relation and lattice live on different groups")
    value = Fraction(1)
    if pairing is None:
        for atom, k in lat.summands:
            route = _whole_constant if atom._kind is None else _closed_constant
            value *= route(atom, theta) ** k
    else:
        _check_invariance(lat._checked(), pairing)
        den = lcm(*(x.denominator for row in pairing.matrix for x in row))
        form = tuple(tuple(int(x * den) for x in row)
                     for row in pairing.matrix)
        classes = lat.group.subgroup_classes()
        for idx, n_h in theta.coefficients:
            value *= _scaled_gram_det(lat, classes[idx], form, den) ** n_h
    primes = prime_factorization(lat.group.order)
    valuations = {p: v for p in primes if (v := valuation(value, p))}
    if not reassembles(value, valuations.items()):
        raise FactoreqError(f"{value} has a prime factor not dividing |G|")
    return RegulatorValue(value, valuations)


def index_ratio_check(m_lat: GLattice, n_lat: GLattice, embed,
                      theta: GRelation):
    """Compare C_Theta(M)/C_Theta(N) with prod [N^H : iota(M^H)]^(2 n_H).

    ``embed`` is an injective equivariant integer matrix from M's basis to
    N's; M records each (N, embed) pair it has checked, with the index of
    each class found under it, so a relation basis checks the embedding and
    finds each class's index once.  Returns (equality holds, {class label:
    index}).
    """
    if m_lat.group is not n_lat.group:
        raise ValidationError("lattices live on different groups")
    if theta.group is not m_lat.group:
        raise ValidationError("relation lives on a different group")
    if m_lat.rank != n_lat.rank:
        raise ValidationError("embedding with finite index needs equal ranks")
    mat = tuple(tuple(int(x) for x in row) for row in embed)
    if len(mat) != n_lat.rank or any(len(row) != m_lat.rank for row in mat):
        raise ValidationError(
            f"embedding must be a {n_lat.rank} x {m_lat.rank} matrix")
    known = m_lat._embeddings.get((n_lat, mat))
    if known is None:
        if len(row_span_basis(mat)) < m_lat.rank:
            raise ValidationError("embedding must be injective")
        sparse = _sparse(mat)
        for ma, mb in zip(m_lat._checked().actions, n_lat._checked().actions):
            if (_sparse_product(_sparse(mb), sparse)
                    != _sparse_product(sparse, _sparse(ma))):
                raise ValidationError("embedding is not equivariant")
        known = m_lat._embeddings[(n_lat, mat)] = {}
    classes = m_lat.group.subgroup_classes()
    indices = {}
    rhs = Fraction(1)
    for idx, n_h in theta.coefficients:
        cls = classes[idx]
        index = known.get(idx)
        if index is None:
            image = mat_mul(mat, fixed_sublattice(m_lat, cls))
            index = known[idx] = sublattice_index(
                fixed_sublattice(n_lat, cls), image)
        indices[cls.label] = index
        rhs *= Fraction(index) ** (2 * n_h)
    # C_Theta does not depend on the pairing: named atoms take closed forms
    lhs = (regulator_constant(m_lat, theta).value
           / regulator_constant(n_lat, theta).value)
    return lhs == rhs, indices


def tower_target_constant(group: Group, m: int,
                          theta: GRelation) -> RegulatorValue:
    """C_Theta of the unit-lattice model A + I + Z + Reg^m.

    The cyclic-quotient and augmentation contributions cancel and the
    regular summands contribute nothing, so the result always equals
    C_Theta(Z) = prod |H|^(-n_H); that closed form is checked.
    """
    result = regulator_constant(tower_lattice(group, m), theta)
    classes = group.subgroup_classes()
    expected = Fraction(1)
    for idx, n_h in theta.coefficients:
        expected *= Fraction(classes[idx].order) ** (-n_h)
    if result.value != expected:
        raise FactoreqError(f"tower constant {result.value} must collapse to "
                            f"C(Z) = {expected}")
    return result
