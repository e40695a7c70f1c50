"""Integral G-lattices, invariant pairings, and exact regulator constants.

A lattice is a free Z-module of finite rank with a G-action given by one
unimodular integer matrix per group generator.  Regulator constants are
evaluated exactly over Q:

    C_Theta(M) = prod_K det((1/|K|) <.,.> restricted to M^K)^{n_K}

for a relation Theta = sum n_K K, with any G-invariant positive-definite
pairing <.,.>; the value does not depend on that choice.

A lattice keeps its direct-sum decomposition as (atom, multiplicity)
pairs, and C_Theta(M + N) = C_Theta(M) C_Theta(N).  So the default
constant is one integer product of per-class factors f(K)^{m n_K} over
the atoms, reduced once; each atom caches its factors.  The five named
atoms take closed forms (Dokchitser & Dokchitser, *Regulator constants
and the parity conjecture*, Invent. Math. 178, 2009):

    C_Theta(Z) = C_Theta(I) = prod_K |K|^{-n_K}
    C_Theta(A) = C_Theta(I)^{-1}
    C_Theta(Reg) = 1
    C_Theta(Z[G/H]) = prod_K (prod over double cosets KgH of
                               |K n gHg^-1|)^{-n_K}

The last holds because the K-orbit sums of G/H are an orthogonal basis of
the K-fixed part.  A = I* here, but C(A) = C(I)^{-1} is a fact about these
two atoms, checked against the Gram route in the tests, not a rule for
duals: Z[G/H] is self-dual, yet C_Theta(Z) = 1/2 for a relation of V4.
Named atoms and direct sums know their rank when built and build no matrix
until one is read, so a closed form builds none; before any other read,
each distinct atom runs its homomorphism check once, on sparse rows (A's
transposed).  The check covers unimodularity: a named atom needs no
determinant.

Any other atom takes its factors from Gram determinants under its integer
averaged pairing sum_g rho(g)^T rho(g); a user pairing is cleared to an
integer matrix by the lcm of its denominators.  Each Gram determinant is an
integer Bareiss determinant, divided once by its scale.

Fixed sublattices are kept as their canonical Hermite rows, sparse.  A
named atom reads its own off the H-orbits, once its homomorphism check has
passed; any other atom takes an integer kernel, and a direct sum shifts its
atoms' rows into place, (M + N)^H = M^H + N^H.  An index comparison takes
every relation for one embedding in one call, normalises and checks the
embedding once per call, maps the rows of M^H through the embedding's
sparse columns, and reads the index of that sparse image in N^H's rows, as
they are, by ``intmat._lattice_index``: only what +-1 pivots leave of the
image is brought to Hermite form.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod

from .errors import FactoreqError, ValidationError
from .groups import Group, _greedy_generators
from .intmat import (
    _dense,
    _kernel_rows,
    _lattice_index,
    _rational,
    _sparse,
    _sparse_product,
    _sparse_transpose,
    bareiss_determinant,
    is_positive_definite,
    mat_mul,
    power_product,
    prime_factorization,
    reassembles,
    row_span_basis,
    split_valuations,
    transpose,
)
from .relations import GRelation, _as_class


class GLattice:
    """A free Z-module with a G-action (columns map to their images).

    ``actions[i]`` is the matrix of the i-th group generator; a named atom
    or a direct sum builds it on first read.  The matrices of all elements
    are built once, as sparse rows, breadth first along the generator words
    that enumerated the group; the same pass verifies rho(s)rho(x) = rho(sx)
    for every generator s and element x, which extends inductively to the
    full homomorphism law.  Since rho(1) is the identity, the pass also
    verifies rho(s)rho(s^-1) = 1: each generator has an integer inverse, so
    it is unimodular.  Where the generators' columns hold more unit vectors
    than their rows, as A's do, the pass checks the same pairs transposed.
    Each atom runs the pass before its matrices are used, never for a closed
    form; a lattice built from matrices is also checked for unimodularity
    when built.

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
        mats = tuple(_integral(m, "action matrices") for m in actions)
        rank = len(mats[0]) if mats else 0
        for m in mats:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValidationError("action matrices must be square and "
                                      "of equal size")
            if rank and abs(bareiss_determinant(m)) != 1:
                raise ValidationError("action matrices must be unimodular")
        self._setup(group, rank, lambda: mats,
                    label or f"lattice(rank {rank})", (self,))

    def _setup(self, group, rank, build, label, blocks):
        self.group = group
        self.rank = rank
        self._build = build
        self.label = label
        self._blocks = blocks
        self.summands = tuple(Counter(blocks).items())
        self._kind = self._actions = self._rows = self._cosets = None
        self._materialized = self._gram = None
        self._fixed: dict[int, tuple] = {}
        self._factors: dict[int, Fraction] = {}

    @property
    def actions(self) -> tuple:
        """One dense matrix per generator, built on first read."""
        if self._actions is None:
            self._actions = self._build()
        return self._actions

    def __repr__(self):
        return f"GLattice({self.label}, rank={self.rank}, {self.group.name})"

    def _verified_rows(self) -> tuple:
        """rho(x) for every element x as sparse rows, verified once.

        A row is a tuple of (column, value) pairs in column order, so equal
        rows are equal tuples.  A product picks a row of its right factor
        for each unit row of its left one: so for A the check builds each
        rho(sx)^T = rho(x)^T rho(s)^T and transposes it back at the end.  A
        direct sum checks its atoms and shifts their rows into place.
        """
        if self._rows is None and self._blocks != (self,):
            self._rows = tuple(map(self._element_rows,
                                   range(self.group.order)))
        if self._rows is None:
            grp, rank = self.group, self.rank
            gens = [_sparse(m) for m in self.actions]
            cols = [_sparse_transpose(gen, rank) for gen in gens]
            flip = _units(cols) > _units(gens)  # the transposes, for A
            if flip:
                gens = cols
            rows: list = [None] * grp.order
            rows[0] = tuple(((i, 1),) for i in range(rank))
            # each (generator s, element x) pair either defines rho(sx) or
            # is checked against it once (or their transposes)
            queue = [0]
            for x in queue:
                for gen, g in zip(gens, grp.generators):
                    y = grp.mul[g][x]
                    prod = (_sparse_product(rows[x], gen) if flip
                            else _sparse_product(gen, rows[x]))
                    if rows[y] is None:
                        rows[y] = prod
                        queue.append(y)
                    elif prod != rows[y]:
                        raise ValidationError(
                            f"actions of {self.label} do not respect the "
                            f"multiplication table of {grp.name}")
            if flip:
                rows = [_sparse_transpose(m, rank) for m in rows]
            self._rows = tuple(rows)
        return self._rows

    def _element_rows(self, x: int) -> tuple:
        """rho(x) as verified sparse rows, without a sum's other elements."""
        if self._blocks == (self,):
            return self._verified_rows()[x]
        return _block_rows(self._checked()._blocks, lambda atom: atom._rows[x])

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


def _units(mats) -> int:
    """The number of sparse rows that are unit vectors, over ``mats``."""
    return sum(len(row) == 1 and row[0][1] == 1 for m in mats for row in m)


def _block_rows(atoms, part) -> tuple:
    """The sparse rows of the block-diagonal matrix with the blocks
    ``part(atom)`` for the ``atoms`` in order, each shifted into place."""
    out, shift = [], 0
    for atom in atoms:
        out.extend(tuple((j + shift, v) for j, v in row) for row in part(atom))
        shift += atom.rank
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
        rows = tuple(tuple(map(_rational, row)) for row in matrix)
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


def _named_atom(group: Group, rank: int, image, label: str,
                kind) -> GLattice:
    """A named atom of known rank, whose dense matrices are built on their
    first read: generator g sends basis vector i to the sum of v e_r over
    the pairs (r, v) of ``image(g, i)``.

    The check compares rho(s)rho(s^-1) with rho(1) = 1, so every generator
    has an integer inverse and |det| = 1 without a determinant.
    """
    def build():
        actions = []
        for g in group.generators:
            m = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for r, v in image(g, i):
                    m[r][i] += v
            actions.append(tuple(map(tuple, m)))
        return tuple(actions)

    lat = GLattice.__new__(GLattice)
    lat._setup(group, rank, build, label, (lat,))
    lat._kind = kind
    return lat


def trivial_lattice(group: Group) -> GLattice:
    """Z with every group element acting as the identity."""
    return _named_atom(group, 1, lambda g, i: ((0, 1),), "Z", ("Z", None))


def coset_lattice(group: Group, subgroup_class) -> GLattice:
    """Z[G/H]: permutation lattice on the left cosets xH of a
    representative, numbered in the order of their least elements."""
    cls = _as_class(group, subgroup_class)

    def image(g, i):
        number, least = _atom_cosets(lat)
        return ((number[group.mul[g][least[i]]], 1),)

    lat = _named_atom(group, group.order // cls.order, image,
                      f"Coset({cls.label})", ("Coset", cls.index))
    return lat


def _left_cosets(group: Group, members) -> tuple:
    """(the coset of each element, the least element of each coset) for the
    left cosets xK of ``members``, numbered in the order of their least
    elements."""
    number, least = [None] * group.order, []
    for x in range(group.order):
        if number[x] is None:
            for k in members:
                number[group.mul[x][k]] = len(least)
            least.append(x)
    return number, least


def _atom_cosets(atom: GLattice) -> tuple:
    """:func:`_left_cosets` of K, numbered once per named atom: K the class
    of Coset(K), the trivial subgroup for the others."""
    if atom._cosets is None:
        (name, sub), group = atom._kind, atom.group
        atom._cosets = _left_cosets(
            group, group.subgroup_classes()[sub].representative
            if name == "Coset" else (0,))
    return atom._cosets


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

    def image(g, i):
        y = group.mul[g][i + 1]
        return ((y - 1, 1),) if y else ((r, -1) for r in range(n - 1))

    return _named_atom(group, n - 1, image, "A", ("A", None))


def augmentation_lattice(group: Group) -> GLattice:
    """The kernel of Z[G] -> Z, g -> 1, with basis {g - 1 : g != 1}.

    g(x-1) = (gx-1) - (g-1); each term vanishes when it is 1 - 1.
    """
    def image(g, i):
        y = group.mul[g][i + 1]
        return ((y - 1, 1),) * (y != 0) + ((g - 1, -1),) * (g != 0)

    return _named_atom(group, group.order - 1, image, "I", ("I", None))


def direct_sum(*parts: GLattice) -> GLattice:
    """Block-diagonal sum of lattices over the same group.

    The label nests to the left, ``Sum(Sum(a,b),c)``.  The sum keeps its
    atoms in block order; its dense matrices are built on first read from
    the atoms' rows, shifted into place once each atom has passed its
    homomorphism check.  A block-diagonal determinant is the product of the
    block determinants, so no determinant runs again.
    """
    if not parts:
        raise ValidationError("a direct sum needs at least one summand")
    group = parts[0].group
    if any(part.group is not group for part in parts):
        raise ValidationError("direct summands must share their group")
    if len(parts) == 1:
        return parts[0]
    label = parts[0].label
    for part in parts[1:]:
        label = f"Sum({label},{part.label})"
    out = GLattice.__new__(GLattice)
    out._setup(group, sum(part.rank for part in parts), lambda: tuple(
        _dense(out._element_rows(g), out.rank) for g in group.generators),
        label, tuple(atom for part in parts for atom in part._blocks))
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
    return GLattice(group, tuple(_dense(lat._element_rows(images[g]), lat.rank)
                                 for g in group.generators), label=label)


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
    """Basis (as columns) of the sublattice fixed by a subgroup class: its
    canonical Hermite rows, as :func:`_fixed_rows` keeps them, transposed."""
    rows = _fixed_rows(lat, _as_class(lat.group, subgroup_class))
    return (transpose(_dense(rows, lat.rank)) if rows
            else tuple(() for _ in range(lat.rank)))


def _fixed_rows(lat: GLattice, cls) -> tuple:
    """The sparse Hermite rows of the sublattice fixed by the class ``cls``,
    cached on the lattice.

    A named atom reads them off the orbits of the class representative
    (:func:`_orbit_rows`) once its homomorphism check has passed; a sum
    shifts its atoms' into place, (M + N)^H = M^H + N^H, still Hermite.
    Any other lattice takes the saturated integer kernel of the stacked
    maps rho(h) - id over a generating set of the representative.
    """
    rows = lat._fixed.get(cls.index)
    if rows is None:
        if lat._blocks != (lat,):
            rows = _block_rows(lat._checked()._blocks,
                               lambda atom: _fixed_rows(atom, cls))
        elif lat._kind is not None:
            rows = _orbit_rows(lat._checked(), cls.representative)
        elif not (gens := _greedy_generators(lat.group, cls.representative)):
            rows = tuple(((i, 1),) for i in range(lat.rank))
        else:
            stacked = [list(row) for h in gens
                       for row in _dense(lat._verified_rows()[h], lat.rank)]
            for i, row in enumerate(stacked):  # rho(h) - id
                row[i % lat.rank] -= 1
            rows = _kernel_rows(stacked)
        lat._fixed[cls.index] = rows
    return rows


def _orbits(atom: GLattice, h_members) -> list:
    """The orbits of H = ``h_members`` on the left cosets xK of a named
    atom (:func:`_atom_cosets`), each a sorted list of coset numbers, in the
    order of their least numbers."""
    (number, least), mul = _atom_cosets(atom), atom.group.mul
    orbits, seen = [], set()
    for i, x in enumerate(least):
        if i not in seen:
            orbits.append(sorted({number[mul[h][x]] for h in h_members}))
            seen.update(orbits[-1])
    return orbits


def _orbit_rows(atom: GLattice, members) -> tuple:
    """The sparse Hermite rows of a named atom's H-fixed sublattice, H the
    subgroup of the elements ``members``, read off the H-orbits.

    Z[G/K]^H (Reg: K = 1) has the H-orbit sums on the cosets as basis,
    disjoint 0/1 rows.  A and I have the basis {g != 1}, g at index g - 1;
    Z[G]^H has the sums s_c over the right cosets c = Hx.  A^H =
    Z[G]^H / ZN, since Hom(H, Z) = 0: the s_c with c != H.  I^H is
    {sum a_c s_c : sum a_c = 0}, s_H reading u = ind(H - {1}): the rows
    ind(c) - u for c != H.  Those are Hermite unless u starts left of c*,
    the coset with the largest least element; then the rows are
    ind(c) - ind(c*) for c != c*, H, and u - ind(c*).
    """
    name = atom._kind[0]
    if name == "Z":
        return (((0, 1),),)
    orbits = _orbits(atom, members)

    def rows(pluses, minus=()):  # 1 on each plus's columns, -1 on minus's
        return tuple(tuple(sorted([(j, 1) for j in plus]
                                  + [(j, -1) for j in minus]))
                     for plus in pluses)

    if name in ("Coset", "Reg"):
        return rows(orbits)
    u, *cosets = ([x - 1 for x in orbit if x] for orbit in orbits)
    if name == "A":
        return rows(cosets)
    if not cosets or not u or u[0] > cosets[-1][0]:
        return rows(cosets, u)
    # lists with distinct first entries sort by their least elements
    return rows(sorted(cosets[:-1] + [u]), cosets[-1])


def _check_invariance(lat: GLattice, form):
    if len(form) != lat.rank:
        raise ValidationError(
            f"pairing has rank {len(form)}, lattice has rank {lat.rank}")
    for m in lat.actions:
        if mat_mul(mat_mul(transpose(m), form), m) != form:
            raise ValidationError("pairing is not invariant under the action")


def _scaled_gram_det(lat: GLattice, cls, form, den: int = 1) -> Fraction:
    """det of (1/|H|) <.,.> on a basis of the fixed sublattice of cls.

    The pairing is ``form / den`` for an integer matrix ``form``, so the
    Gram determinant stays in integers and is divided by (den |H|)^dim.
    """
    rows = _dense(_fixed_rows(lat, cls), lat.rank)
    gram = mat_mul(mat_mul(rows, form), transpose(rows))
    det = Fraction(bareiss_determinant(gram), (den * cls.order) ** len(rows))
    if det <= 0:
        raise FactoreqError(f"Gram determinant {det} on the {cls.label}-fixed "
                            f"sublattice of {lat.label} is not positive")
    return det


def _class_factor(atom: GLattice, idx: int) -> Fraction:
    """The factor of class K = ``idx`` in C_Theta(atom) = prod_K f(K)^{n_K}.

    It depends on the atom and the class alone, so it is cached on the
    atom.  A named atom's factor has a closed form: 1/|K| for Z and I, |K|
    for A, 1 for Reg, and for Z[G/H] the product of (K-orbit size)/|K| =
    1/|K n xHx^-1| over the K-orbits on the cosets xH; it reads no matrix
    and runs no check.  Any other atom's is the Gram determinant on its
    K-fixed part under its averaged pairing, a sum containing the identity
    term, hence positive definite without a Sylvester test.
    """
    factor = atom._factors.get(idx)
    if factor is None:
        classes = atom.group.subgroup_classes()
        k, name = classes[idx], (atom._kind or (None,))[0]
        if name is None:
            factor = _scaled_gram_det(atom, k, _averaged_gram(atom))
        elif name == "Coset":
            orbits = _orbits(atom, k.representative)
            factor = Fraction(prod(map(len, orbits)), k.order ** len(orbits))
        else:  # |K| for A, 1 for Reg, 1/|K| for Z and I
            factor = Fraction(k.order) ** {"A": 1, "Reg": 0}.get(name, -1)
        atom._factors[idx] = factor
    return factor


def regulator_constant(lat: GLattice, theta: GRelation,
                       pairing: Pairing | None = None) -> RegulatorValue:
    """Evaluate C_Theta on a lattice, exactly.

    With no pairing supplied the value is the product of the atoms'
    constants, one integer product of their cached class factors raised to
    multiplicity times coefficient, reduced once.  A supplied pairing must
    be symmetric positive definite and invariant under the action, and is
    used on the whole lattice.  C_Theta is a p-adic unit for p not dividing
    |G|; any such prime factor raises.
    """
    if theta.group is not lat.group:
        raise ValidationError("relation and lattice live on different groups")
    if pairing is None:
        factors = ((_class_factor(atom, idx), k * n_k)
                   for atom, k in lat.summands
                   for idx, n_k in theta.coefficients)
    else:
        den = lcm(*(x.denominator for row in pairing.matrix for x in row))
        form = tuple(tuple(int(x * den) for x in row)
                     for row in pairing.matrix)
        # checked on the integer form: clearing denominators keeps invariance
        _check_invariance(lat._checked(), form)
        classes = lat.group.subgroup_classes()
        factors = ((_scaled_gram_det(lat, classes[idx], form, den), n_h)
                   for idx, n_h in theta.coefficients)
    value = Fraction(*power_product(factors))
    valuations, rest = split_valuations(
        value, prime_factorization(lat.group.order))
    if rest != 1:
        raise FactoreqError(f"{value} has the factor {rest} of primes not "
                            f"dividing |G|")
    return RegulatorValue(value, valuations)


def _integral(mat, what: str) -> tuple:
    """``mat`` with int entries; an int or an integral Fraction is taken,
    any other entry (a float or a bool too) raises."""
    rows = tuple(tuple(row) for row in mat)
    if not ({int, Fraction}.issuperset(map(type, chain(*rows)))
            and (out := tuple(tuple(map(int, row)) for row in rows)) == rows):
        raise ValidationError(f"{what} must have integer entries")
    return out


def index_ratio_check(m_lat: GLattice, n_lat: GLattice, embed,
                      relations) -> tuple:
    """Compare C_Theta(M)/C_Theta(N) with prod [N^H : iota(M^H)]^(2 n_H)
    for each relation Theta in ``relations``.

    ``embed`` is an injective equivariant integer matrix from M's basis to
    N's.  Each call normalises and checks it once, even with no relations,
    and finds each class's index once, however many relations share the
    class.  Returns one (equality holds, {class label: index}) pair per
    relation, in order.
    """
    if m_lat.group is not n_lat.group:
        raise ValidationError("lattices live on different groups")
    relations = tuple(relations)
    if any(theta.group is not m_lat.group for theta in relations):
        raise ValidationError("relation lives on a different group")
    if m_lat.rank != n_lat.rank:
        raise ValidationError("embedding with finite index needs equal ranks")
    mat = _integral(embed, "an embedding")
    if len(mat) != n_lat.rank or any(len(row) != m_lat.rank for row in mat):
        raise ValidationError(
            f"embedding must be a {n_lat.rank} x {m_lat.rank} matrix")
    if len(row_span_basis(mat)) < m_lat.rank:
        raise ValidationError("embedding must be injective")
    sparse = _sparse(mat)
    for g in m_lat.group.generators:
        if (_sparse_product(n_lat._element_rows(g), sparse)
                != _sparse_product(sparse, m_lat._element_rows(g))):
            raise ValidationError("embedding is not equivariant")
    columns = _sparse_transpose(sparse, m_lat.rank)
    classes = m_lat.group.subgroup_classes()
    found, results = {}, []
    for theta in relations:
        indices, rhs = {}, []
        for idx, n_h in theta.coefficients:
            cls = classes[idx]
            if idx not in found:  # a row v of M^H maps to the row v E^T
                found[idx] = _lattice_index(
                    _fixed_rows(n_lat, cls),
                    _sparse_product(_fixed_rows(m_lat, cls), columns))
                if not found[idx]:
                    raise ValueError("sublattice and lattice have different "
                                     "ranks")
            indices[cls.label] = found[idx]
            rhs.append((found[idx], 2 * n_h))
        # C_Theta does not depend on the pairing: named atoms take closed forms
        lhs = (regulator_constant(m_lat, theta).value
               / regulator_constant(n_lat, theta).value)
        results.append((reassembles(lhs, rhs), indices))
    return tuple(results)


def tower_target_constant(group: Group, m: int,
                          theta: GRelation) -> RegulatorValue:
    """C_Theta of the unit-lattice model A + I + Z + Reg^m.

    The cyclic-quotient and augmentation contributions cancel and the
    regular summands contribute nothing, so the result always equals
    C_Theta(Z) = prod |H|^(-n_H); that closed form is checked.
    """
    result = regulator_constant(tower_lattice(group, m), theta)
    classes = group.subgroup_classes()
    expected = Fraction(*power_product(
        (classes[idx].order, -n_h) for idx, n_h in theta.coefficients))
    if result.value != expected:
        raise FactoreqError(f"tower constant {result.value} must collapse to "
                            f"C(Z) = {expected}")
    return result
