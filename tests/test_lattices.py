"""Lattice engine tests.

The homomorphism check runs on sparse rows; the dense breadth-first loop
it replaced is kept here as its oracle (``dense_oracle``), which decides
acceptance of every census atom, sum, inflation and restriction and of
perturbed user lattices.  Named atoms take their regulator constants from
closed forms, so the generic route (an explicit averaged pairing, fixed
sublattices and Gram determinants) is their oracle on every census group.
The closed forms are also restated here straight from relation
coefficients (product of |H|^{n_H} for the cyclic-quotient lattice, its
inverse for the augmentation lattice, 1 for every coset lattice of a
cyclic class).  Fixed sublattices
are cross-checked against explicit orbit sums, and the embedding fixture
freezes hand-derived per-class indices (G : H).  The eager constructors
that named atoms used before their matrices were built on first read are
kept as the oracle of those matrices (``eager_actions``).
"""

import random
from fractions import Fraction

import pytest

from factoreq import cli, lattices
from factoreq.errors import FactoreqError, ValidationError
from factoreq.groups import (
    Group,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    heisenberg_group,
    make_subquotient,
    quaternion_group,
    quotient_group,
    subgroup_as_group,
)
from factoreq.intmat import (
    _dense,
    _sparse,
    bareiss_determinant,
    mat_mul,
    row_span_basis,
    sublattice_index,
    transpose,
)
from factoreq.lattices import (
    GLattice,
    Pairing,
    RegulatorValue,
    augmentation_lattice,
    averaged_pairing,
    coset_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    fixed_sublattice,
    index_ratio_check,
    inflate_lattice,
    regular_lattice,
    regulator_constant,
    restrict_lattice,
    tower_lattice,
    tower_target_constant,
    trivial_lattice,
)
from factoreq.relations import (
    GRelation,
    bouc_generators,
    induce_inflate,
    induce_relation,
    relation_basis,
)
from test_intmat import fraction_valuations, identity_matrix

GROUPS = {
    "V4": lambda: elementary_abelian_group(2, 2),
    "E9": lambda: elementary_abelian_group(3, 2),
    "S3": lambda: dihedral_group(6),
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
    "Heis3": lambda: heisenberg_group(3),
}

# the groups of the acceptance criteria that have relations
CENSUS = dict(GROUPS, E8=lambda: elementary_abelian_group(2, 3),
              D16=lambda: dihedral_group(16))


def closed_form(group, theta, sign=1):
    """prod |H|^{sign * n_H}, straight from the relation coefficients."""
    classes = group.subgroup_classes()
    value = Fraction(1)
    for idx, n_h in theta.coefficients:
        value *= Fraction(classes[idx].order) ** (sign * n_h)
    return value


def dense_oracle(group, actions):
    """The dense breadth-first homomorphism check, with the determinant
    check of user lattices in front: one matrix per element, or None if the
    actions are not unimodular or do not respect the multiplication table."""
    if any(abs(bareiss_determinant(m)) != 1 for m in actions if m):
        return None
    rank = len(actions[0]) if actions else 0
    mats = [None] * group.order
    mats[0] = identity_matrix(rank)
    queue = [0]
    for x in queue:
        for gi, g in enumerate(group.generators):
            y = group.mul[g][x]
            prod = mat_mul(actions[gi], mats[x])
            if mats[y] is None:
                mats[y] = prod
                queue.append(y)
            elif prod != mats[y]:
                return None
    return tuple(mats)


def random_unimodular(rank, rng):
    """(U, U^-1) from 2 * rank random elementary row operations."""
    u = [list(row) for row in identity_matrix(rank)]
    inv = [list(row) for row in identity_matrix(rank)]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- E U for E = 1 + c e_i e_j^T, and U^-1 <- U^-1 E^-1
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return (tuple(tuple(row) for row in u), tuple(tuple(row) for row in inv))


def seeded_pairing(lat, seed):
    """A second invariant form: average rho^T (U^T U) rho over the group,
    for a random unimodular U built from elementary row operations."""
    rng = random.Random(seed)
    rank = lat.rank
    u = [list(row) for row in identity_matrix(rank)]
    for _ in range(2 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    core = mat_mul(transpose(u), tuple(tuple(r) for r in u))
    total = [[0] * rank for _ in range(rank)]
    for m in lat.materialized():
        part = mat_mul(mat_mul(transpose(m), core), m)
        total = [[a + b for a, b in zip(ra, rb)]
                 for ra, rb in zip(total, part)]
    return Pairing(tuple(tuple(row) for row in total))


# -- construction and validation ----------------------------------------------


def test_trivial_lattice_shape():
    g = dihedral_group(8)
    lat = trivial_lattice(g)
    assert lat.rank == 1
    assert all(m == ((1,),) for m in lat.actions)
    assert averaged_pairing(lat).matrix == ((Fraction(8),),)


def test_regular_lattice_is_permutation():
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    assert lat.rank == 4
    for m in lat.materialized():
        assert sorted(sum(abs(x) for x in row) for row in m) == [1, 1, 1, 1]
    # permutation matrices are orthogonal, so the averaged form is |G| * id
    expected = tuple(tuple(Fraction(4) if i == j else Fraction(0)
                           for j in range(4)) for i in range(4))
    assert averaged_pairing(lat).matrix == expected


def test_cyclic_quotient_homomorphism_exhaustively():
    g = elementary_abelian_group(2, 2)
    lat = cyclic_quotient_lattice(g)
    assert lat.rank == 3
    mats = lat.materialized()
    for x in range(g.order):
        for y in range(g.order):
            assert mat_mul(mats[x], mats[y]) == mats[g.mul[x][y]]


def test_augmentation_of_c2_acts_by_minus_one():
    lat = augmentation_lattice(cyclic_group(2))
    assert lat.rank == 1
    assert lat.actions == (((-1,),),)


def test_actions_must_be_unimodular():
    g = cyclic_group(2)
    with pytest.raises(ValidationError):
        GLattice(g, (((2,),),))


def test_actions_must_respect_multiplication():
    g = cyclic_group(2)
    lat = GLattice(g, (((1, 1), (0, 1)),))  # infinite order: rho(g)^2 != id
    with pytest.raises(ValidationError):
        lat.materialized()
    # two generators of V4: the second has infinite order while the first
    # acts by -1, or both are involutions that do not commute
    v4 = elementary_abelian_group(2, 2)
    for actions in ((((-1, 0), (0, -1)), ((1, 1), (0, 1))),
                    (((0, 1), (1, 0)), ((-1, 0), (0, 1)))):
        with pytest.raises(ValidationError, match="multiplication table"):
            GLattice(v4, actions).materialized()
        with pytest.raises(ValidationError):
            regulator_constant(GLattice(v4, actions), relation_basis(v4)[0])


def test_materialization_does_not_need_closure_order():
    # C4 indexed as (1, g^2, g^3, g): element 1 is not g times an earlier one
    exponent = (0, 2, 3, 1)
    table = tuple(tuple(exponent.index((exponent[i] + exponent[j]) % 4)
                        for j in range(4)) for i in range(4))
    rot = ((0, -1), (1, 0))
    mats = GLattice(Group(table, (3,)), (rot,)).materialized()
    assert mats[3] == rot and mats[1] == mat_mul(rot, rot)
    assert mats[2] == mat_mul(rot, mats[1])


def test_direct_sum_blocks():
    g = elementary_abelian_group(2, 2)
    lat = direct_sum(trivial_lattice(g), augmentation_lattice(g))
    assert lat.rank == 4
    p = averaged_pairing(lat).matrix
    assert all(p[0][j] == 0 for j in range(1, 4))
    assert p[0][0] == Fraction(4)


def test_direct_sum_records_summands_without_determinants(monkeypatch):
    g = dihedral_group(8)
    a_lat, z_lat, reg = (cyclic_quotient_lattice(g), trivial_lattice(g),
                         regular_lattice(g))

    def no_determinant(rows):
        raise AssertionError("direct_sum must not re-check unimodularity")

    monkeypatch.setattr(lattices, "bareiss_determinant", no_determinant)
    inner = direct_sum(a_lat, reg)
    lat = direct_sum(inner, z_lat, reg, reg)
    assert lat.summands == ((a_lat, 1), (reg, 3), (z_lat, 1))
    assert lat.label == "Sum(Sum(Sum(Sum(A,Reg),Z),Reg),Reg)"
    assert lat.rank == 7 + 8 + 1 + 8 + 8
    assert direct_sum(z_lat) is z_lat
    assert z_lat.summands == ((z_lat, 1),)
    lat.materialized()  # the blocks assemble to a homomorphism


def test_direct_sum_blocks_match_nested_sums():
    g = heisenberg_group(3)
    parts = [cyclic_quotient_lattice(g), trivial_lattice(g),
             coset_lattice(g, 2)]
    nested = parts[0]
    for part in parts[1:]:
        nested = direct_sum(nested, part)
    flat = direct_sum(*parts)
    assert (flat.actions, flat.label, flat.rank) == (
        nested.actions, nested.label, nested.rank)
    with pytest.raises(ValidationError):
        direct_sum()
    with pytest.raises(ValidationError):
        direct_sum(trivial_lattice(g), trivial_lattice(cyclic_group(3)))


@pytest.mark.parametrize("name", ["V4", "S3", "Q8", "Heis3"])
def test_integer_pairing_equals_averaged_pairing(name):
    g = GROUPS[name]()
    for lat in (cyclic_quotient_lattice(g), augmentation_lattice(g),
                coset_lattice(g, 1),
                direct_sum(trivial_lattice(g), augmentation_lattice(g))):
        gram = lattices._averaged_gram(lat)
        assert all(type(x) is int for row in gram for x in row)
        assert gram == averaged_pairing(lat).matrix


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_summand_route_matches_generic_route(name):
    # the generic route is forced by passing the averaged pairing itself
    g = CENSUS[name]()
    rng = random.Random(f"summands:{name}")
    pool = [trivial_lattice(g), cyclic_quotient_lattice(g),
            augmentation_lattice(g)]
    if g.order <= 8:
        pool.append(regular_lattice(g))
    pool.extend(coset_lattice(g, cls) for cls in g.subgroup_classes()
                if 1 < cls.order < g.order)
    basis = relation_basis(g)
    for _ in range(4):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            part = rng.choice(pool)
            parts.extend([part] * rng.randrange(1, 3))
        lat = direct_sum(*parts)
        generic = averaged_pairing(lat)
        for theta in basis:
            fast = regulator_constant(lat, theta)
            assert fast == regulator_constant(lat, theta, generic), (
                name, lat.label)


def named_atoms(g):
    """Z, I, A, Reg and the coset lattice of every class, 1 and G included."""
    return ([trivial_lattice(g), augmentation_lattice(g),
             cyclic_quotient_lattice(g), regular_lattice(g)]
            + [coset_lattice(g, cls) for cls in g.subgroup_classes()])


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_closed_forms_match_the_gram_route(name):
    g = CENSUS[name]()
    basis = relation_basis(g)
    for atom in named_atoms(g):
        assert atom._kind is not None
        pairing = averaged_pairing(atom)
        for theta in basis:
            assert (regulator_constant(atom, theta)
                    == regulator_constant(atom, theta, pairing)), (
                name, atom.label, theta.describe())


def test_named_atoms_need_no_determinant_or_kernel(monkeypatch):
    g = heisenberg_group(3)
    lat = direct_sum(*named_atoms(g))

    def forbidden(*args):
        raise AssertionError("a named atom took the Gram route")

    monkeypatch.setattr(lattices, "bareiss_determinant", forbidden)
    monkeypatch.setattr(lattices, "_kernel_rows", forbidden)
    for theta in relation_basis(g):
        assert regulator_constant(lat, theta).value > 0
    # a closed form reads no matrix, so no atom (nor the sum) built its rows
    assert all(atom._rows is None for atom, _ in lat.summands)
    assert lat._rows is None


def test_named_constructors_need_no_determinant_or_product(monkeypatch):
    # every named constructor passes the homomorphism check, which runs on
    # the first read of its matrices
    def forbidden(*args):
        raise AssertionError("a named constructor ran a dense check")

    monkeypatch.setattr(lattices, "bareiss_determinant", forbidden)
    monkeypatch.setattr(lattices, "mat_mul", forbidden)
    for name in sorted(CENSUS):
        g = CENSUS[name]()
        for atom in named_atoms(g):
            assert atom._rows is None, (name, atom.label)
            assert len(atom.materialized()) == g.order
            assert atom._rows is not None, (name, atom.label)


def eager_actions(g, kind):
    """The generator matrices of a named atom as the constructors built
    them eagerly before the build moved to first read: the oracle."""
    name, sub = kind
    n = g.order
    out = []
    for s in g.generators:
        if name == "Z":
            m = [[1]]
        elif name in ("Coset", "Reg"):
            rep = sorted(g.subgroup_classes()[sub or 0].representative)
            cosets = []
            for x in range(n):
                c = frozenset(g.mul[x][h] for h in rep)
                if c not in cosets:
                    cosets.append(c)
            m = [[0] * len(cosets) for _ in cosets]
            for i, c in enumerate(cosets):
                m[cosets.index(frozenset(g.mul[s][x] for x in c))][i] = 1
        else:
            m = [[0] * (n - 1) for _ in range(n - 1)]
            for x in range(1, n):
                y = g.mul[s][x]
                if name == "A" and y == 0:
                    for r in range(n - 1):
                        m[r][x - 1] = -1
                elif name == "A":
                    m[y - 1][x - 1] = 1
                else:  # I: s(x-1) = (sx-1) - (s-1)
                    if y != 0:
                        m[y - 1][x - 1] += 1
                    if s != 0:
                        m[s - 1][x - 1] -= 1
        out.append(tuple(map(tuple, m)))
    return tuple(out)


def block_diagonal(*parts):
    """Per generator, the block-diagonal matrix of the parts' matrices."""
    total = sum(len(mats[0]) for mats in parts)
    out = []
    for gi in range(len(parts[0])):
        rows, offset = [], 0
        for mats in parts:
            size = len(mats[gi])
            rows.extend((0,) * offset + row + (0,) * (total - offset - size)
                        for row in mats[gi])
            offset += size
        out.append(tuple(rows))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_actions_read_late_equal_the_eager_build(name):
    g = CENSUS[name]()
    atoms = named_atoms(g)
    for atom in atoms:
        assert atom._actions is None, atom.label
        assert atom.actions == eager_actions(g, atom._kind), (name, atom.label)
    z, i, a, reg = (trivial_lattice(g), augmentation_lattice(g),
                    cyclic_quotient_lattice(g), regular_lattice(g))
    lat = direct_sum(direct_sum(a, i), z, direct_sum(reg, reg))
    assert lat.rank == 2 * (g.order - 1) + 1 + 2 * g.order
    assert lat._actions is None and a._actions is None
    assert lat.actions == block_diagonal(*(eager_actions(g, atom._kind)
                                           for atom in (a, i, z, reg, reg)))


def test_regconst_builds_no_matrix(monkeypatch, capsys):
    # every sum the expression builds is recorded, with its atoms; a closed
    # form reads no matrix, so none of them builds one
    sums = []
    build = cli.direct_sum
    monkeypatch.setattr(cli, "direct_sum",
                        lambda *parts: sums.append(build(*parts)) or sums[-1])
    assert cli.run(["regconst", "dihedral:16",
                    "Sum(A,I,Z,Reg^2,Coset(o4#1))^2"]) == 0
    assert "regulator constants" in capsys.readouterr().out
    atoms = {atom for lat in sums for atom in lat._blocks}
    assert len(sums) == 3
    assert {atom.label for atom in atoms} == {"A", "I", "Z", "Reg",
                                              "Coset(o4#1)"}
    for lat in sums + list(atoms):
        assert lat._actions is None and lat._rows is None, lat.label


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_cached_factors_match_the_gram_route_class_by_class(name):
    # A class factor depends on the pairing; only products over relations
    # do not.  The averaged pairing of a permutation lattice is |G| times
    # the one whose orbit-sum bases give the closed forms, so Z, Reg and
    # every Coset match a kind-less copy's Gram determinants class by class
    # once that scale is divided out.  I and A match over every relation.
    g = CENSUS[name]()
    for atom in named_atoms(g):
        kindless = GLattice(g, atom.actions)
        gram = lattices._averaged_gram(kindless)
        factors = {}
        for cls in g.subgroup_classes():
            factor = factors[cls.index] = lattices._class_factor(
                atom, cls.index)
            assert atom._factors[cls.index] == factor
            if atom.label not in ("I", "A"):
                assert factor == lattices._scaled_gram_det(
                    kindless, cls, gram, g.order), (name, atom.label, cls)
        for theta in relation_basis(g):
            closed = gram_route = Fraction(1)
            for idx, n_k in theta.coefficients:
                closed *= factors[idx] ** n_k
                gram_route *= lattices._class_factor(kindless, idx) ** n_k
            assert closed == gram_route, (name, atom.label, theta.describe())


def named_atom(group, actions, label, kind):
    """An atom on the named build path with the given generator matrices."""
    def image(g, i):
        m = actions[group.generators.index(g)]
        return [(r, row[i]) for r, row in enumerate(m) if row[i]]

    return lattices._named_atom(group, len(actions[0]), image, label, kind)


def bad_atoms():
    """Named atoms with actions that are no homomorphism, and a relation on
    each group: C2 acting by 2 (rho(s) rho(s^-1) = 4 is not rho(1) = 1,
    which is how the sparse check covers unimodularity), and two
    involutions of V4 that do not commute."""
    c2, v4 = cyclic_group(2), elementary_abelian_group(2, 2)
    return [(named_atom(c2, (((2,),),), "Z", ("Z", None)),
             GRelation(c2, ())),
            (named_atom(v4, (((0, 1), (1, 0)), ((-1, 0), (0, 1))),
                        "A", ("A", None)), relation_basis(v4)[0])]


def test_named_build_path_rejects_bad_actions_on_first_use():
    for build, theta in bad_atoms():
        g, rank = build.group, build.rank
        top = g.subgroup_classes()[-1]
        uses = (lambda lat: lat.materialized(),
                lambda lat: fixed_sublattice(lat, top),
                lambda lat: index_ratio_check(lat, lat, identity_matrix(rank),
                                              [theta]))
        for use in uses:
            lat = named_atom(g, build.actions, build.label, build._kind)
            with pytest.raises(ValidationError, match="multiplication table"):
                use(lat)


def test_sum_with_a_bad_atom_is_rejected_before_any_index():
    for bad, theta in bad_atoms():
        g = bad.group
        for lat in (direct_sum(trivial_lattice(g), bad),
                    direct_sum(bad, regular_lattice(g))):
            embed = identity_matrix(lat.rank)
            with pytest.raises(ValidationError, match="multiplication table"):
                index_ratio_check(lat, lat, embed, [theta])


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_fixed_sublattices_of_sums_match_the_whole_kernel(name):
    # the oracle: a copy of the sum as one atom, whose fixed sublattices
    # are kernels on the sum's own verified rows
    g = CENSUS[name]()
    mid = next(c for c in g.subgroup_classes() if 1 < c.order < g.order)
    reg = regular_lattice(g)
    lat = direct_sum(cyclic_quotient_lattice(g), reg, trivial_lattice(g),
                     augmentation_lattice(g), coset_lattice(g, mid), reg)
    whole = GLattice(g, lat.actions)
    kernel = lattices._kernel_rows
    for cls in g.subgroup_classes():
        computed = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lattices, "_kernel_rows",
                      lambda mat: computed.append(mat) or kernel(mat))
            fast = fixed_sublattice(lat, cls)
        # named atoms read their fixed parts off orbits: no kernel at all;
        # the sum's own rows are never built
        assert computed == []
        assert lat._rows is None
        # the same basis, so the same row span: the block-diagonal basis is
        # in the canonical form as well
        assert fast == fixed_sublattice(whole, cls), (name, cls.label)


def oracle_cases(g):
    """Every named atom, two sums, an inflation and a restriction."""
    atoms = named_atoms(g)
    cases = atoms + [direct_sum(*atoms[:3]), direct_sum(atoms[1], atoms[3])]
    normal = next(c for c in g.subgroup_classes()
                  if c.is_normal and c.order > 1)
    quotient, projection = quotient_group(g, normal.representative)
    cases.append(inflate_lattice(g, projection,
                                 cyclic_quotient_lattice(quotient)))
    proper = next(c for c in g.subgroup_classes() if 1 < c.order < g.order)
    sub, emb = subgroup_as_group(g, proper.representative)
    cases.append(restrict_lattice(augmentation_lattice(g), sub, emb))
    return cases


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_sparse_check_matches_the_dense_oracle(name):
    # A's columns are unit vectors but one, so of the named atoms A alone
    # is checked on its transposed side; every lattice's verified rows must
    # be the canonical sparse rows of the oracle's matrices, since sums and
    # the averaged Gram compare and count rows as tuples
    g = CENSUS[name]()
    for lat in oracle_cases(g):
        mats = dense_oracle(lat.group, lat.actions)
        assert lat.materialized() == mats, (name, lat.label)
        assert lat._verified_rows() == tuple(map(_sparse, mats)), (
            name, lat.label)
        if lat._kind is not None:
            rows = [_sparse(m) for m in lat.actions]
            cols = [_sparse(transpose(m)) for m in lat.actions]
            assert ((lattices._units(cols) > lattices._units(rows))
                    == (lat.label == "A")), (name, lat.label)


@pytest.mark.parametrize("name", ["S3", "D8", "D16"])
def test_corrupted_actions_are_refused_on_either_side(name, monkeypatch):
    # A is checked on its transposed side and I on its rows; with the
    # generators' matrices swapped or one entry changed by 1, each refuses
    # exactly when the dense oracle does, with the same message
    g = CENSUS[name]()
    rng = random.Random(f"corrupted:{name}")
    for build, flipped in ((cyclic_quotient_lattice, True),
                           (augmentation_lattice, False)):
        good = build(g)
        widths, flip = [], lattices._sparse_transpose
        with monkeypatch.context() as m:
            m.setattr(lattices, "_sparse_transpose",
                      lambda rows, w: widths.append(w) or flip(rows, w))
            good.materialized()
        # the generators' columns are counted; on the transposed side each
        # rho(x)^T is transposed back
        assert len(widths) == len(g.generators) + g.order * flipped
        variants = [good.actions[::-1]]
        for _ in range(6):
            gi = rng.randrange(len(good.actions))
            i, j = rng.randrange(good.rank), rng.randrange(good.rank)
            changed = [list(map(list, m)) for m in good.actions]
            changed[gi][i][j] += rng.choice((-1, 1))
            variants.append(tuple(tuple(map(tuple, m)) for m in changed))
        refused = []
        for actions in variants:
            rows = [_sparse(m) for m in actions]
            cols = [_sparse(transpose(m)) for m in actions]
            assert (lattices._units(cols) > lattices._units(rows)) == flipped
            atom = named_atom(g, actions, good.label, good._kind)
            try:
                mats = atom.materialized()
            except ValidationError as exc:
                assert str(exc) == (f"actions of {good.label} do not respect "
                                    f"the multiplication table of {g.name}")
                mats = None
            assert mats == dense_oracle(g, actions), (good.label, actions)
            refused.append(mats is None)
        # the swap is no homomorphism: the generators' orders differ
        assert refused[0] and any(refused[1:]), good.label


def sparse_decision(group, actions):
    """The package's verdict on user actions: matrices, or None."""
    try:
        return GLattice(group, actions).materialized()
    except ValidationError:
        return None


@pytest.mark.parametrize("name", ["V4", "S3", "D8", "Q8"])
def test_perturbed_user_lattices_follow_the_dense_oracle(name):
    g = GROUPS[name]()
    rng = random.Random(f"perturbed:{name}")
    unimodular = set()
    for atom in (cyclic_quotient_lattice(g), augmentation_lattice(g),
                 coset_lattice(g, 1)):
        for _ in range(3):
            u, inv = random_unimodular(atom.rank, rng)
            assert mat_mul(u, inv) == identity_matrix(atom.rank)
            conj = tuple(mat_mul(mat_mul(u, m), inv) for m in atom.actions)
            assert sparse_decision(g, conj) == dense_oracle(g, conj)
            assert dense_oracle(g, conj) is not None
            for base in (conj, atom.actions):
                gi = rng.randrange(len(base))
                i, j = rng.randrange(atom.rank), rng.randrange(atom.rank)
                changed = [list(map(list, m)) for m in base]
                changed[gi][i][j] += rng.choice((-1, 1))
                changed = tuple(tuple(map(tuple, m)) for m in changed)
                assert (sparse_decision(g, changed)
                        == dense_oracle(g, changed)), (atom.label, gi)
                unimodular.add(abs(bareiss_determinant(changed[gi])) == 1)
    # changes caught by the determinant at construction and changes caught
    # by the homomorphism check on first use both occur
    assert unimodular == {True, False}


def test_lattices_without_a_kind_take_the_gram_route(monkeypatch):
    g = dihedral_group(8)
    sq = make_subquotient(g, frozenset(range(g.order)), g.center())
    inflated = inflate_lattice(g, sq.projection,
                               cyclic_quotient_lattice(sq.quotient))
    v4_class = next(c for c in g.subgroup_classes()
                    if c.order == 4 and not c.is_cyclic)
    sub, emb = subgroup_as_group(g, v4_class.representative)
    restricted = restrict_lattice(regular_lattice(g), sub, emb)
    user = GLattice(g, regular_lattice(g).actions)
    seen = []
    gram_det = lattices._scaled_gram_det

    def recording(lat, *args):
        seen.append(lat)
        return gram_det(lat, *args)

    monkeypatch.setattr(lattices, "_scaled_gram_det", recording)
    for lat in (inflated, restricted, user):
        assert lat._kind is None
        for theta in relation_basis(lat.group):
            regulator_constant(lat, theta)
        assert seen and seen[-1] is lat
    seen.clear()
    regulator_constant(regular_lattice(g), relation_basis(g)[0])
    assert seen == []


def test_pairing_validation():
    with pytest.raises(ValidationError):
        Pairing(((1, 2), (3, 1)))  # not symmetric
    with pytest.raises(ValidationError):
        Pairing(((1, 0), (0, -1)))  # indefinite
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    diag = tuple(tuple(i + 1 if i == j else 0 for j in range(4))
                 for i in range(4))
    theta = relation_basis(g)[0]
    with pytest.raises(ValidationError):
        regulator_constant(lat, theta, Pairing(diag))
    # invariance is checked on the form with its denominators cleared
    thirds = tuple(tuple(Fraction(x, 3) for x in row) for row in diag)
    with pytest.raises(ValidationError, match="not invariant"):
        regulator_constant(lat, theta, Pairing(thirds))
    with pytest.raises(ValidationError, match="pairing has rank 1"):
        regulator_constant(lat, theta, Pairing([[1]]))


# -- fixed sublattices ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_orbit_closed_forms_match_the_kernel_route(name, monkeypatch):
    # the oracle: a plain copy of each named atom, whose fixed sublattices
    # are kernels on its verified rows
    g = CENSUS[name]()
    classes = g.subgroup_classes()
    atoms = named_atoms(g)
    kernel = lattices._kernel_rows

    def forbidden(*args):
        raise AssertionError("a named atom took a kernel")

    monkeypatch.setattr(lattices, "_kernel_rows", forbidden)
    fast = [[fixed_sublattice(atom, cls) for cls in classes]
            for atom in atoms]
    monkeypatch.setattr(lattices, "_kernel_rows", kernel)
    for atom, got in zip(atoms, fast):
        plain = GLattice(g, atom.actions)
        assert got == [fixed_sublattice(plain, cls) for cls in classes], (
            name, atom.label)


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_augmentation_closed_form_on_every_member(name):
    # I^H is spanned by ind(c) - u over the right cosets c = Hx != H, u the
    # indicator of H - {1}, in the basis g - 1 at index g - 1
    g = CENSUS[name]()
    aug = augmentation_lattice(g)

    def row(plus, minus):
        return tuple(1 if x in plus else -1 if x in minus else 0
                     for x in range(1, g.order))

    for cls in g.subgroup_classes():
        for h in cls.members:
            cosets = {frozenset(g.mul[y][x] for y in h)
                      for x in range(g.order)} - {frozenset(h)}
            u = set(h) - {0}
            assert lattices._orbit_rows(aug, h) == _sparse(row_span_basis(
                [row(c, u) for c in cosets])), (name, cls.label, sorted(h))


def test_fixed_sublattice_of_trivial_subgroup():
    g = dihedral_group(8)
    lat = cyclic_quotient_lattice(g)
    assert fixed_sublattice(lat, 0) == identity_matrix(7)


def test_fixed_sublattice_regular_orbit_sums():
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    cls = g.subgroup_classes()[1]
    h = sorted(cls.representative)
    basis = fixed_sublattice(lat, cls)
    assert len(basis[0]) == 2  # (G : H) orbit sums
    # oracle: indicator vectors of the cosets of H
    cosets, seen = [], set()
    for x in range(4):
        if x not in seen:
            coset = {g.mul[x][y] for y in h}
            cosets.append(tuple(1 if i in coset else 0 for i in range(4)))
            seen |= set(coset)
    assert row_span_basis(transpose(basis)) == row_span_basis(tuple(cosets))


def test_fixed_sublattice_can_vanish():
    g = elementary_abelian_group(2, 2)
    lat = cyclic_quotient_lattice(g)
    top = g.subgroup_classes()[-1]
    assert top.order == 4
    basis = fixed_sublattice(lat, top)
    assert len(basis) == 3 and all(len(row) == 0 for row in basis)


def test_fixed_sublattice_dimension_counts_cosets():
    g = dihedral_group(8)
    lat = regular_lattice(g)
    for cls in g.subgroup_classes():
        basis = fixed_sublattice(lat, cls)
        assert len(basis[0]) == g.order // cls.order


# -- regulator constants -------------------------------------------------------


def test_spot_values():
    v4 = elementary_abelian_group(2, 2)
    theta = relation_basis(v4)[0]
    assert regulator_constant(trivial_lattice(v4), theta).value == Fraction(1, 2)
    assert regulator_constant(regular_lattice(v4), theta).value == 1
    e9 = elementary_abelian_group(3, 2)
    t9 = relation_basis(e9)[0]
    assert regulator_constant(cyclic_quotient_lattice(e9), t9).value == 9
    val = regulator_constant(trivial_lattice(e9), t9)
    assert val.value == Fraction(1, 9) and val.valuations == {3: -2}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_closed_forms_all_basis_relations(name):
    g = GROUPS[name]()
    a_lat = cyclic_quotient_lattice(g)
    i_lat = augmentation_lattice(g)
    z_lat = trivial_lattice(g)
    for theta in relation_basis(g):
        c_a = regulator_constant(a_lat, theta).value
        c_i = regulator_constant(i_lat, theta).value
        c_z = regulator_constant(z_lat, theta).value
        assert c_a == closed_form(g, theta, sign=1)
        assert c_i == closed_form(g, theta, sign=-1)
        assert c_z == closed_form(g, theta, sign=-1)
        assert c_a * c_i == 1


@pytest.mark.parametrize("name", ["V4", "S3", "D8", "Q8"])
def test_cyclic_coset_lattices_have_constant_one(name):
    g = GROUPS[name]()
    cyclic_classes = [c for c in g.subgroup_classes() if c.is_cyclic]
    for theta in relation_basis(g):
        for cls in cyclic_classes:
            lat = coset_lattice(g, cls)
            assert regulator_constant(lat, theta).value == 1


def test_regular_lattice_constant_one_everywhere():
    for name in ("V4", "E9", "D8", "Q8"):
        g = GROUPS[name]()
        lat = regular_lattice(g)
        for theta in relation_basis(g):
            assert regulator_constant(lat, theta).value == 1


def test_multiplicativity_in_the_lattice():
    g = dihedral_group(8)
    theta = relation_basis(g)[0]
    a_lat = cyclic_quotient_lattice(g)
    z_lat = trivial_lattice(g)
    both = direct_sum(a_lat, z_lat)
    assert (regulator_constant(both, theta).value
            == regulator_constant(a_lat, theta).value
            * regulator_constant(z_lat, theta).value)


def test_multiplicativity_in_the_relation():
    g = dihedral_group(8)
    t1, t2 = relation_basis(g)[:2]
    lat = cyclic_quotient_lattice(g)
    assert (regulator_constant(lat, t1.plus(t2)).value
            == regulator_constant(lat, t1).value
            * regulator_constant(lat, t2).value)


@pytest.mark.parametrize("name", ["V4", "E9", "D8"])
def test_pairing_independence(name):
    g = GROUPS[name]()
    theta = relation_basis(g)[0]
    for lat in (cyclic_quotient_lattice(g), augmentation_lattice(g)):
        default = regulator_constant(lat, theta).value
        for seed in (1, 2):
            other = seeded_pairing(lat, seed)
            assert regulator_constant(lat, theta, other).value == default


@pytest.mark.parametrize("name", ["V4", "S3", "D8"])
def test_fractional_pairing_matches_the_default_route(name):
    # an invariant pairing divided by 7 has fractional entries, which the
    # pairing route clears to integers before its determinants
    g = GROUPS[name]()
    for lat in (cyclic_quotient_lattice(g), augmentation_lattice(g)):
        pairing = Pairing(tuple(tuple(x / 7 for x in row)
                                for row in seeded_pairing(lat, 3).matrix))
        assert any(x.denominator == 7 for row in pairing.matrix for x in row)
        for theta in relation_basis(g):
            assert (regulator_constant(lat, theta, pairing).value
                    == regulator_constant(lat, theta).value)


def test_relations_naming_no_class_are_refused_when_built():
    # -1 would read as o4#0 (C(Z) = 1/4, and a false index check); 99 would
    # raise a bare IndexError
    v4 = elementary_abelian_group(2, 2)
    z = trivial_lattice(v4)
    for coefficients in (((-1, 1),), ((99, 1),), ((0, 1), (4, -1), (5, 1))):
        with pytest.raises(ValidationError, match="no subgroup class with "
                                                  "index"):
            regulator_constant(z, GRelation(v4, coefficients))
        with pytest.raises(ValidationError, match="no subgroup class with "
                                                  "index"):
            index_ratio_check(z, z, ((3,),), [GRelation(v4, coefficients)])


def test_mismatched_relation_group_rejected():
    v4 = elementary_abelian_group(2, 2)
    e9 = elementary_abelian_group(3, 2)
    with pytest.raises(ValidationError):
        regulator_constant(trivial_lattice(v4), relation_basis(e9)[0])


def test_p_divisibility_outside_the_group_order():
    # normal subgroup with cyclic quotient exists for both groups; no prime
    # outside |B| may appear in any valuation of the standard lattices
    for g, banned in ((dihedral_group(8), (3, 5, 7)),
                      (heisenberg_group(3), (2, 5, 7))):
        for theta in relation_basis(g):
            for lat in (cyclic_quotient_lattice(g), augmentation_lattice(g),
                        trivial_lattice(g)):
                vals = regulator_constant(lat, theta).valuations
                assert all(p not in vals for p in banned)


# -- functoriality -------------------------------------------------------------


def test_inflation_compatibility():
    g = dihedral_group(8)
    center = g.center()
    sq = make_subquotient(g, frozenset(range(g.order)), center)
    q = sq.quotient
    for build in (cyclic_quotient_lattice, augmentation_lattice,
                  lambda grp: coset_lattice(grp, 1)):
        small = build(q)
        lifted = inflate_lattice(g, sq.projection, small)
        for theta in relation_basis(q):
            inflated = induce_inflate(g, sq, theta)
            assert (regulator_constant(lifted, inflated).value
                    == regulator_constant(small, theta).value)


def test_restriction_compatibility():
    g = dihedral_group(8)
    v4_class = next(c for c in g.subgroup_classes()
                    if c.order == 4 and not c.is_cyclic)
    sub, emb = subgroup_as_group(g, v4_class.representative)
    for build in (regular_lattice, cyclic_quotient_lattice):
        big = build(g)
        small = restrict_lattice(big, sub, emb)
        for theta in relation_basis(sub):
            induced = induce_relation(g, emb, theta)
            assert (regulator_constant(big, induced).value
                    == regulator_constant(small, theta).value)


# -- index ratios --------------------------------------------------------------


def nat_embed(n):
    """(g-1) -> gbar - ebar inside the cyclic quotient: 2 on the diagonal,
    1 everywhere else (ebar is minus the sum of the basis)."""
    return tuple(tuple(2 if r == c else 1 for c in range(n - 1))
                 for r in range(n - 1))


def test_index_ratio_identity_embedding():
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    [(ok, indices)] = index_ratio_check(lat, lat, identity_matrix(4),
                                        relation_basis(g)[:1])
    assert ok and set(indices.values()) == {1}


def test_index_ratio_scaled_identity():
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    two = tuple(tuple(2 * x for x in row) for row in identity_matrix(4))
    [(ok, indices)] = index_ratio_check(lat, lat, two, relation_basis(g)[:1])
    assert ok
    assert indices == {"o1#0": 16, "o2#0": 4, "o2#1": 4, "o2#2": 4, "o4#0": 2}


def test_index_ratio_augmentation_inside_cyclic_quotient():
    # frozen oracle: the index of iota(I^H) inside A^H is (G : H)
    g = elementary_abelian_group(2, 2)
    [(ok, indices)] = index_ratio_check(
        augmentation_lattice(g), cyclic_quotient_lattice(g),
        nat_embed(4), relation_basis(g)[:1])
    assert ok
    assert indices == {"o1#0": 4, "o2#0": 2, "o2#1": 2, "o2#2": 2, "o4#0": 1}
    d8 = dihedral_group(8)
    for ok, indices in index_ratio_check(
            augmentation_lattice(d8), cyclic_quotient_lattice(d8),
            nat_embed(8), relation_basis(d8)):
        assert ok
        classes = d8.subgroup_classes()
        for label, index in indices.items():
            cls = next(c for c in classes if c.label == label)
            assert index == d8.order // cls.order


def test_index_ratio_checks_each_embedding_once(monkeypatch):
    d8 = dihedral_group(8)
    m_lat, n_lat = augmentation_lattice(d8), cyclic_quotient_lattice(d8)
    embed = nat_embed(8)
    seen = []
    span = lattices.row_span_basis

    def counting(rows):
        seen.append(rows)
        return span(rows)

    monkeypatch.setattr(lattices, "row_span_basis", counting)
    basis = relation_basis(d8)
    assert len(basis) > 1
    assert all(ok for ok, _ in index_ratio_check(m_lat, n_lat, embed, basis))
    assert sum(rows == embed for rows in seen) == 1
    # nothing is recorded: a second call checks the embedding again
    index_ratio_check(m_lat, n_lat, embed, basis[:1])
    assert sum(rows == embed for rows in seen) == 2
    # a rejected embedding fails on every call
    for _ in range(2):
        with pytest.raises(ValidationError, match="not equivariant"):
            index_ratio_check(m_lat, n_lat, identity_matrix(7), basis)


def i_z_to_reg(n):
    """I + Z -> Reg, x + m -> x + m N with N the sum of all elements:
    column x - 1 is e_x - e_1 for each element x != 1, the last column N."""
    return tuple(tuple(1 if c == n - 1 or c + 1 == r else
                       -1 if r == 0 and c < n - 1 else 0
                       for c in range(n)) for r in range(n))


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_non_scalar_embeddings_on_the_census(name):
    # I -> A, (g-1) -> gbar - ebar, has index (G : H) on every H-fixed part,
    # as on V4 and D8 above; I + Z -> Reg, x + n -> x + n N with N the sum of
    # all elements, maps a sum into an atom, so its indices must agree with
    # those of the same map from a one-atom copy of the sum
    g = CENSUS[name]()
    classes = {c.label: c for c in g.subgroup_classes()}
    n = g.order
    i_lat, a_lat, reg = (augmentation_lattice(g), cyclic_quotient_lattice(g),
                         regular_lattice(g))
    i_z = direct_sum(i_lat, trivial_lattice(g))
    to_reg = i_z_to_reg(n)
    assert abs(bareiss_determinant(to_reg)) == n
    whole = GLattice(g, i_z.actions)
    basis = relation_basis(g)
    for ok, indices in index_ratio_check(i_lat, a_lat, nat_embed(n), basis):
        assert ok and all(index == n // classes[label].order
                          for label, index in indices.items()), name
    got = index_ratio_check(i_z, reg, to_reg, basis)
    for theta, (ok, _) in zip(basis, got):
        assert ok, (name, theta.describe())
    assert got == index_ratio_check(whole, reg, to_reg, basis)


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_index_ratio_matches_the_dense_oracle_on_the_census(name):
    # the oracle: each index from sublattice_index on the fixed sublattices'
    # columns, M^H mapped by a dense product, and each verdict from the
    # regulator constants, for I + Z -> Reg and for 2 I -> I
    g = CENSUS[name]()
    classes = g.subgroup_classes()
    i_lat = augmentation_lattice(g)
    two = tuple(tuple(2 * x for x in row)
                for row in identity_matrix(i_lat.rank))
    basis = relation_basis(g)
    for m_lat, n_lat, embed in (
            (direct_sum(i_lat, trivial_lattice(g)), regular_lattice(g),
             i_z_to_reg(g.order)),
            (i_lat, i_lat, two)):
        want = []
        for theta in basis:
            indices = {classes[idx].label: sublattice_index(
                fixed_sublattice(n_lat, idx),
                mat_mul(embed, fixed_sublattice(m_lat, idx)))
                for idx, _ in theta.coefficients}
            ratio = (regulator_constant(m_lat, theta).value
                     / regulator_constant(n_lat, theta).value)
            rhs = Fraction(1)
            for idx, n_h in theta.coefficients:
                rhs *= Fraction(indices[classes[idx].label]) ** (2 * n_h)
            want.append((ratio == rhs, indices))
        assert index_ratio_check(m_lat, n_lat, embed, basis) == tuple(want)
        assert all(ok for ok, _ in want), (name, m_lat.label)


@pytest.mark.parametrize("name", ["V4", "S3", "D8", "Heis3"])
def test_index_ratio_takes_any_form_of_an_embedding_once(name, monkeypatch):
    # lists, tuples and integral Fractions of one embedding give the answers
    # of the tuple over the whole basis, and one Hermite form (injectivity)
    # per call, on a scalar and on the I + Z -> Reg embedding
    g = GROUPS[name]()
    n = g.order
    scalar = tuple(tuple(3 * x for x in row) for row in identity_matrix(n))
    cases = [(lambda: (regular_lattice(g),) * 2, scalar),
             (lambda: (direct_sum(augmentation_lattice(g),
                                  trivial_lattice(g)), regular_lattice(g)),
              i_z_to_reg(n))]
    basis = relation_basis(g)
    for make, embed in cases:
        want = index_ratio_check(*make(), embed, basis)
        assert len(want) == len(basis) and all(ok for ok, _ in want)
        forms = ([list(row) for row in embed], embed,
                 tuple(tuple(Fraction(x) for x in row) for row in embed))
        spans = []
        span = lattices.row_span_basis
        with monkeypatch.context() as m:
            m.setattr(lattices, "row_span_basis",
                      lambda rows: spans.append(rows) or span(rows))
            m_lat, n_lat = make()
            for form in forms * 2:
                assert index_ratio_check(m_lat, n_lat, form, basis) == want
        assert spans == [embed] * 6, name


def test_non_integral_embedding_entries_are_refused():
    v4 = elementary_abelian_group(2, 2)
    theta = relation_basis(v4)[0]
    z = trivial_lattice(v4)
    # an integral embedding checked first does not let an unequal one in
    assert index_ratio_check(z, z, ((2,),), [theta]) == ((
        True, {label: 2 for label in ("o1#0", "o2#0", "o2#1", "o2#2",
                                      "o4#0")}),)
    for bad in (((Fraction(5, 2),),), ((2.5,),), [[Fraction(5, 2)]],
                ((2.0,),)):
        with pytest.raises(ValidationError, match="integer entries"):
            index_ratio_check(z, z, bad, [theta])
    [(_, indices)] = index_ratio_check(z, z, ((Fraction(2),),), [theta])
    assert indices["o1#0"] == 2
    with pytest.raises(ValidationError, match="integer entries"):
        GLattice(v4, (((1.5,),), ((1,),)))


def test_floats_and_bools_are_not_exact_numbers():
    # 1.0 == True == 1, so an equality test alone lets both through
    c2 = cyclic_group(2)
    for bad in ([[[1.0]]], [[[True]]]):
        with pytest.raises(ValidationError, match="integer entries"):
            GLattice(c2, bad)
    assert GLattice(c2, [[[Fraction(-1)]]]).actions == (((-1,),),)
    for bad in ([[0.1]], [["x"]], [[True]]):
        with pytest.raises(ValidationError, match="not an exact rational"):
            Pairing(bad)
    assert Pairing([[Fraction(1, 10)]]).matrix == ((Fraction(1, 10),),)
    v4 = elementary_abelian_group(2, 2)
    z = trivial_lattice(v4)
    with pytest.raises(ValidationError, match="integer entries"):
        index_ratio_check(z, z, [[True]], relation_basis(v4))


def test_index_checks_do_not_depend_on_call_history():
    # an equal embedding checked before does not let a float or a bool in
    v4 = elementary_abelian_group(2, 2)
    z = trivial_lattice(v4)
    basis = relation_basis(v4)
    for good, bad in ((((1,),), ((True,),)), (((2,),), ((2.0,),))):
        assert all(ok for ok, _ in index_ratio_check(z, z, good, basis))
        with pytest.raises(ValidationError, match="integer entries"):
            index_ratio_check(z, z, bad, basis)
    # with no relation the embedding is still checked
    d8 = dihedral_group(8)
    i_lat, a_lat = augmentation_lattice(d8), cyclic_quotient_lattice(d8)
    with pytest.raises(ValidationError, match="not equivariant"):
        index_ratio_check(i_lat, a_lat, identity_matrix(7), ())
    assert index_ratio_check(i_lat, a_lat, nat_embed(8), ()) == ()


def test_index_ratio_takes_closed_forms_for_named_atoms(monkeypatch):
    # a sum of named atoms needs no Gram determinant on either side
    g = heisenberg_group(3)
    lat = direct_sum(cyclic_quotient_lattice(g), augmentation_lattice(g))
    three = tuple(tuple(3 * x for x in row)
                  for row in identity_matrix(lat.rank))
    seen = []
    gram_det = lattices._scaled_gram_det
    monkeypatch.setattr(lattices, "_scaled_gram_det",
                        lambda *a: seen.append(a) or gram_det(*a))
    assert all(ok for ok, _ in index_ratio_check(lat, lat, three,
                                                 relation_basis(g)))
    assert seen == []


def test_index_ratio_finds_each_class_index_once(monkeypatch, capsys):
    # five relations touch 11 distinct classes of Heis(3); the index of each
    # class depends only on the class and the embedding
    calls = []
    index = lattices._lattice_index
    monkeypatch.setattr(lattices, "_lattice_index",
                        lambda *a: calls.append(a) or index(*a))
    assert cli.run(["index-check", "heisenberg:3", "Sum(A,I)",
                    "--scale", "3"]) == 0
    assert "overall: true" in capsys.readouterr().out
    basis = relation_basis(heisenberg_group(3))
    assert len(basis) == 5
    assert len({idx for theta in basis for idx, _ in theta.coefficients}) == 11
    assert len(calls) == 11
    # N^H's sparse rows are Hermite already; the oracle brings both sides
    # to Hermite form; A and I of Heis(3) have rank 26 each
    for lattice, image in calls:
        hermite, image = _dense(lattice, 52), _dense(image, 52)
        assert _sparse(row_span_basis(hermite)) == lattice
        assert index(lattice, _sparse(image)) == sublattice_index(
            transpose(hermite), transpose(image))


def test_index_ratio_rejects_bad_embeddings():
    g = elementary_abelian_group(2, 2)
    lat = regular_lattice(g)
    theta = relation_basis(g)[0]
    zero_col = tuple(tuple(1 if i == j and j > 0 else 0 for j in range(4))
                     for i in range(4))
    with pytest.raises(ValidationError):
        index_ratio_check(lat, lat, zero_col, [theta])
    shuffle = (  # transposition misaligned with the action: not equivariant
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    with pytest.raises(ValidationError):
        index_ratio_check(lat, lat, shuffle, [theta])
    with pytest.raises(ValidationError):
        index_ratio_check(lat, trivial_lattice(g), identity_matrix(4), [theta])


# -- towers --------------------------------------------------------------------


def test_tower_spot_values():
    v4 = elementary_abelian_group(2, 2)
    assert tower_target_constant(v4, 0, relation_basis(v4)[0]).value \
        == Fraction(1, 2)
    e9 = elementary_abelian_group(3, 2)
    assert tower_target_constant(e9, 2, relation_basis(e9)[0]).value \
        == Fraction(1, 9)
    h = heisenberg_group(3)
    pair = next(r for r in bouc_generators(h, 3)
                if sorted(v for _, v in r.coefficients) == [-1, -1, 1, 1])
    assert tower_target_constant(h, 0, pair).value == 1


def test_tower_lattice_shape():
    g = elementary_abelian_group(3, 2)
    for m in (0, 2):
        lat = tower_lattice(g, m)
        assert lat.label == f"Tower({m})" and lat.rank == 8 + 8 + 1 + 9 * m
        assert [(atom.label, k) for atom, k in lat.summands] == (
            [("A", 1), ("I", 1), ("Z", 1)] + [("Reg", m)] * (m > 0))
    for bad in (-1, 1.5):
        with pytest.raises(ValidationError):
            tower_lattice(g, bad)


def test_tower_matches_trivial_constant():
    for name in ("V4", "S3", "Q8"):
        g = GROUPS[name]()
        for m in (0, 1):
            for theta in relation_basis(g):
                assert (tower_target_constant(g, m, theta).value
                        == regulator_constant(trivial_lattice(g), theta).value)
    with pytest.raises(ValidationError):
        tower_target_constant(elementary_abelian_group(2, 2), -1,
                              relation_basis(elementary_abelian_group(2, 2))[0])


@pytest.mark.parametrize("name", ["V4", "S3", "D8"])
def test_tower_matches_the_gram_route(name):
    g = GROUPS[name]()
    for m in (0, 1):
        lat = tower_lattice(g, m)
        pairing = averaged_pairing(lat)
        for theta in relation_basis(g):
            assert (tower_target_constant(g, m, theta)
                    == regulator_constant(lat, theta, pairing))


def test_broken_invariants_raise_internal_errors(monkeypatch):
    # Forced by monkeypatching: each check must raise, not assert, so that
    # it also holds under ``python -O``.  The Gram check runs on a kind-less
    # copy of Reg, since the named atom itself takes its closed form.
    v4 = elementary_abelian_group(2, 2)
    theta = relation_basis(v4)[0]
    kindless = GLattice(v4, regular_lattice(v4).actions)
    with monkeypatch.context() as m:
        m.setattr(lattices, "bareiss_determinant", lambda rows: -1)
        with pytest.raises(FactoreqError, match="not positive") as exc:
            regulator_constant(kindless, theta)
    assert type(exc.value) is FactoreqError
    lat = regular_lattice(v4)
    pairing = averaged_pairing(lat)
    with monkeypatch.context() as m:
        m.setattr(lattices, "bareiss_determinant", lambda rows: 0)
        with pytest.raises(FactoreqError, match="not positive") as exc:
            regulator_constant(lat, theta, pairing)
    assert type(exc.value) is FactoreqError
    with monkeypatch.context() as m:
        m.setattr(lattices, "regulator_constant",
                  lambda lat, theta: RegulatorValue(Fraction(2), {2: 1}))
        with pytest.raises(FactoreqError, match="collapse") as exc:
            tower_target_constant(v4, 1, theta)
    assert type(exc.value) is FactoreqError


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_valuations_at_the_primes_of_the_group_order(name):
    # the oracle factors the whole value by trial division
    g = CENSUS[name]()
    atoms = named_atoms(g)
    lats = atoms + [direct_sum(*atoms[:3]), direct_sum(atoms[2], atoms[4])]
    for lat in lats:
        for theta in relation_basis(g):
            value = regulator_constant(lat, theta)
            assert value.valuations == fraction_valuations(value.value), (
                name, lat.label, theta.describe())


def test_a_prime_outside_the_group_order_raises():
    # forced through the factor cache: C_Theta is a p-adic unit for p not
    # dividing |G|, so a class factor 5 on V4 breaks an invariant
    v4 = elementary_abelian_group(2, 2)
    theta = relation_basis(v4)[0]
    lat = trivial_lattice(v4)
    lat._factors[theta.coefficients[0][0]] = Fraction(5)
    with pytest.raises(FactoreqError, match="factor 5 .*not dividing") as exc:
        regulator_constant(lat, theta)
    assert type(exc.value) is FactoreqError


def test_regulator_value_invariants():
    with pytest.raises(ValidationError):
        RegulatorValue(Fraction(-1, 2), {2: -1})
    with pytest.raises(ValidationError):
        RegulatorValue(Fraction(3, 2), {2: -1})
    val = RegulatorValue(Fraction(9, 4), {2: -2, 3: 2})
    assert val.valuation(2) == -2 and val.valuation(7) == 0
