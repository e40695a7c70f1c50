"""Regulator constants of integral group lattices, exactly.

For a G-lattice M (a free Z-module with a G-action), a G-invariant
positive-definite pairing, and a relation Theta = sum_H n_H * H, the
regulator constant is

    C_Theta(M) = prod_H det( (1/|H|) <.,.> restricted to M^H )^{n_H}.

It is a positive rational, independent of the chosen pairing, and
multiplicative in direct sums.  This script demonstrates the closed forms
for the standard lattices, pairing independence, the index formula for a
finite-index embedding, and the tower identity behind the unit-lattice
model.

Run:  python demos/02_regulator_constants.py
"""

from fractions import Fraction

from factoreq import (
    augmentation_lattice,
    averaged_pairing,
    coset_lattice,
    cyclic_quotient_lattice,
    dihedral_group,
    direct_sum,
    elementary_abelian_group,
    heisenberg_group,
    index_ratio_check,
    regular_lattice,
    regulator_constant,
    relation_basis,
    tower_target_constant,
    trivial_lattice,
)


def frs(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def main():
    print("=" * 72)
    print("Closed forms on the standard lattices")
    print("=" * 72)
    print("""
Four standard lattices exist for every group G:
  Z    the trivial lattice (rank 1),
  Reg  the regular lattice Z[G],
  A    the quotient of Z[G] by the sum-of-all-elements vector,
  I    the augmentation sublattice of Z[G] (coordinates summing to 0).

On any relation Theta = sum n_H * H:
  C_Theta(A) = prod |H|^{n_H},   C_Theta(I) = C_Theta(Z) = prod |H|^{-n_H},
  C_Theta(Reg) = 1, and C_Theta(Z[G/C]) = 1 for every cyclic C.
""")
    for group in (elementary_abelian_group(2, 2),
                  elementary_abelian_group(3, 2), dihedral_group(8)):
        print(f"{group.name}:")
        for theta in relation_basis(group):
            row = {label: frs(regulator_constant(build(group), theta).value)
                   for label, build in (("A", cyclic_quotient_lattice),
                                        ("I", augmentation_lattice),
                                        ("Z", trivial_lattice),
                                        ("Reg", regular_lattice))}
            print(f"  Theta = {theta.describe()}")
            print(f"    A -> {row['A']}, I -> {row['I']}, Z -> {row['Z']}, "
                  f"Reg -> {row['Reg']}")

    print("=" * 72)
    print("Pairing independence")
    print("=" * 72)
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    lat = direct_sum(cyclic_quotient_lattice(v4), coset_lattice(v4, 1))
    default = averaged_pairing(lat)
    # scale the averaged pairing: any invariant positive-definite form works
    scaled = type(default)(tuple(tuple(3 * x for x in row)
                                 for row in default.matrix))
    print(f"\n{lat.label} on {v4.name}, Theta = {theta.describe()}:")
    print(f"  closed forms:     "
          f"{frs(regulator_constant(lat, theta).value)}")
    print(f"  averaged pairing: "
          f"{frs(regulator_constant(lat, theta, default).value)}")
    print(f"  scaled pairing:   "
          f"{frs(regulator_constant(lat, theta, scaled).value)}")
    print("  (scaling cancels because sum of n_H * rank(M^H) pairs off)")

    print("\n" + "=" * 72)
    print("The index formula")
    print("=" * 72)
    print("""
For an equivariant finite-index embedding iota: M -> N,
  C_Theta(M) / C_Theta(N) = prod_H [N^H : iota(M^H)]^{2 n_H}.
Scaling the regular lattice by 2 multiplies each fixed sublattice index
by 2^rank:""")
    reg = regular_lattice(v4)
    double = tuple(tuple(2 if r == c else 0 for c in range(reg.rank))
                   for r in range(reg.rank))
    [(ok, indices)] = index_ratio_check(reg, reg, double, [theta])
    print(f"  2*id on Reg over {v4.name}: identity holds: {ok}")
    print(f"  per-class indices: {indices}")

    print("\n" + "=" * 72)
    print("The tower identity")
    print("=" * 72)
    print("""
The direct sum A + I + Z + Reg^m models the unit lattice of a field
tower; its constant always collapses to C_Theta(Z):""")
    h3 = heisenberg_group(3)
    for group in (v4, h3):
        for theta in relation_basis(group)[:1]:
            for floors in (0, 1, 2):
                value = tower_target_constant(group, floors, theta)
                print(f"  {group.name}, m={floors}: "
                      f"C_Theta(A+I+Z+Reg^{floors}) = {frs(value.value)}")


if __name__ == "__main__":
    main()
