"""Factor-equivalence criteria for unit lattices, from ingested invariants.

A profile carries, per conjugacy class of subgroups H (keyed by class
label), the arithmetic invariants of the fixed field of H: the class
number h, its p-part h_p, the number of roots of unity w, the unit index
lambda = [E^H : E_fixed field], and an exact rational surrogate R for the
regulator.  The checks below evaluate, relation by relation, the exact
rational products whose triviality decides factor equivalence of the unit
lattice with the standard integral lattices.

Only residuals and valuations of the products are meaningful when R is a
surrogate; genuine-field workflows should supply h, w and lambda (which
are exact integers) and eliminate R through the class-number identity
tested by :func:`brauer_kuroda_check`.

The unit constant C_Theta(E) has one per-class factor, :func:`_unit_base`.
:func:`unit_regulator_constant` multiplies it out by R and refuses a
prime outside |G|; :func:`p_part_factor_check` takes its valuation at p
only, by R on a relation whose every class carries R, else by w, h_p and
lambda, so it accepts an R with primes outside |G|.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DataError, ValidationError
from .groups import Group
from .intmat import (
    is_prime,
    power_product,
    prime_factorization,
    reassembles,
    split_valuations,
    valuation,
)
from .lattices import GLattice, RegulatorValue, regulator_constant
from .relations import GRelation, _as_class, bouc_generators


@dataclass(frozen=True)
class ClassData:
    """Invariants attached to one subgroup class; every field optional."""

    h: int | None = None
    h_p: int | None = None
    w: int | None = None
    lam: int | None = None
    regulator: Fraction | None = None


class ArithmeticProfile:
    """Per-class arithmetic data for one group, with gated defaults.

    ``classes`` maps subgroup classes (labels, indices, or class objects)
    to :class:`ClassData`.  Defaults are never silent: ``w`` falls back to
    2 only when ``totally_real`` is set, ``lam`` falls back to 1 only when
    ``odd_degree`` is set, and otherwise a missing value raises a data
    error naming the class.  The one exception is the trivial subgroup,
    whose lambda is 1 identically (the relevant cohomology group vanishes),
    so it is supplied automatically and a conflicting value is rejected.
    """

    def __init__(self, group: Group, classes, p: int | None = None,
                 totally_real: bool = False, odd_degree: bool = False):
        if p is not None:
            if not is_prime(p):
                raise ValidationError(f"{p!r} is not a prime")
        self.group = group
        self.p = p
        self.totally_real = bool(totally_real)
        self.odd_degree = bool(odd_degree)
        data: dict[int, ClassData] = {}
        for key, entry in dict(classes).items():
            cls = _as_class(group, key)
            if cls.index in data:
                raise ValidationError(f"duplicate data for class {cls.label}")
            data[cls.index] = self._validated(cls, entry)
        self.data = data

    def _validated(self, cls, entry) -> ClassData:
        if not isinstance(entry, ClassData):
            entry = dict(entry)
            if unknown := entry.keys() - ClassData.__dataclass_fields__:
                raise ValidationError(f"unknown field {min(map(repr, unknown))}"
                                      f" on class {cls.label}")
            entry = ClassData(**entry)
        for name in ("h", "h_p", "w", "lam"):
            val = getattr(entry, name)
            if val is None:
                continue
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise ValidationError(
                    f"{name} on class {cls.label} must be a positive integer")
        reg = entry.regulator
        if reg is not None:
            # only an int or a Fraction: 0.1 is not 1/10 in binary; the sign
            # is the numerator's, and only an int is made a Fraction
            if type(reg) not in (int, Fraction) or reg.numerator <= 0:
                raise ValidationError(f"regulator on class {cls.label} must "
                                      f"be a positive rational")
            if type(reg) is int:
                entry = replace(entry, regulator=Fraction(reg))
        if entry.h_p is not None:
            if self.p is None:
                raise ValidationError(
                    f"h_p on class {cls.label} given without declaring p")
            if entry.h_p != self.p ** valuation(entry.h_p, self.p):
                raise ValidationError(
                    f"h_p on class {cls.label} must be a power of {self.p}")
        if cls.order == 1 and entry.lam not in (None, 1):
            raise ValidationError(
                "lambda of the trivial subgroup is 1 identically")
        return entry

    def __repr__(self):
        return (f"ArithmeticProfile({self.group.name}, "
                f"{len(self.data)} classes, p={self.p})")

    def _entry(self, cls) -> ClassData:
        return self.data.get(_as_class(self.group, cls).index, ClassData())

    def _require(self, cls, name):
        cls = _as_class(self.group, cls)
        val = getattr(self._entry(cls), name)
        if val is None:
            pretty = "lambda" if name == "lam" else name
            raise DataError(
                f"missing {pretty} for class {cls.label} of {self.group.name}")
        return val

    def h(self, cls) -> int:
        return self._require(cls, "h")

    def h_p(self, cls) -> int:
        return self._require(cls, "h_p")

    def w(self, cls) -> int:
        entry = self._entry(cls)
        if entry.w is None and self.totally_real:
            return 2
        return self._require(cls, "w")

    def lam(self, cls) -> int:
        cls = _as_class(self.group, cls)
        if cls.order == 1:
            return 1
        entry = self._entry(cls)
        if entry.lam is None and self.odd_degree:
            return 1
        return self._require(cls, "lam")

    def regulator(self, cls) -> Fraction:
        return self._require(cls, "regulator")


@dataclass(frozen=True)
class Verdict:
    """One exact residual per relation; overall true iff all equal 1.

    ``explanations[i]`` decomposes ``residuals[i]`` into (label, base,
    exponent) factors, with int or Fraction bases, whose product
    reassembles the residual exactly.
    """

    residuals: tuple
    overall: bool
    explanations: tuple

    def __post_init__(self):
        if self.overall != all(r == 1 for r in self.residuals):
            raise ValidationError("overall verdict contradicts the residuals")
        if len(self.explanations) != len(self.residuals):
            raise ValidationError("one explanation per residual")
        for residual, breakdown in zip(self.residuals, self.explanations):
            if residual <= 0:
                raise ValidationError("residuals are positive rationals")
            if not reassembles(residual, ((base, exponent)
                                          for _, base, exponent in breakdown)):
                raise ValidationError("breakdown does not reassemble the "
                                      "residual")


def _make_verdict(entries) -> Verdict:
    residuals = tuple(residual for residual, _ in entries)
    breakdowns = tuple(breakdown for _, breakdown in entries)
    return Verdict(residuals, all(r == 1 for r in residuals), breakdowns)


def _own_relations(profile: ArithmeticProfile, relations):
    out = tuple(relations)
    for theta in out:
        if not isinstance(theta, GRelation) or theta.group is not profile.group:
            raise ValidationError("relations must live on the profile's group")
    return out


def _product_verdict(profile: ArithmeticProfile, relations, base) -> Verdict:
    """Verdict on prod_H base(H)^{n_H} = 1, one residual per relation.

    ``base`` maps a subgroup class to a positive rational.  It is called
    once per class, on the class's first use in the relations' order, so
    missing data is reported for the first class that lacks it.  Each
    residual is multiplied out in integers and reduced once.
    """
    classes = profile.group.subgroup_classes()
    bases = {}
    entries = []
    for theta in _own_relations(profile, relations):
        breakdown = []
        for idx, n_h in theta.coefficients:
            cls = classes[idx]
            value = bases.get(idx)
            if value is None:
                value = bases[idx] = base(cls)
            breakdown.append((cls.label, value, n_h))
        num, den = power_product((b, n) for _, b, n in breakdown)
        entries.append((Fraction(num, den), tuple(breakdown)))
    return _make_verdict(entries)


def minkowski_factor_check(profile: ArithmeticProfile, relations) -> Verdict:
    """Test prod_H (|H| h lambda / w)^{n_H} = 1 for each relation.

    Overall truth is the global criterion for the unit lattice to be
    factor equivalent to the augmentation-quotient lattice; with no
    relations the verdict is vacuously true.
    """
    return _product_verdict(profile, relations, lambda cls: Fraction(
        cls.order * profile.h(cls) * profile.lam(cls), profile.w(cls)))


def _unit_base(profile: ArithmeticProfile, cls,
               by_regulator: bool = True) -> Fraction:
    """b(H) = R^2/(|H| lambda^2), the factor of C_Theta(E) = prod b(H)^{n_H}.

    Without ``by_regulator``, the class-number identity eliminates R and
    h_p stands in for the p-part of h: w^2/(|H| lambda^2 h_p^2), good at p
    only.  R (or w, then h_p) is read before lambda.
    """
    if by_regulator:
        top = profile.regulator(cls)
    else:
        top = Fraction(profile.w(cls), profile.h_p(cls))
    return top ** 2 / (cls.order * profile.lam(cls) ** 2)


def unit_regulator_constant(profile: ArithmeticProfile,
                            theta: GRelation) -> RegulatorValue:
    """Evaluate C_Theta(E) = C_Theta(Z) * prod_H (R/lambda)^{2 n_H} exactly.

    C_Theta(E) is a p-adic unit for p not dividing |G|, so valuations are
    taken at the primes of |G| only; data that leaves any other factor
    raises :class:`DataError`.
    """
    (value,) = _product_verdict(profile, (theta,), lambda cls: _unit_base(
        profile, cls)).residuals
    valuations, rest = split_valuations(
        value, prime_factorization(profile.group.order))
    if rest != 1:
        raise DataError(f"C_Theta(E) = {value} has the factor {rest} prime "
                        f"to |G|, which the units of a field cannot give")
    return RegulatorValue(value, valuations)


def brauer_kuroda_check(profile: ArithmeticProfile, relations) -> Verdict:
    """Test prod_H (h R / w)^{n_H} = 1 for each relation.

    The class-number identity behind it holds for genuine fields, so a
    nontrivial residual flags inconsistent profile data before the other
    checks are trusted.
    """
    return _product_verdict(profile, relations, lambda cls: (
        profile.h(cls) * profile.regulator(cls) / profile.w(cls)))


def brauer_kuroda_residual(profile: ArithmeticProfile,
                           theta: GRelation) -> Fraction:
    """The residual of :func:`brauer_kuroda_check` on one relation."""
    (residual,) = brauer_kuroda_check(profile, (theta,)).residuals
    return residual


def p_part_factor_check(profile: ArithmeticProfile, relations,
                        candidate: GLattice) -> Verdict:
    """Compare v_p(C_Theta(E)) with v_p(C_Theta(candidate)) per relation.

    Overall truth decides factor equivalence of the unit lattice with the
    candidate after tensoring with the p-adic integers.  The unit side sums
    n_H v_p(b(H)) over :func:`_unit_base`, by R when every class of the
    relation carries R, else by h_p, w and lambda; the candidate side comes
    from :func:`~factoreq.lattices.regulator_constant`.  Residuals are
    recorded as powers of p, so 1 means the valuations match.
    """
    if profile.p is None:
        raise DataError("p-part checks need a declared prime p")
    if candidate.group is not profile.group:
        raise ValidationError("candidate lattice lives on a different group")
    p = profile.p
    classes = profile.group.subgroup_classes()
    entries = []
    for theta in _own_relations(profile, relations):
        by_regulator = all(profile._entry(classes[idx]).regulator is not None
                           for idx, _ in theta.coefficients)
        exponents = [(classes[idx].label, n_h * valuation(
            _unit_base(profile, classes[idx], by_regulator), p))
            for idx, n_h in theta.coefficients]
        exponents.append((candidate.label,
                          -regulator_constant(candidate, theta).valuation(p)))
        residual = Fraction(p) ** sum(e for _, e in exponents)
        entries.append((residual, tuple((label, Fraction(p) ** e, 1)
                                        for label, e in exponents)))
    return _make_verdict(entries)


def bouc_condition_check(profile: ArithmeticProfile,
                         relations=None) -> Verdict:
    """Test prod h_p^{n_H} * prod |H|^{n_H} = 1 on the classical relations.

    This is the local criterion for the p-part of the unit lattice of a
    p-extension; the group must be a p-group for the profile's prime and
    ``relations`` defaults to the classical generating set.
    """
    if profile.p is None:
        raise DataError("the classical p-group condition needs a declared "
                        "prime p")
    p = profile.p
    order = profile.group.order
    if order != p ** valuation(order, p):
        raise ValidationError(
            f"{profile.group.name} (order {order}) is not a {p}-group")
    if relations is None:
        relations = bouc_generators(profile.group, p)
    return _product_verdict(profile, relations, lambda cls: Fraction(
        profile.h_p(cls) * cls.order))
