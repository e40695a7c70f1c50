"""Command-line surface: group specs, lattice expressions, profiles, reports.

Eight subcommands tie the library together; every result can be rendered
as a plain-text table or as deterministic JSON (``--json``), with all
rationals serialized as ``"num/den"`` strings so output round-trips
exactly.  Every deliberate failure prints a single line starting with
``error:<category>:`` on stderr and exits with status 2; a false verdict
exits with status 1.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .checker import (
    ArithmeticProfile,
    ClassData,
    bouc_condition_check,
    brauer_kuroda_check,
    minkowski_factor_check,
    p_part_factor_check,
)
from .errors import (
    DataError,
    FactoreqError,
    ParseError,
    ResourceError,
    ValidationError,
)
from .factorisable import (
    SubgroupFunction,
    factorisable_quotient,
    is_factorisable_abelian,
)
from .groups import (
    DESK_SCALE_CAP,
    Group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_generators,
    heisenberg_group,
    quaternion_group,
    semidirect_product,
)
from .lattices import (
    GLattice,
    augmentation_lattice,
    coset_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    index_ratio_check,
    regular_lattice,
    regulator_constant,
    tower_lattice,
    trivial_lattice,
)
from .relations import bouc_generators, relation_basis, spans_match

RANK_CAP = 1000

_KINDS = ("cyclic:<n>, dihedral:<2k>, elemab:<p>,<k>, heisenberg:<p>, "
          "quaternion8, perm:[<cycles>], product:<a>;<b>, "
          "semidirect:<a>;<b>;[<image tuples>]")


# -- small parsing helpers -----------------------------------------------------


def _check_rank(rank: int, text: str):
    if rank > RANK_CAP:
        raise ResourceError(f"lattice {text!r} has rank {rank}, over the rank "
                            f"cap of {RANK_CAP}")


def _strip_outer_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for pos, ch in enumerate(text):
            depth += (ch in "([") - (ch in ")]")
            if depth == 0 and pos < len(text) - 1:
                return text
        text = text[1:-1].strip()
    return text


def _split_top(text: str, sep: str) -> list:
    """Split on ``sep`` at bracket depth zero."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if depth < 0:
            raise ParseError(f"unbalanced bracket at position {pos} in {text!r}")
        if ch == sep and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    if depth:
        raise ParseError(f"unbalanced bracket in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text.strip()!r}")


def _parse_tuples(text: str, what: str) -> list:
    """Parse ``[(...),(...)...]`` into a list of raw ``(...)`` strings.

    Depth-zero commas separate entries; an entry may juxtapose several
    parenthesized groups (used for products of disjoint cycles).
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"{what} must be bracketed like [(...),...], "
                         f"got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError(f"{what} must not be empty")
    return [part.strip() for part in _split_top(inner, ",")]


def _parse_point_tuple(text: str, what: str) -> tuple:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"{what} must be parenthesized, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    pieces = inner.split(",") if "," in inner else inner.split()
    return tuple(_parse_int(piece, f"entry of {what}") for piece in pieces)


def _parse_cycle_generators(text: str) -> list:
    """Cycle notation to image tuples: ``[(0,1,2),(0,1)]`` or ``[(0,1)(2,3)]``."""
    raw_gens = []
    for entry in _parse_tuples(text, "permutation list"):
        cycles, rest = [], entry
        while rest:
            if not rest.startswith("("):
                raise ParseError(f"expected a cycle at {rest!r} in {text!r}")
            close = rest.index(")") if ")" in rest else -1
            if close < 0:
                raise ParseError(f"unclosed cycle in {text!r}")
            cycles.append(_parse_point_tuple(rest[:close + 1], "cycle"))
            rest = rest[close + 1:].strip()
        raw_gens.append(cycles)
    points = sorted({pt for cycles in raw_gens for cyc in cycles for pt in cyc})
    if points and points[0] < 0:
        raise ParseError("cycle points must be non-negative integers")
    if not points:
        raise ParseError("permutations need at least one point")
    # Renaming the points conjugates every generator by one bijection, which
    # leaves the group table unchanged; tuples are sized by the points named.
    label = {pt: i for i, pt in enumerate(points)}
    perms = []
    for cycles in raw_gens:
        seen = set()
        image = list(range(len(points)))
        for cyc in cycles:
            if seen & set(cyc) or len(set(cyc)) != len(cyc):
                raise ParseError("cycles within one generator must be disjoint")
            seen |= set(cyc)
            for i, pt in enumerate(cyc):
                image[label[pt]] = label[cyc[(i + 1) % len(cyc)]]
        perms.append(tuple(image))
    return perms


def parse_group_spec(text: str) -> Group:
    """Build a group from the mini-language (see ``--help`` for the kinds)."""
    spec = _strip_outer_parens(str(text))
    if not spec:
        raise ParseError("empty group spec")
    head, sep, rest = spec.partition(":")
    head = head.strip()
    if head == "quaternion8":
        if sep:
            raise ParseError("quaternion8 takes no parameters")
        return quaternion_group()
    if not sep:
        raise ParseError(f"group spec {spec!r} has no parameters after the "
                         f"kind; known kinds: {_KINDS}")
    if head == "cyclic":
        return cyclic_group(_parse_int(rest, "cyclic order"))
    if head == "dihedral":
        return dihedral_group(_parse_int(rest, "dihedral order"))
    if head == "heisenberg":
        return heisenberg_group(_parse_int(rest, "prime"))
    if head == "elemab":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ParseError(f"elemab takes p,k, got {rest!r}")
        return elementary_abelian_group(_parse_int(parts[0], "prime"),
                                        _parse_int(parts[1], "rank"))
    if head == "perm":
        gens = _parse_cycle_generators(rest)
        return group_from_generators(gens)
    if head == "product":
        parts = _split_top(rest, ";")
        if len(parts) != 2:
            raise ParseError(f"product takes two sub-specs joined by ';', "
                             f"got {len(parts)} in {rest!r}")
        return direct_product(parse_group_spec(parts[0]),
                              parse_group_spec(parts[1]))
    if head == "semidirect":
        parts = _split_top(rest, ";")
        if len(parts) != 3:
            raise ParseError(f"semidirect takes a;b;[action], got {rest!r}")
        acting = parse_group_spec(parts[1])
        base = parse_group_spec(parts[0])
        action = [_parse_point_tuple(entry, "action entry")
                  for entry in _parse_tuples(parts[2], "action list")]
        return semidirect_product(base, acting, action)
    raise ParseError(f"unknown group kind {head!r}; known kinds: {_KINDS}")


# -- lattice expressions -------------------------------------------------------


_ATOMS = {"A": cyclic_quotient_lattice, "I": augmentation_lattice,
          "Z": trivial_lattice, "Reg": regular_lattice}


def parse_lattice_expr(group: Group, text: str) -> GLattice:
    """Build a lattice from ``A | I | Z | Reg | Coset(label) | Sum(...)``,
    each optionally raised to ``^m`` for an m-fold direct sum.

    A term splits at its top-level ``^`` into a head and its counts; the
    head is ``Name`` or ``Name(args)``, whose args split at top-level commas
    (both by :func:`_split_top`).  Each named atom is built once; the rank
    of every direct sum is checked against :data:`RANK_CAP` before its
    blocks are built.  An error names the piece that could not be read and
    quotes the whole expression.
    """
    text = str(text)
    built: dict = {}

    def term(piece: str) -> GLattice:
        head, *counts = _split_top(piece, "^")
        name, paren, rest = head.strip().partition("(")
        name = name.strip()
        args = _split_top(rest[:-1], ",") if rest.endswith(")") else None
        if not paren and name in _ATOMS:
            if name not in built:
                built[name] = _ATOMS[name](group)
            out = built[name]
        elif name == "Sum" and args is not None:
            parts = [term(arg) for arg in args]
            _check_rank(sum(part.rank for part in parts), text)
            out = direct_sum(*parts)
        elif name == "Coset" and args is not None and len(args) == 1:
            # keyed apart from the atom names, so Coset(A) is not A
            key = ("Coset", args[0].strip())
            if key not in built:
                built[key] = coset_lattice(group, key[1])
            out = built[key]
        else:
            raise ParseError(f"lattice expression {text!r}: cannot read "
                             f"{head.strip()!r} (know A, I, Z, Reg, "
                             f"Coset(label), Sum(e1,e2,...))")
        for count in counts:
            count = count.strip()
            m = int(count) if count.isdecimal() else 0
            if m < 1:
                raise ParseError(f"lattice expression {text!r}: cannot read "
                                 f"the count {count!r} of ^m; m must be a "
                                 f"whole number >= 1")
            _check_rank(out.rank * m, text)
            out = direct_sum(*[out] * m)
        return out

    return term(text)


# -- profiles and value files --------------------------------------------------


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where} must be an exact rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{where} must be an exact rational "
                         f"(\"num/den\" string or integer), not a float")
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"{where} must be an exact rational like \"3/2\", "
                     f"got {value!r}")


def _require_int(entry, key, where):
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: field {key!r} must be an integer, "
                         f"got {value!r}")
    return value


def _resolve_label(group: Group, label, where: str):
    """The subgroup class labelled ``label``, or a data error naming
    ``where`` and listing the valid labels."""
    try:
        return group.class_by_label(label)
    except ValidationError:
        valid = ", ".join(cls.label for cls in group.subgroup_classes())
        raise DataError(f"{where}: unknown class label {label!r} for "
                        f"{group.name}; valid labels: {valid}") from None


def profile_from_data(data, source: str = "profile") -> ArithmeticProfile:
    """Build an ArithmeticProfile from decoded profile JSON."""
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be a JSON object")
    allowed = {"group", "p", "totally_real", "odd_degree", "classes"}
    for key in data:
        if key not in allowed:
            raise ParseError(f"{source}: unknown field {key!r} (allowed: "
                             f"{', '.join(sorted(allowed))})")
    if "group" not in data or not isinstance(data["group"], str):
        raise ParseError(f"{source}: field 'group' must be a group spec "
                         f"string")
    group = parse_group_spec(data["group"])
    p = data.get("p")
    if p is not None and (isinstance(p, bool) or not isinstance(p, int)):
        raise ParseError(f"{source}: field 'p' must be an integer")
    for flag in ("totally_real", "odd_degree"):
        if flag in data and not isinstance(data[flag], bool):
            raise ParseError(f"{source}: field {flag!r} must be a boolean")
    entries = data.get("classes", [])
    if not isinstance(entries, list):
        raise ParseError(f"{source}: field 'classes' must be a list")
    known = {"label", "h", "h_p", "w", "lambda", "R"}
    table = {}
    for index, entry in enumerate(entries):
        where = f"{source}: classes[{index}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        for key in entry:
            if key not in known:
                raise ParseError(f"{where}: unknown field {key!r} (allowed: "
                                 f"{', '.join(sorted(known))})")
        if not isinstance(entry.get("label"), str):
            raise ParseError(f"{where}: field 'label' must be a class label "
                             f"string")
        label = _resolve_label(group, entry["label"], where).label
        if label in table:
            raise ParseError(f"{where}: duplicate label {label!r}")
        fields = {}
        for key, target in (("h", "h"), ("h_p", "h_p"), ("w", "w"),
                            ("lambda", "lam")):
            if key in entry:
                fields[target] = _require_int(entry, key, where)
        if "R" in entry:
            fields["regulator"] = _parse_rational(entry["R"], f"{where}: 'R'")
        table[label] = ClassData(**fields)
    return ArithmeticProfile(group, table, p=p,
                             totally_real=data.get("totally_real", False),
                             odd_degree=data.get("odd_degree", False))


def parse_profile(path: str) -> ArithmeticProfile:
    """Load and validate a profile JSON file (UTF-8)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read profile {path!r}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    return profile_from_data(data, source=path)


def _load_value_table(arg: str):
    """Class-label -> rational mapping, inline JSON or a file path."""
    if arg.lstrip().startswith("{"):
        source, text = "values", arg
    else:
        source = arg
        try:
            with open(arg, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DataError(f"cannot read values {arg!r}: "
                            f"{exc.strerror or exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseError(f"{source}: values must be a JSON object mapping "
                         f"class labels to rationals")
    return source, data


# -- reports -------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii


def _write_json(obj, out: list, newline: str) -> None:
    """Append ``obj`` to ``out`` exactly as ``json.dumps(obj, indent=2)``.

    ``newline`` is a line break plus the indent of the line ``obj`` starts
    on.  Types are tested in the stdlib's order: str (by the stdlib's own
    C quoting), None, bool, int, then lists, tuples and dicts with str
    keys.  Anything else, a float or a Fraction included, raises
    TypeError: reports hold no floats.  The stdlib runs its C encoder
    only without ``indent``; with it, its generator per container cost
    more than twice this writer's time.
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        separator = "," + inner
        for item in obj:
            out.append(head)
            head = separator
            _write_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        separator = "," + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            out.append(head + _quote(key) + ": ")
            head = separator
            _write_json(value, out, inner)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        f"serializable")


@dataclass
class Report:
    """Structured command output, rendered as text lines or as JSON."""

    command: str
    payload: dict
    lines: tuple

    def render(self, as_json: bool) -> str:
        """The text lines, or ``{"command": ..., **payload}`` as JSON.

        The JSON is byte for byte ``json.dumps(..., indent=2)`` plus a
        newline, written by :func:`_write_json`, which refuses floats.
        """
        if as_json:
            out = []
            _write_json({"command": self.command, **self.payload}, out, "\n")
            out.append("\n")
            return "".join(out)
        return "\n".join(self.lines) + "\n"


def _frs(value) -> str:
    """An int or Fraction as ``"num/den"``."""
    return f"{value.numerator}/{value.denominator}"


def _valuations_json(valuations) -> dict:
    return {str(p): e for p, e in sorted(valuations.items())}


def _valuations_text(valuations) -> str:
    if not valuations:
        return "1"
    return " * ".join(f"{p}^{e}" for p, e in sorted(valuations.items()))


def _relation_json(theta) -> list:
    classes = theta.group.subgroup_classes()
    return [{"class": classes[idx].label, "coeff": coeff}
            for idx, coeff in theta.coefficients]


def _verdict_payload(verdict, relations) -> dict:
    results = []
    for index, (theta, residual, breakdown) in enumerate(
            zip(relations, verdict.residuals, verdict.explanations)):
        results.append({
            "relation_index": index,
            "relation": _relation_json(theta),
            "residual": _frs(residual),
            "passed": residual == 1,
            "factors": [{"class": label, "base": _frs(base),
                         "exponent": exponent}
                        for label, base, exponent in breakdown],
        })
    return {"overall": verdict.overall, "results": results}


def _verdict_lines(title, verdict, relations) -> list:
    lines = [title]
    if not relations:
        lines.append("  no relations: vacuously true")
    for index, (theta, residual) in enumerate(zip(relations,
                                                  verdict.residuals)):
        mark = "ok " if residual == 1 else "FAIL"
        lines.append(f"  [{index}] {mark} residual {_frs(residual)}  "
                     f"({theta.describe()})")
    lines.append(f"overall: {'true' if verdict.overall else 'false'}")
    return lines


# -- subcommands ---------------------------------------------------------------


def _cmd_group(args):
    group = parse_group_spec(args.spec)
    classes = group.subgroup_classes()
    payload = {
        "spec": args.spec,
        "name": group.name,
        "order": group.order,
        "abelian": group.is_abelian(),
        "exponent": group.exponent(),
        "classes": [{"label": cls.label, "order": cls.order,
                     "size": cls.class_size, "cyclic": cls.is_cyclic,
                     "normal": cls.is_normal} for cls in classes],
    }
    lines = [f"{group.name}: order {group.order}, exponent "
             f"{group.exponent()}, "
             f"{'abelian' if group.is_abelian() else 'non-abelian'}",
             f"subgroup classes ({len(classes)}):",
             "  label   order  size  cyclic  normal"]
    for cls in classes:
        lines.append(f"  {cls.label:<7} {cls.order:<6} {cls.class_size:<5} "
                     f"{'yes' if cls.is_cyclic else 'no':<7} "
                     f"{'yes' if cls.is_normal else 'no'}")
    return 0, Report("group", payload, tuple(lines))


def _cmd_relations(args):
    group = parse_group_spec(args.spec)
    basis = relation_basis(group)
    payload = {"spec": args.spec, "group": group.name, "rank": len(basis),
               "relations": [_relation_json(theta) for theta in basis]}
    lines = [f"relation basis of {group.name}: rank {len(basis)}"]
    for index, theta in enumerate(basis):
        lines.append(f"  [{index}] {theta.describe()}")
    if not basis:
        lines.append("  (no relations: every subgroup class is cyclic)")
    return 0, Report("relations", payload, tuple(lines))


def _choose_relations(group, args):
    basis = relation_basis(group)
    if args.relation_index is None:
        return list(enumerate(basis))
    if not 0 <= args.relation_index < len(basis):
        raise ValidationError(
            f"relation index {args.relation_index} out of range; the basis "
            f"of {group.name} has {len(basis)} relations")
    return [(args.relation_index, basis[args.relation_index])]


def _cmd_regconst(args):
    group = parse_group_spec(args.spec)
    lattice = parse_lattice_expr(group, args.lattice)
    chosen = _choose_relations(group, args)
    results = []
    lines = [f"regulator constants of {lattice.label} (rank {lattice.rank}) "
             f"on {group.name}:"]
    for index, theta in chosen:
        value = regulator_constant(lattice, theta)
        results.append({"relation_index": index,
                        "relation": _relation_json(theta),
                        "value": _frs(value.value),
                        "valuations": _valuations_json(value.valuations)})
        lines.append(f"  [{index}] {_frs(value.value)} = "
                     f"{_valuations_text(value.valuations)}  "
                     f"({theta.describe()})")
    if not chosen:
        lines.append("  (no relations)")
    payload = {"spec": args.spec, "group": group.name,
               "lattice": lattice.label, "rank": lattice.rank,
               "results": results}
    return 0, Report("regconst", payload, tuple(lines))


def _infer_prime(group: Group) -> int:
    from .intmat import prime_factorization
    primes = sorted(prime_factorization(group.order))
    if not primes:
        raise ValidationError(
            f"{group.name} has order 1, which names no prime; pass --p")
    if len(primes) != 1:
        raise ValidationError(
            f"{group.name} has order {group.order} with several prime "
            f"factors; pass --p")
    return primes[0]


def _cmd_bouc(args):
    if args.check is not None:
        if args.spec is not None:
            raise ParseError("give either a group spec or --check, not both")
        if args.p is not None:
            raise ParseError("--p applies to a group spec; with --check the "
                             "profile declares p")
        profile = parse_profile(args.check)
        group = profile.group
        # without a declared p the checker reports the missing prime
        generators = bouc_generators(group, profile.p) if profile.p else ()
        verdict = bouc_condition_check(profile, generators)
        payload = {"profile": args.check, "group": group.name,
                   "p": profile.p, **_verdict_payload(verdict, generators)}
        lines = _verdict_lines(
            f"classical p-group condition for {group.name} at p={profile.p}:",
            verdict, generators)
        return (0 if verdict.overall else 1), Report("bouc", payload,
                                                     tuple(lines))
    if args.spec is None:
        raise ParseError("bouc needs a group spec or --check <profile.json>")
    group = parse_group_spec(args.spec)
    p = args.p if args.p is not None else _infer_prime(group)
    generators = bouc_generators(group, p)
    payload = {"spec": args.spec, "group": group.name, "p": p,
               "count": len(generators),
               "relations": [_relation_json(theta) for theta in generators]}
    lines = [f"classical generators of {group.name} at p={p}: "
             f"{len(generators)}"]
    for index, theta in enumerate(generators):
        lines.append(f"  [{index}] {theta.describe()}")
    code = 0
    if args.verify_span:
        spanning = spans_match(generators, relation_basis(group))
        payload["spans_full_lattice"] = spanning
        lines.append(f"spans the full relation lattice: "
                     f"{'yes' if spanning else 'NO'}")
        code = 0 if spanning else 1
    return code, Report("bouc", payload, tuple(lines))


def _cmd_factorizable(args):
    group = parse_group_spec(args.spec)
    if not group.is_abelian():
        raise ValidationError(f"factorisability is decided for abelian "
                              f"groups only; {group.name} is non-abelian")
    source, data = _load_value_table(args.values)
    classes = group.subgroup_classes()
    table = {}
    for label, raw in data.items():
        cls = _resolve_label(group, label, source)
        table[cls.representative] = _parse_rational(
            raw, f"{source}: value for {label}")
    missing = [cls.label for cls in classes
               if cls.representative not in table]
    if missing:
        raise DataError(f"{source}: missing values for classes "
                        f"{', '.join(missing)}")
    function = SubgroupFunction(group, table)
    quotient = factorisable_quotient(function)
    verdict = is_factorisable_abelian(function)
    per_class = []
    lines = [f"factorisability of f on {group.name}:",
             "  class   f        f-tilde"]
    for cls in classes:
        f_val = function.value(cls.representative)
        q_val = quotient.value(cls.representative)
        per_class.append({"class": cls.label, "f": _frs(f_val),
                          "quotient": _frs(q_val)})
        lines.append(f"  {cls.label:<7} {_frs(f_val):<8} {_frs(q_val)}")
    lines.append(f"factorisable: {'yes' if verdict else 'no'}")
    payload = {"spec": args.spec, "group": group.name,
               "factorisable": verdict, "classes": per_class}
    return (0 if verdict else 1), Report("factorizable", payload,
                                         tuple(lines))


def _candidate_lattice(group: Group, text: str) -> GLattice:
    text = text.strip()
    if text.startswith("tower:"):
        floors = _parse_int(text[len("tower:"):], "tower parameter")
        if floors < 0:
            raise ParseError("tower parameter must be >= 0")
        _check_rank((2 + floors) * group.order - 1, text)
        return tower_lattice(group, floors)
    return parse_lattice_expr(group, text)


def _cmd_check_units(args):
    profile = parse_profile(args.profile)
    group = profile.group
    basis = relation_basis(group)
    if args.p_part:
        candidate = _candidate_lattice(group, args.candidate)
        verdict = p_part_factor_check(profile, basis, candidate)
        check = f"p-part vs {candidate.label} at p={profile.p}"
    else:
        if args.candidate != "A":
            raise ParseError("--candidate only applies with --p-part")
        verdict = minkowski_factor_check(profile, basis)
        check = "global criterion vs A"
    payload = {"profile": args.profile, "group": group.name, "check": check,
               **_verdict_payload(verdict, basis)}
    lines = _verdict_lines(f"{check} for {group.name}:", verdict, basis)
    return (0 if verdict.overall else 1), Report("check-units", payload,
                                                 tuple(lines))


def _cmd_bk_check(args):
    profile = parse_profile(args.profile)
    group = profile.group
    basis = relation_basis(group)
    verdict = brauer_kuroda_check(profile, basis)
    payload = {"profile": args.profile, "group": group.name,
               **_verdict_payload(verdict, basis)}
    lines = _verdict_lines(f"class-number identity for {group.name}:",
                           verdict, basis)
    return (0 if verdict.overall else 1), Report("bk-check", payload,
                                                 tuple(lines))


def _cmd_index_check(args):
    group = parse_group_spec(args.spec)
    lattice = parse_lattice_expr(group, args.lattice)
    if args.scale < 1:
        raise ValidationError("--scale must be a positive integer")
    embed = tuple(tuple(args.scale if row == col else 0
                        for col in range(lattice.rank))
                  for row in range(lattice.rank))
    basis = relation_basis(group)
    results, overall = [], True
    lines = [f"index identity for {args.scale}*id on {lattice.label} "
             f"over {group.name}:"]
    for index, theta in enumerate(basis):
        passed, indices = index_ratio_check(lattice, lattice, embed, theta)
        overall = overall and passed
        results.append({"relation_index": index,
                        "relation": _relation_json(theta), "passed": passed,
                        "indices": {label: indices[label]
                                    for label in sorted(indices)}})
        pretty = ", ".join(f"{label}:{indices[label]}"
                           for label in sorted(indices))
        lines.append(f"  [{index}] {'ok ' if passed else 'FAIL'} "
                     f"indices {{{pretty}}}")
    if not basis:
        lines.append("  no relations: vacuously true")
    lines.append(f"overall: {'true' if overall else 'false'}")
    payload = {"spec": args.spec, "lattice": lattice.label,
               "scale": args.scale, "group": group.name, "overall": overall,
               "results": results}
    return (0 if overall else 1), Report("index-check", payload, tuple(lines))


# -- driver --------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first :func:`run`.

    It keeps no state between calls: ``parse_args`` returns a fresh
    namespace, :class:`_Parser` raises on errors instead of exiting, and
    the help text is made of constants.
    """
    parser = _Parser(
        prog="factoreq",
        description="Exact G-relations, regulator constants, and "
                    "factor-equivalence checks.",
        epilog=f"group specs: {_KINDS}. Lattice expressions: A, I, Z, Reg, "
               f"Coset(label), Sum(e1,e2,...), e^m. Every group closure stops "
               f"at the order cap of {DESK_SCALE_CAP}; lattice ranks are "
               f"capped at {RANK_CAP}.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--json", action="store_true",
                         help="emit deterministic JSON instead of text")
        return cmd

    cmd = add("group", _cmd_group, "describe a group and its subgroup "
                                   "classes")
    cmd.add_argument("spec", help="group spec, e.g. elemab:3,2")

    cmd = add("relations", _cmd_relations, "print the canonical basis of "
                                           "the relation lattice")
    cmd.add_argument("spec")

    cmd = add("regconst", _cmd_regconst, "evaluate regulator constants of a "
                                         "lattice expression")
    cmd.add_argument("spec")
    cmd.add_argument("lattice", help="lattice expression, e.g. Sum(A,Reg^2)")
    pick = cmd.add_mutually_exclusive_group()
    pick.add_argument("--relation-index", type=int, default=None,
                      metavar="K", help="evaluate on basis relation K only")
    pick.add_argument("--all", action="store_true",
                      help="evaluate on every basis relation (default)")

    cmd = add("bouc", _cmd_bouc, "list the classical generating relations "
                                 "of a p-group, or test the classical "
                                 "condition on a profile")
    cmd.add_argument("spec", nargs="?", default=None)
    cmd.add_argument("--p", type=int, default=None,
                     help="prime for a group spec (inferred for p-groups)")
    cmd.add_argument("--verify-span", action="store_true",
                     help="also verify the generators span the full "
                          "relation lattice")
    cmd.add_argument("--check", metavar="PROFILE.JSON", default=None,
                     help="test the h_p condition from a profile instead")

    cmd = add("factorizable", _cmd_factorizable,
              "decide factorisability of a positive function on the "
              "subgroups of an abelian group")
    cmd.add_argument("spec")
    cmd.add_argument("values", help="JSON object or file mapping class "
                                    "labels to rationals")

    cmd = add("check-units", _cmd_check_units,
              "run the factor-equivalence criteria on a profile")
    cmd.add_argument("profile", help="profile JSON file")
    cmd.add_argument("--candidate", default="A",
                     help="candidate lattice for --p-part: a lattice "
                          "expression or tower:m (default A)")
    cmd.add_argument("--p-part", action="store_true",
                     help="compare p-adic valuations instead of the global "
                          "criterion")

    cmd = add("bk-check", _cmd_bk_check,
              "test the class-number identity on a profile (data sanity)")
    cmd.add_argument("profile")

    cmd = add("index-check", _cmd_index_check,
              "verify the index formula for a scaled identity embedding")
    cmd.add_argument("spec")
    cmd.add_argument("lattice")
    cmd.add_argument("--scale", type=int, default=2, metavar="K",
                     help="embedding K*identity (default 2)")

    return parser


def _single_line(message) -> str:
    return " ".join(str(message).split()) or "unspecified failure"


def run(argv) -> int:
    """Dispatch one invocation; returns the exit code, never raises.

    Cheap to call repeatedly in one process: the argument parser is built
    on the first call and reused, so each further call costs only its
    command's own work.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"error:usage:{_single_line(exc)}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help prints and exits on its own
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "handler", None) is None:
        print("error:usage:a subcommand is required (see --help)",
              file=sys.stderr)
        return 2
    try:
        code, report = args.handler(args)
        text = report.render(args.json)
    except FactoreqError as exc:
        print(f"error:{exc.category}:{_single_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never crash the CLI
        print(f"error:internal:{type(exc).__name__}: {_single_line(exc)}",
              file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
