"""Command-line surface: group specs, lattice expressions, profiles, reports.

Eight subcommands tie the library together; every result can be rendered
as a plain-text table or as deterministic JSON (``--json``), with all
rationals serialized as ``"num/den"`` strings so output round-trips
exactly.  Reports hold relations as objects, which only the JSON writer
expands, so text output builds no JSON.  Every deliberate failure prints
a single line starting with ``error:<category>:`` on stderr and exits
with status 2; a false verdict exits with status 1.
"""

import argparse
import functools
import json
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .checker import (
    ArithmeticProfile,
    ClassData,
    Verdict,
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
    SubgroupClass,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_generators,
    heisenberg_group,
    quaternion_group,
    semidirect_product,
)
from .intmat import _MILLER_RABIN_EXACT_BELOW
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
from .relations import (
    GRelation,
    _spans_in_basis,
    bouc_generators,
    relation_basis,
)

RANK_CAP = 1000
# ASCII digits only: int() would also take "1_000", "+3", " 1" and "١"
_RATIONAL = re.compile(r"-?[0-9]+(/-?[0-9]+)?")

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


def _significant(count: str) -> str:
    """A decimal count in ASCII digits without its leading zeros, so that
    it is measured before int(), which refuses over 4,300 digits."""
    return "".join(str(int(c)) for c in count).lstrip("0")


def _parse_int(text: str, what: str,
               beyond: str = f"is out of range; the order cap is "
                             f"{DESK_SCALE_CAP}",
               over=ValidationError) -> int:
    """``text`` as int() reads it, leading zeros aside.  A decimal that
    int() refuses for its length (``sys.get_int_max_str_digits()``) raises
    ``over``: "<what> of <n> digits <beyond>", ``n`` counted without
    leading zeros; anything else int() refuses is a ParseError."""
    text = text.strip()
    sign = text[:1] if text[:1] in ("+", "-") else ""
    digits = text[len(sign):]
    if digits.isdecimal():
        digits = _significant(digits)
        try:
            return int(sign + (digits or "0"))
        except ValueError:
            raise over(f"{what} of {len(digits)} digits {beyond}") from None
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


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


def _parse_point_tuple(text: str, what: str, *beyond) -> tuple:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"{what} must be parenthesized, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    pieces = inner.split(",") if "," in inner else inner.split()
    return tuple(_parse_int(piece, f"entry of {what}", *beyond)
                 for piece in pieces)


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
            # a point is a label, of no bound: one int() cannot read is
            # unreadable, not out of range
            cycles.append(_parse_point_tuple(
                rest[:close + 1], "cycle", "is too long for int() to read",
                ParseError))
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
            digits = _significant(count) if count.isdecimal() else ""
            if len(digits) > len(str(RANK_CAP)):
                raise ResourceError(f"lattice expression {text!r}: a count "
                                    f"of {len(digits)} digits is over the "
                                    f"rank cap of {RANK_CAP}")
            m = int(digits) if digits else 0
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
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            pass
        except ValueError:  # ASCII digits: int() refuses only their count
            digits = len(max(num, den, key=len).lstrip("-"))
            raise ResourceError(f"{where}: an integer of {digits} digits, "
                                f"more than int() reads") from None
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
        cls = _resolve_label(group, entry["label"], where)
        if cls in table:
            raise ParseError(f"{where}: duplicate label {cls.label!r}")
        fields = {}
        for key, target in (("h", "h"), ("h_p", "h_p"), ("w", "w"),
                            ("lambda", "lam")):
            if key in entry:
                fields[target] = _require_int(entry, key, where)
        if "R" in entry:
            fields["regulator"] = _parse_rational(entry["R"], f"{where}: 'R'")
        table[cls] = ClassData(**fields)
    # keyed by the classes themselves, so no label is looked up twice
    return ArithmeticProfile(group, table, p=p,
                             totally_real=data.get("totally_real", False),
                             odd_degree=data.get("odd_degree", False))


def parse_profile(path: str) -> ArithmeticProfile:
    """Load and validate a profile JSON file (UTF-8)."""
    return profile_from_data(_read_json(path, "profile"), source=path)


def _read_json(path: str, what: str):
    """File ``path`` as JSON, UTF-8; ``what`` names it if it is unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            return _decode_json(handle.read(), path)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def _decode_json(text: str, source: str):
    """``text`` as JSON: a ParseError where it is not JSON, and a
    ResourceError naming ``source`` where it holds an integer longer than
    ``int()`` reads (``sys.get_int_max_str_digits()``)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:  # a ValueError, so caught first
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    except ValueError:
        raise ResourceError(f"{source}: an integer has more than "
                            f"{sys.get_int_max_str_digits()} digits, more "
                            f"than int() reads") from None


def _load_value_table(arg: str):
    """Class-label -> rational mapping, inline JSON or a file path."""
    if arg.lstrip().startswith("{"):
        source, data = "values", _decode_json(arg, "values")
    else:
        source, data = arg, _read_json(arg, "values")
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
    keys, then GRelation and a verdict's :class:`_Results`, written by
    :func:`_write_relation` and :func:`_write_results`.  Anything else, a
    float or a Fraction included, raises TypeError: reports hold no floats.
    A container writes an item of type exactly str or int itself, a
    SubgroupClass as one template, and a key with its indent as one
    f-string, built without temporaries.  The stdlib runs its C encoder
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
    elif isinstance(obj, (list, tuple, dict)):
        mapping = isinstance(obj, dict)
        if not obj:
            out.append("{}" if mapping else "[]")
            return
        inner = newline + "  "
        head = ("{" if mapping else "[") + inner
        separator = "," + inner
        for item in obj.items() if mapping else obj:
            if mapping:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not "
                                    f"{type(key).__name__}")
                out.append(f"{head}{_quote(key)}: ")
            else:
                out.append(head)
            head = separator
            if (kind := type(item)) is str:
                out.append(_quote(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif kind is GRelation:
                _write_relation(item, out, inner)
            elif kind is _Results:
                _write_results(item, out, inner)
            elif kind is SubgroupClass:
                row = inner + "  "
                out.append(
                    f'{{{row}"label": {_quote(item.label)},{row}"order": '
                    f'{item.order},{row}"size": {item.class_size},{row}'
                    f'"cyclic": {"true" if item.is_cyclic else "false"},'
                    f'{row}"normal": {"true" if item.is_normal else "false"}'
                    f'{inner}}}')
            else:
                _write_json(item, out, inner)
        out.append(newline + ("}" if mapping else "]"))
    elif isinstance(obj, GRelation):
        _write_relation(obj, out, newline)
    elif isinstance(obj, _Results):
        _write_results(obj, out, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        f"serializable")


def _write_relation(theta: GRelation, out: list, newline: str,
                    labels=None) -> None:
    """Append ``theta`` as its list of ``{"class": label, "coeff": n}``
    terms, as :func:`_write_json` would write that list, in one string.

    Each term with a coefficient of type exactly int, which an f-string
    formats as ``int.__repr__`` does, is one f-string at the list's
    indent; any other coefficient takes the general route, so a float or
    a Fraction is refused and a bool is written as ``json.dumps`` writes
    it.  ``labels``, if given, holds the quoted label of each class of
    theta's group, made once per report; else each term quotes its own.
    """
    if not theta.coefficients:
        out.append("[]")
        return
    classes = theta.group.subgroup_classes()
    inner = newline + "  "
    key = inner + "  "
    terms = [f'{{{key}"class": '
             f'{_quote(classes[idx].label) if labels is None else labels[idx]}'
             f',{key}"coeff": {coeff}{inner}}}' if type(coeff) is int
             else _json_text({"class": classes[idx].label, "coeff": coeff},
                             inner)
             for idx, coeff in theta.coefficients]
    out.append(f"[{inner}{(',' + inner).join(terms)}{newline}]")


@dataclass(frozen=True)
class _Results:
    """The ``results`` of a verdict report, which only the JSON writer
    expands (:func:`_write_results`): per relation in order, a record
    ``{"relation_index", "relation", "residual", "passed", "factors"}``
    whose factors are ``{"class", "base", "exponent"}``."""

    relations: tuple
    verdict: Verdict


def _write_results(results: _Results, out: list, newline: str) -> None:
    """Append ``results`` as :func:`_write_json` would write its records.

    Each record is one template around its relation, written by
    :func:`_write_relation` from labels quoted once per report.  Each
    distinct (label, base) makes its factor's text up to the exponent
    once, keyed on the base's numerator and denominator, since a
    Fraction's own hash is slow.  A factor whose base is not exactly an int or a
    Fraction, or whose exponent is not exactly an int, takes the general
    route, so a float exponent is refused.
    """
    verdict = results.verdict
    rows = list(zip(results.relations, verdict.residuals,
                    verdict.explanations))
    if not rows:
        out.append("[]")
        return
    group = rows[0][0].group
    labels = [_quote(cls.label) for cls in group.subgroup_classes()]
    inner = newline + "  "      # a record's braces
    key = inner + "  "          # its keys
    term = key + "  "           # a factor's braces
    field = term + "  "         # its keys
    heads = {}
    head = "[" + inner
    for index, (theta, residual, breakdown) in enumerate(rows):
        out.append(f'{head}{{{key}"relation_index": {index},{key}"relation": ')
        head = "," + inner
        _write_relation(theta, out, key,
                        labels if theta.group is group else None)
        factors = []
        for label, base, exponent in breakdown:
            kind = type(base)
            if type(exponent) is not int or (kind is not int
                                             and kind is not Fraction):
                factors.append(_json_text({"class": label, "base": _frs(base),
                                           "exponent": exponent}, term))
                continue
            ints = ((label, base, 1) if kind is int
                    else (label, base.numerator, base.denominator))
            text = heads.get(ints)
            if text is None:
                text = heads[ints] = (f'{{{field}"class": {_quote(label)},'
                                      f'{field}"base": "{_frs(base)}",'
                                      f'{field}"exponent": ')
            factors.append(f"{text}{exponent}{term}}}")
        factors = (f"[{term}{(',' + term).join(factors)}{key}]" if factors
                   else "[]")
        out.append(f',{key}"residual": "{_frs(residual)}",{key}"passed": '
                   f'{"true" if residual == 1 else "false"},{key}"factors": '
                   f'{factors}{inner}}}')
    out.append(newline + "]")


def _json_text(obj, newline: str) -> str:
    out = []
    _write_json(obj, out, newline)
    return "".join(out)


@dataclass
class Report:
    """Structured command output, rendered as text lines or as JSON.

    Handlers pass ``lines`` as a generator: it runs only for text output.
    """

    command: str
    payload: dict
    lines: Iterable[str]

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
    """An int or Fraction as ``"num/den"``; a ResourceError if either is
    longer than ``str()`` writes (``sys.get_int_max_str_digits()``)."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise ResourceError(f"an exact result has more than "
                            f"{sys.get_int_max_str_digits()} digits, more "
                            f"than str() writes") from None


def _verdict_report(command, head, title, verdict, relations):
    """Exit code and report of ``verdict`` on ``relations``: ``head``, the
    overall answer and a result per relation; the text opens with ``title``."""
    results = _Results(tuple(relations), verdict)

    def lines():
        yield title
        rows = list(zip(results.relations, verdict.residuals))
        if not rows:
            yield "  no relations: vacuously true"
        for index, (theta, residual) in enumerate(rows):
            yield (f"  [{index}] {'ok ' if residual == 1 else 'FAIL'} "
                   f"residual {_frs(residual)}  ({theta.describe()})")
        yield f"overall: {'true' if verdict.overall else 'false'}"
    payload = {**head, "overall": verdict.overall, "results": results}
    return (0 if verdict.overall else 1), Report(command, payload, lines())


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
        "classes": classes,
    }

    def lines():
        yield (f"{group.name}: order {group.order}, exponent "
               f"{payload['exponent']}, "
               f"{'abelian' if payload['abelian'] else 'non-abelian'}")
        yield f"subgroup classes ({len(classes)}):"
        yield "  label   order  size  cyclic  normal"
        for cls in classes:
            yield (f"  {cls.label:<7} {cls.order:<6} {cls.class_size:<5} "
                   f"{'yes' if cls.is_cyclic else 'no':<7} "
                   f"{'yes' if cls.is_normal else 'no'}")
    return 0, Report("group", payload, lines())


def _cmd_relations(args):
    group = parse_group_spec(args.spec)
    basis = relation_basis(group)
    payload = {"spec": args.spec, "group": group.name, "rank": len(basis),
               "relations": basis}

    def lines():
        yield f"relation basis of {group.name}: rank {len(basis)}"
        for index, theta in enumerate(basis):
            yield f"  [{index}] {theta.describe()}"
        if not basis:
            yield "  (no relations: every subgroup class is cyclic)"
    return 0, Report("relations", payload, lines())


def _cmd_regconst(args):
    group = parse_group_spec(args.spec)
    lattice = parse_lattice_expr(group, args.lattice)
    basis, pick = relation_basis(group), args.relation_index
    size = f"the basis of {group.name} has {len(basis)} relations"
    if pick is not None:
        pick = _parse_int(pick, "relation index", f"is out of range; {size}")
        if not 0 <= pick < len(basis):
            raise ValidationError(f"relation index {pick} out of range; "
                                  f"{size}")
    chosen = enumerate(basis) if pick is None else [(pick, basis[pick])]
    results = []
    for index, theta in chosen:
        value = regulator_constant(lattice, theta)
        results.append({"relation_index": index, "relation": theta,
                        "value": _frs(value.value),
                        "valuations": {str(p): e for p, e
                                       in sorted(value.valuations.items())}})
    payload = {"spec": args.spec, "group": group.name,
               "lattice": lattice.label, "rank": lattice.rank,
               "results": results}

    def lines():
        yield (f"regulator constants of {lattice.label} (rank "
               f"{lattice.rank}) on {group.name}:")
        for res in results:
            powers = " * ".join(f"{p}^{e}"
                                for p, e in res["valuations"].items())
            yield (f"  [{res['relation_index']}] {res['value']} = "
                   f"{powers or 1}  ({res['relation'].describe()})")
        if not results:
            yield "  (no relations)"
    return 0, Report("regconst", payload, lines())


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
        return _verdict_report(
            "bouc", {"profile": args.check, "group": group.name,
                     "p": profile.p},
            f"classical p-group condition for {group.name} at p={profile.p}:",
            bouc_condition_check(profile, generators), generators)
    if args.spec is None:
        raise ParseError("bouc needs a group spec or --check <profile.json>")
    group = parse_group_spec(args.spec)
    p = (_infer_prime(group) if args.p is None else
         _parse_int(args.p, "--p", f"is out of range; primes are proven "
                                   f"only below {_MILLER_RABIN_EXACT_BELOW}",
                    ResourceError))
    generators = bouc_generators(group, p)
    payload = {"spec": args.spec, "group": group.name, "p": p,
               "count": len(generators), "relations": generators}
    spanning = not args.verify_span or _spans_in_basis(group, generators)
    if args.verify_span:
        payload["spans_full_lattice"] = spanning

    def lines():
        yield (f"classical generators of {group.name} at p={p}: "
               f"{len(generators)}")
        for index, theta in enumerate(generators):
            yield f"  [{index}] {theta.describe()}"
        if args.verify_span:
            yield (f"spans the full relation lattice: "
                   f"{'yes' if spanning else 'NO'}")
    return (0 if spanning else 1), Report("bouc", payload, lines())


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
    per_class = [{"class": cls.label,
                  "f": _frs(function.value(cls.representative)),
                  "quotient": _frs(quotient.value(cls.representative))}
                 for cls in classes]
    payload = {"spec": args.spec, "group": group.name,
               "factorisable": verdict, "classes": per_class}

    def lines():
        yield f"factorisability of f on {group.name}:"
        yield "  class   f        f-tilde"
        for row in per_class:
            yield f"  {row['class']:<7} {row['f']:<8} {row['quotient']}"
        yield f"factorisable: {'yes' if verdict else 'no'}"
    return (0 if verdict else 1), Report("factorizable", payload, lines())


def _candidate_lattice(group: Group, text: str) -> GLattice:
    text = text.strip()
    if text.startswith("tower:"):
        count = text[len("tower:"):].strip()
        if count.isdecimal():  # leading zeros do not count, as in ^m
            count = _significant(count) or "0"
        try:
            floors = int(count)
            if floors < 0:
                raise ParseError("tower parameter must be >= 0")
            _check_rank((2 + floors) * group.order - 1, text)
        except ValueError:  # int() and str() take at most 4,300 digits
            if count.isdecimal():
                raise ResourceError(f"lattice {text!r}: a tower count of "
                                    f"{len(count)} digits is over the rank "
                                    f"cap of {RANK_CAP}")
            raise ParseError(f"tower parameter must be an integer, got "
                             f"{count!r}")
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
    return _verdict_report(
        "check-units", {"profile": args.profile, "group": group.name,
                        "check": check},
        f"{check} for {group.name}:", verdict, basis)


def _cmd_bk_check(args):
    profile = parse_profile(args.profile)
    group = profile.group
    basis = relation_basis(group)
    return _verdict_report(
        "bk-check", {"profile": args.profile, "group": group.name},
        f"class-number identity for {group.name}:",
        brauer_kuroda_check(profile, basis), basis)


def _cmd_index_check(args):
    group = parse_group_spec(args.spec)
    lattice = parse_lattice_expr(group, args.lattice)
    if args.scale < 1:
        raise ValidationError("--scale must be a positive integer")
    embed = tuple(tuple(args.scale if row == col else 0
                        for col in range(lattice.rank))
                  for row in range(lattice.rank))
    basis = relation_basis(group)
    checks = index_ratio_check(lattice, lattice, embed, basis)
    overall = all(passed for passed, _ in checks)
    results = [{"relation_index": index, "relation": theta, "passed": passed,
                "indices": {label: indices[label] for label in sorted(indices)}}
               for index, (theta, (passed, indices))
               in enumerate(zip(basis, checks))]
    payload = {"spec": args.spec, "lattice": lattice.label,
               "scale": args.scale, "group": group.name, "overall": overall,
               "results": results}

    def lines():
        yield (f"index identity for {args.scale}*id on {lattice.label} "
               f"over {group.name}:")
        for res in results:
            pretty = ", ".join(f"{label}:{n}"
                               for label, n in res["indices"].items())
            yield (f"  [{res['relation_index']}] "
                   f"{'ok ' if res['passed'] else 'FAIL'} indices {{{pretty}}}")
        if not basis:
            yield "  no relations: vacuously true"
        yield f"overall: {'true' if overall else 'false'}"
    return (0 if overall else 1), Report("index-check", payload, lines())


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
    pick.add_argument("--relation-index", default=None,
                      metavar="K", help="evaluate on basis relation K only")
    pick.add_argument("--all", action="store_true",
                      help="evaluate on every basis relation (default)")

    cmd = add("bouc", _cmd_bouc, "list the classical generating relations "
                                 "of a p-group, or test the classical "
                                 "condition on a profile")
    cmd.add_argument("spec", nargs="?", default=None)
    cmd.add_argument("--p", default=None,
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
    except RecursionError:  # e.g. by input nested a call per bracket level
        print("error:resource:recursion limit reached", file=sys.stderr)
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
