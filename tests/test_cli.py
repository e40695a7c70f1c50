"""Command-line interface tests.

Frozen expectations: the permutation specs are checked against closure
oracles (S3 from two transpositions), the JSON shapes against the
documented formats, and the exit-code contract (0 true, 1 false verdict,
2 error with an ``error:<category>:`` line on stderr) on every path.
"""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from factoreq import cli, relations
from factoreq.checker import ArithmeticProfile, ClassData, Verdict
from factoreq.cli import (
    _candidate_lattice,
    parse_group_spec,
    parse_lattice_expr,
    parse_profile,
    profile_from_data,
    run,
)
from factoreq.errors import (
    DataError,
    FactoreqError,
    ParseError,
    ResourceError,
    ValidationError,
)
from factoreq.groups import SubgroupClass
from factoreq.lattices import (
    augmentation_lattice,
    coset_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    regular_lattice,
    tower_lattice,
    trivial_lattice,
)
from factoreq.relations import GRelation, relation_basis

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def fixture(name):
    return os.path.join(FIXTURES, name)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- group specs ----------------------------------------------------------------


def test_group_spec_families():
    assert parse_group_spec("cyclic:12").order == 12
    assert parse_group_spec("elemab:3,2").order == 9
    assert parse_group_spec("dihedral:16").order == 16
    assert parse_group_spec("heisenberg:3").order == 27
    assert parse_group_spec("quaternion8").order == 8
    product = parse_group_spec("product:cyclic:2;cyclic:3")
    assert product.order == 6 and product.is_abelian()


def test_group_spec_permutations():
    s3 = parse_group_spec("perm:[(0,1),(1,2)]")
    assert s3.order == 6 and not s3.is_abelian()
    assert parse_group_spec("perm:[(0,1,2),(0,1)]").order == 6
    # juxtaposed disjoint cycles form one generator
    v4 = parse_group_spec("perm:[(0,1)(2,3),(0,2)(1,3)]")
    assert v4.order == 4 and v4.exponent() == 2


def test_group_spec_semidirect():
    s3 = parse_group_spec("semidirect:cyclic:3;cyclic:2;[(0,1,2),(0,2,1)]")
    assert s3.order == 6 and not s3.is_abelian()


def test_group_spec_nesting():
    g = parse_group_spec("product:(product:cyclic:2;cyclic:2);cyclic:2")
    assert g.order == 8 and g.exponent() == 2


@pytest.mark.parametrize("bad", [
    "", "cyclic", "cyclic:x", "elemab:3", "heisenberg:4", "nonsense:7",
    "quaternion8:3", "perm:[]", "perm:[(0,1]", "perm:[(0,1)(1,2)]",
    "product:cyclic:2", "semidirect:cyclic:3;cyclic:2;[(0,1,2)]",
])
def test_group_spec_rejects(bad):
    with pytest.raises((ParseError, ValidationError)):
        parse_group_spec(bad)


@pytest.mark.parametrize("spec, order", [
    ("cyclic:100000", "100000"),
    ("dihedral:100000", "100000"),
    ("elemab:2,30", "1073741824"),
    ("elemab:3,12", "531441"),
    ("elemab:2,1000000000", "2^1000000000"),
    ("heisenberg:7", "343"),
    ("heisenberg:1000000007", "1000000007^3"),
    ("product:cyclic:200;cyclic:200", "40000"),
    ("semidirect:cyclic:100;cyclic:3;[(0)]", "300"),
])
def test_oversized_named_groups_are_refused_before_building(capsys, spec,
                                                            order):
    # the known order is checked against the cap before any closure
    start = time.monotonic()
    code, out, err = invoke(capsys, "group", spec)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error:validation:group of order {order} exceeds the "
                   f"supported cap of 200\n")


@pytest.mark.parametrize("spec", [
    "perm:[(0,1,2,3,4,5,6),(0,1)]",
    "perm:[(0,1,2,3,4,5,6,7,8,9),(0,1)]",
])
def test_oversized_permutation_groups_stop_at_the_cap(capsys, spec):
    # S7 and S10: the closure stops at 201 elements
    start = time.monotonic()
    code, out, err = invoke(capsys, "group", spec)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error:validation:")
    assert "supported cap of 200" in err


def test_perm_points_are_renumbered(capsys):
    # tuples are sized by the points named, not by the largest label
    start = time.monotonic()
    big = invoke(capsys, "group", "perm:[(0,100000000)]", "--json")
    assert time.monotonic() - start < 1
    small = invoke(capsys, "group", "perm:[(0,1)]", "--json")
    assert big[0] == small[0] == 0
    assert big[1].replace("100000000", "1") == small[1]
    assert parse_group_spec("perm:[(5,9)(2,7)]").mul == parse_group_spec(
        "perm:[(2,3)(0,1)]").mul
    spread = invoke(capsys, "relations", "perm:[(3,7,11,20),(3,7)]", "--json")
    packed = invoke(capsys, "relations", "perm:[(0,1,2,3),(0,1)]", "--json")
    assert spread[1].replace("(3,7,11,20),(3,7)", "(0,1,2,3),(0,1)") == (
        packed[1])


# -- lattice expressions ----------------------------------------------------------


def test_lattice_expr_shapes():
    group = parse_group_spec("elemab:2,2")
    assert parse_lattice_expr(group, "A").rank == 3
    assert parse_lattice_expr(group, "I").rank == 3
    assert parse_lattice_expr(group, "Z").rank == 1
    assert parse_lattice_expr(group, "Reg").rank == 4
    assert parse_lattice_expr(group, "Sum(A, I, Z)").rank == 7
    assert parse_lattice_expr(group, "Reg^3").rank == 12
    assert parse_lattice_expr(group, "Sum(A,Z)^2").rank == 8
    assert parse_lattice_expr(group, "Coset(o2#1)").rank == 2


@pytest.mark.parametrize("bad", [
    "", "B", "Sum()", "Sum(A", "A^0", "A I", "A^", "Coset()", "A$", "A^²",
])
def test_lattice_expr_rejects(bad):
    group = parse_group_spec("elemab:2,2")
    with pytest.raises((ParseError, ValidationError)):
        parse_lattice_expr(group, bad)


def test_lattice_power_keeps_the_nested_form():
    group = parse_group_spec("dihedral:8")
    for text, base in (("Z^4", "Z"), ("Sum(A,Reg)^3", "Sum(A,Reg)")):
        lat = parse_lattice_expr(group, text)
        atom = parse_lattice_expr(group, base)
        nested = atom
        for _ in range(int(text[-1]) - 1):
            nested = direct_sum(nested, atom)
        assert (lat.label, lat.rank, lat.actions) == (
            nested.label, nested.rank, nested.actions)
    lat = parse_lattice_expr(group, "Sum(Reg,A,Reg^2)")
    assert [(atom.label, k) for atom, k in lat.summands] == [("Reg", 3),
                                                             ("A", 1)]


def test_rank_cap(monkeypatch, capsys):
    group = parse_group_spec("elemab:2,2")
    e9 = parse_group_spec("elemab:3,2")

    def no_blocks(*parts):
        raise AssertionError("no block may be built over the cap")

    with monkeypatch.context() as m:
        m.setattr(cli, "direct_sum", no_blocks)
        m.setattr(cli, "tower_lattice", no_blocks)
        with pytest.raises(ResourceError, match="rank cap of 1000"):
            parse_lattice_expr(group, "Z^1001")
        with pytest.raises(ResourceError, match="rank 1004"):
            parse_lattice_expr(group, "Sum(" + ",".join(["Reg"] * 251) + ")")
        with pytest.raises(ResourceError, match="rank 4000000000007"):
            _candidate_lattice(group, "tower:1000000000000")
        # 2|G| - 1 + m|G| = 17 + 110 * 9
        with pytest.raises(ResourceError, match="rank 1007"):
            _candidate_lattice(e9, "tower:110")
    assert cli.RANK_CAP == 1000
    assert parse_lattice_expr(group, "Sum(A,Reg)^142").rank == 994
    # the rank 2|G| - 1 + m|G| checked up front is the rank built
    assert _candidate_lattice(e9, "tower:2").rank == 35
    start = time.monotonic()
    code, _, err = invoke(capsys, "regconst", "cyclic:2", "Z^1000000000")
    assert code == 2 and err.startswith("error:resource:")
    assert time.monotonic() - start < 1


def test_counts_past_the_int_digit_limit_are_refused_as_resource(capsys):
    # Python's int() refuses strings of over 4,300 digits; any count with
    # more significant digits than the cap is over it, so it is refused
    # before conversion, while leading zeros do not count
    for count in ("1" * 5000, "9" * 4301, "10000"):
        code, out, err = invoke(capsys, "regconst", "cyclic:2", f"Z^{count}")
        assert (code, out) == (2, "") and err.startswith("error:resource:")
        assert "over the rank cap of 1000" in err
    group = parse_group_spec("cyclic:2")
    assert parse_lattice_expr(group, "Z^" + "0" * 5000 + "7").rank == 7
    # int() reads any decimal digits, so padding in Arabic-Indic zeros is
    # not significant either
    padded = "Z^" + "\u0660" * 5000 + "\u0663"
    assert parse_lattice_expr(group, padded).rank == 3
    assert parse_lattice_expr(group, "Z^0999").rank == 999


def test_integers_past_the_int_digit_limit_are_out_of_range(capsys):
    # int() refuses over 4,300 digits; a longer integer in a group spec or
    # an option is out of range, in the category of a short value out of
    # range, not unreadable
    nines = "9" * 5000
    for long, short in (
            (["group", f"cyclic:{nines}"], ["group", "cyclic:1000"]),
            (["group", f"dihedral:{nines}"], ["group", "dihedral:1000"]),
            (["group", f"heisenberg:{nines}"], ["group", "heisenberg:1009"]),
            (["group", f"elemab:{nines},2"], ["group", "elemab:1009,2"]),
            (["group", f"elemab:2,{nines}"], ["group", "elemab:2,1000"]),
            (["bouc", "cyclic:4", "--p", nines],
             ["bouc", "cyclic:4", "--p", str(2 ** 89 - 1)]),
            (["regconst", "elemab:2,2", "A", "--relation-index", nines],
             ["regconst", "elemab:2,2", "A", "--relation-index", "7"])):
        code, out, err = invoke(capsys, *long)
        assert (code, out) == (2, "")
        assert "of 5000 digits is out of range" in err
        short_code, _, short_err = invoke(capsys, *short)
        assert short_code == 2
        assert err.split(":")[1] == short_err.split(":")[1]
    # a cycle point is a label, of no bound: one too long for int() is
    # unreadable, and says so
    assert invoke(capsys, "group", f"perm:[(0,{'9' * 4301})]") == (
        2, "", "error:parse:entry of cycle of 4301 digits is too long for "
               "int() to read\n")
    # leading zeros do not count, and a short value reads as int() reads it
    for text, order in (("0" * 5000 + "4", 4), ("\u0664", 4), ("+4", 4),
                        (" 1_2 ", 12), ("9" * 4300, None)):
        if order is None:
            with pytest.raises(ValidationError, match="exceeds the supported"):
                parse_group_spec(f"cyclic:{text}")
        else:
            assert parse_group_spec(f"cyclic:{text}").order == order
    code, out, _ = invoke(capsys, "bouc", "cyclic:4", "--p", "0" * 5000 + "2")
    assert code == 0 and out.startswith("classical generators of C4 at p=2")
    for argv, message in (
            (["bouc", "cyclic:4", "--p", "x"], "--p must be an integer"),
            (["regconst", "elemab:2,2", "A", "--relation-index", "1.0"],
             "relation index must be an integer")):
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and err.startswith(f"error:parse:{message}")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
def test_a_lowered_int_digit_limit_is_the_one_read(capsys):
    # -X int_max_str_digits or PYTHONINTMAXSTRDIGITS may lower int()'s
    # limit, to 640 at least; a value past it is out of range all the same
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = invoke(capsys, "group", "cyclic:" + "9" * 1000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error:validation:cyclic order of 1000 digits is "
                          "out of range")


def test_tower_counts_are_read_by_their_significant_digits(capsys):
    # as with ^m, leading zeros do not count toward int()'s 4,300 digits,
    # and a count too long for int(), or whose rank is too long for str(),
    # is over the cap, not unreadable
    good = fixture("elemab32_good.json")
    for count in ("9" * 5000, "1" * 4301, "9" * 4300):
        code, out, err = invoke(capsys, "check-units", good, "--p-part",
                                "--candidate", f"tower:{count}")
        assert (code, out) == (2, "") and err.startswith("error:resource:")
        assert f"a tower count of {len(count)} digits" in err
    group = parse_group_spec("elemab:3,2")
    padded = _candidate_lattice(group, "tower:" + "0" * 5000 + "2")
    assert (padded.label, padded.rank) == ("Tower(2)", 35)
    assert _candidate_lattice(group, "tower:\u0660\u0662").label == "Tower(2)"
    for count, message in (("-1", "tower parameter must be >= 0"),
                           ("x", "tower parameter must be an integer, got "
                                 "'x'"),
                           ("", "tower parameter must be an integer, got "
                                "''")):
        with pytest.raises(ParseError) as info:
            _candidate_lattice(group, f"tower:{count}")
        assert str(info.value) == message


# 1,200 levels pass the default recursion limit of 1,000 on every Python,
# also where a list comprehension takes no frame of its own (3.12 on)
@pytest.mark.parametrize("argv", [
    ["regconst", "elemab:2,2", "Sum(A," * 1200 + "A" + ")" * 1200],
    ["group", "product:cyclic:1;(" * 1200 + "cyclic:1" + ")" * 1200],
])
def test_input_nested_past_the_recursion_limit_is_a_resource_error(
        capsys, argv):
    assert sys.getrecursionlimit() < 1200
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "",
                                "error:resource:recursion limit reached\n")


@pytest.mark.parametrize("text, message", [
    ("product:cyclic:2;cyclic:(3", "unbalanced bracket in "
                                   "'cyclic:2;cyclic:(3'"),
    ("product:cyclic:2);(cyclic:3", "unbalanced bracket at position 8 in "
                                    "'cyclic:2);(cyclic:3'"),
    ("perm:[(0,1)),(1,2)]", "unbalanced bracket at position 5 in "
                            "'(0,1)),(1,2)'"),
    ("semidirect:cyclic:3;cyclic:2;[(0,1,2),((0,2,1)]",
     "unbalanced bracket in 'cyclic:3;cyclic:2;[(0,1,2),((0,2,1)]'"),
])
def test_unbalanced_brackets_are_named_within_their_piece(text, message):
    with pytest.raises(ParseError) as info:
        parse_group_spec(text)
    assert str(info.value) == message


def test_outer_parentheses_are_unwrapped_as_depth_counting_has_it():
    assert parse_group_spec(" ( (cyclic:3) ) ").order == 3
    for text, message in (
            ("(()", "group spec '(' has no parameters"),
            ("(a:1)(b:2)", "unknown group kind '(a'"),
            ("()", "empty group spec")):
        with pytest.raises(ParseError) as info:
            parse_group_spec(text)
        assert message in str(info.value)


def test_deep_nesting_that_reads_today_still_reads(capsys):
    code, out, _ = invoke(capsys, "regconst", "elemab:2,2",
                          "Sum(" * 400 + "A" + ")" * 400)
    assert code == 0 and out.startswith("regulator constants of A (rank 3)")
    code, out, _ = invoke(capsys, "group", "product:cyclic:1;(" * 400
                          + "cyclic:1" + ")" * 400)
    assert code == 0 and "order 1, exponent 1, abelian" in out


def test_tower_candidate_is_the_lattices_tower():
    group = parse_group_spec("heisenberg:3")
    lat = _candidate_lattice(group, " tower:2 ")
    ref = tower_lattice(group, 2)
    assert (lat.label, lat.rank, lat.actions) == (ref.label, ref.rank,
                                                  ref.actions)
    assert lat.label == "Tower(2)" and lat.rank == 26 + 26 + 1 + 2 * 27
    with pytest.raises(ParseError):
        _candidate_lattice(group, "tower:-1")


def test_lattice_expr_unknown_label():
    group = parse_group_spec("elemab:2,2")
    with pytest.raises(ValidationError):
        parse_lattice_expr(group, "Coset(o8#0)")


def test_malformed_expressions_exit_2_with_their_category(capsys):
    # a superscript digit passes str.isdigit but not int()
    code, out, err = invoke(capsys, "regconst", "elemab:2,2", "A^²")
    assert (code, out) == (2, "") and err.startswith("error:parse:")
    # Coset entries are memoized apart from the atom names
    code, out, err = invoke(capsys, "regconst", "elemab:2,2",
                            "Sum(A,Coset(A))")
    assert (code, out) == (2, "") and err.startswith("error:validation:")


_D8 = parse_group_spec("dihedral:8")
_D8_LABELS = [cls.label for cls in _D8.subgroup_classes()]
_NAMED = {"A": cyclic_quotient_lattice, "I": augmentation_lattice,
          "Z": trivial_lattice, "Reg": regular_lattice}
_expr_trees = st.recursive(
    st.sampled_from(sorted(_NAMED)).map(lambda name: (name,))
    | st.sampled_from(_D8_LABELS).map(lambda label: ("Coset", label)),
    lambda inner: (st.lists(inner, min_size=1, max_size=3)
                   .map(lambda parts: ("Sum", *parts))
                   | st.tuples(st.just("^"), inner, st.integers(1, 4))),
    max_leaves=8)


def _render(tree, gap) -> str:
    if tree[0] == "^":
        return f"{_render(tree[1], gap)}^{gap()}{tree[2]}{gap()}"
    if tree[0] == "Sum":
        inner = ",".join(_render(part, gap) for part in tree[1:])
        return f"{gap()}Sum{gap()}({inner}){gap()}"
    if tree[0] == "Coset":
        return f"{gap()}Coset{gap()}({gap()}{tree[1]}{gap()}){gap()}"
    return f"{gap()}{tree[0]}{gap()}"


def _construct(tree, atoms: dict):
    """The lattice of ``tree`` from the constructors, each atom built once."""
    if tree[0] == "^":
        return direct_sum(*[_construct(tree[1], atoms)] * tree[2])
    if tree[0] == "Sum":
        return direct_sum(*[_construct(part, atoms) for part in tree[1:]])
    if tree not in atoms:
        atoms[tree] = (coset_lattice(_D8, tree[1]) if tree[0] == "Coset"
                       else _NAMED[tree[0]](_D8))
    return atoms[tree]


def _tree_rank(tree, atoms: dict) -> int:
    if tree[0] == "^":
        return _tree_rank(tree[1], atoms) * tree[2]
    if tree[0] == "Sum":
        return sum(_tree_rank(part, atoms) for part in tree[1:])
    return _construct(tree, atoms).rank


@settings(max_examples=200, deadline=None)
@given(_expr_trees, st.data())
def test_parsed_expression_is_the_constructed_lattice(tree, data):
    text = _render(tree, lambda: data.draw(st.sampled_from(["", " ", "\t "])))
    atoms = {}
    if _tree_rank(tree, atoms) > cli.RANK_CAP:
        # ranks only grow towards the root, so the root's is the largest
        with pytest.raises(ResourceError):
            parse_lattice_expr(_D8, text)
        return
    expected = _construct(tree, atoms)
    lat = parse_lattice_expr(_D8, text)
    assert (lat.label, lat.rank) == (expected.label, expected.rank)
    assert ([(atom.label, k) for atom, k in lat.summands]
            == [(atom.label, k) for atom, k in expected.summands])


_V4_LABELS = ("o1#0", "o2#1", "o4#0")
_TOKENS = ("A", "I", "Z", "Reg", "Sum", "Coset", "(", ")", ",", "^", "1",
           "2", "3", "10", *_V4_LABELS, " ", "$", "_", "+", "²", "٣")


def _random_expression(rng) -> str:
    """A token string: random tokens, or a valid expression with up to two
    tokens inserted, deleted or replaced."""
    if rng.random() < 0.5:
        return "".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 9)))

    def valid(depth):
        if depth == 2 or rng.random() < 0.5:
            out = ([rng.choice(("A", "I", "Z", "Reg"))] if rng.random() < 0.8
                   else ["Coset", "(", rng.choice(_V4_LABELS), ")"])
        else:
            out = ["Sum", "("]
            for index in range(rng.randint(1, 3)):
                out += [","] * bool(index) + valid(depth + 1)
            out.append(")")
        if rng.random() < 0.3:
            out += ["^", rng.choice(("1", "2", "3", "٣"))]
        return out

    tokens = valid(0)
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at + rng.randint(0, 1)] = [rng.choice(_TOKENS)][
            :rng.randint(0, 1)]
    return rng.choice(("", " ")).join(tokens)


def test_random_token_strings_raise_only_factoreq_errors():
    rng = random.Random(17)
    group = parse_group_spec("elemab:2,2")
    accepted = 0
    for _ in range(20000):
        text = _random_expression(rng)
        try:
            parse_lattice_expr(group, text)
            accepted += 1
        except FactoreqError:
            pass
    assert accepted > 2000


# -- profiles ---------------------------------------------------------------------


def test_parse_profile_fixture():
    profile = parse_profile(fixture("elemab32_good.json"))
    assert profile.group.order == 9 and profile.p == 3
    assert profile.h("o3#0") == 3 and profile.h("o3#2") == 1
    assert profile.w("o9#0") == 2


def test_profile_rational_regulator():
    profile = profile_from_data({
        "group": "cyclic:2",
        "classes": [{"label": "o1#0", "R": "3/2"}],
    })
    from fractions import Fraction
    assert profile.regulator("o1#0") == Fraction(3, 2)


NOT_RATIONALS = ["1_000", "\u0661/2", "+3", "3/+2", " 1/2", "1/2 ", "1/2\n",
                 "1/", "/2", "--1", "1/2/3", "0x10", "1e3", "", "1/0"]


@pytest.mark.parametrize("text", NOT_RATIONALS)
def test_rationals_are_ascii_digits_with_a_minus_sign(text, tmp_path,
                                                       capsys):
    # int() takes underscores, a plus sign, spaces and non-ASCII digits
    with pytest.raises(ParseError, match="exact rational like"):
        profile_from_data({"group": "cyclic:2",
                           "classes": [{"label": "o1#0", "R": text}]})
    values = {"o1#0": 1, "o2#0": 2, "o2#1": 2, "o2#2": 2, "o4#0": text}
    path = tmp_path / "values.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    code, out, err = invoke(capsys, "factorizable", "elemab:2,2", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:parse:") and "exact rational like" in err


def test_rationals_take_a_minus_sign_on_either_side():
    for text, value in (("7", 7), ("-7", -7), ("-3/-2", Fraction(3, 2)),
                        ("3/-2", Fraction(-3, 2)),
                        ("007/010", Fraction(7, 10))):
        assert cli._parse_rational(text, "R") == value


@pytest.mark.parametrize("data,needle", [
    ([], "top level"),
    ({"classes": []}, "group"),
    ({"group": "cyclic:2", "extra": 1}, "extra"),
    ({"group": "cyclic:2", "classes": [{"label": "o9#9"}]}, "valid labels"),
    ({"group": "cyclic:2", "classes": [{"label": "o1#0", "h": 1.5}]}, "h"),
    ({"group": "cyclic:2", "classes": [{"label": "o1#0", "R": 0.5}]},
     "float"),
    ({"group": "cyclic:2", "classes": [{"label": "o1#0", "hp": 1}]}, "hp"),
    ({"group": "cyclic:2", "classes": [{"label": "o1#0"},
                                       {"label": "o1#0"}]}, "duplicate"),
    ({"group": "cyclic:2", "p": True, "classes": []}, "p"),
    ({"group": "cyclic:2", "totally_real": 1, "classes": []},
     "totally_real"),
    ({"group": "cyclic:2", "classes": [{"label": "o1#0", "h": 0}]},
     "positive"),
])
def test_profile_schema_violations(data, needle):
    with pytest.raises((ParseError, DataError, ValidationError),
                       match=needle):
        profile_from_data(data)


def test_parse_profile_bad_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        parse_profile(str(bad))
    with pytest.raises(DataError, match="cannot read"):
        parse_profile(str(tmp_path / "absent.json"))


PROFILE_ERRORS = [  # (fields over an elemab:2,2 profile at p=2, stderr)
    ({"classes": [{"label": "o2#0", "h": 1}, {"label": "o2#0", "h": 2}]},
     "error:parse:{path}: classes[1]: duplicate label 'o2#0'"),
    ({"classes": [{"label": "o3#0"}]},
     "error:data:{path}: classes[0]: unknown class label 'o3#0' for (2^2); "
     "valid labels: o1#0, o2#0, o2#1, o2#2, o4#0"),
    ({"classes": [{"label": 3}]},
     "error:parse:{path}: classes[0]: field 'label' must be a class label "
     "string"),
    ({"classes": [{"label": "o2#1", "hp": 1}]},
     "error:parse:{path}: classes[0]: unknown field 'hp' (allowed: R, h, "
     "h_p, label, lambda, w)"),
    ({"classes": [{"label": "o2#1", "w": True}]},
     "error:parse:{path}: classes[0]: field 'w' must be an integer, got "
     "True"),
    ({"classes": [{"label": "o2#1", "R": 1.5}]},
     "error:parse:{path}: classes[0]: 'R' must be an exact rational "
     "(\"num/den\" string or integer), not a float"),
    ({"classes": [{"label": "o2#1", "h": 0}]},
     "error:validation:h on class o2#1 must be a positive integer"),
    ({"classes": [{"label": "o2#0", "h_p": 6}]},
     "error:validation:h_p on class o2#0 must be a power of 2"),
    ({"classes": [{"label": "o1#0", "R": "-1/2"}]},
     "error:validation:regulator on class o1#0 must be a positive rational"),
    ({"classes": [{"label": "o1#0", "R": 0}]},
     "error:validation:regulator on class o1#0 must be a positive rational"),
    ({"classes": [{"label": "o1#0", "lambda": 2}]},
     "error:validation:lambda of the trivial subgroup is 1 identically"),
    ({"p": 4}, "error:validation:4 is not a prime"),
    ({"p": None, "classes": [{"label": "o2#0", "h_p": 2}]},
     "error:validation:h_p on class o2#0 given without declaring p"),
]


@pytest.mark.parametrize("fields, message", PROFILE_ERRORS)
def test_profile_errors_keep_their_messages(capsys, tmp_path, fields,
                                            message):
    # the CLI validates each class once, through ArithmeticProfile, with
    # the messages and categories it always gave
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"group": "elemab:2,2", "p": 2, **fields}))
    assert invoke(capsys, "bk-check", str(path)) == (
        2, "", message.format(path=path) + "\n")


PROFILE_FIXTURES = ["elemab32_good.json", "elemab32_bad.json",
                    "v4_consistent.json", "v4_perturbed.json"]


@pytest.mark.parametrize("name", PROFILE_FIXTURES)
def test_every_kind_of_class_key_gives_the_cli_data(name):
    # the library takes labels, indices and classes as keys, and dicts or
    # ClassData as entries, with R an int or a Fraction, by one route: each
    # gives the data the CLI reads from the file, R always a Fraction
    via_cli = parse_profile(fixture(name))
    group = via_cli.group
    with open(fixture(name), encoding="utf-8") as handle:
        raw = json.load(handle)
    renamed = {"lambda": "lam", "R": "regulator"}
    for as_int in (False, True):  # an integral R as a Fraction, or an int
        entries = {}
        for entry in raw["classes"]:
            fields = {renamed.get(key, key): value
                      for key, value in entry.items() if key != "label"}
            if "regulator" in fields:
                reg = Fraction(fields["regulator"])
                fields["regulator"] = (reg.numerator
                                       if as_int and reg.denominator == 1
                                       else reg)
            entries[group.class_by_label(entry["label"])] = fields
        for key in (lambda cls: cls.label, lambda cls: cls.index,
                    lambda cls: cls):
            for make in (dict, lambda fields: ClassData(**fields)):
                profile = ArithmeticProfile(
                    group, {key(cls): make(fields)
                            for cls, fields in entries.items()},
                    p=raw.get("p"),
                    totally_real=raw.get("totally_real", False),
                    odd_degree=raw.get("odd_degree", False))
                assert profile.data == via_cli.data
                assert all(type(entry.regulator) is Fraction
                           for entry in profile.data.values()
                           if entry.regulator is not None)


# -- run(): reports and exit codes ---------------------------------------------


def test_relations_json_shape(capsys):
    code, out, err = invoke(capsys, "relations", "elemab:3,2", "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["command"] == "relations" and data["rank"] == 1
    coeffs = {entry["class"]: entry["coeff"]
              for entry in data["relations"][0]}
    assert coeffs == {"o1#0": 1, "o3#0": -1, "o3#1": -1, "o3#2": -1,
                      "o3#3": -1, "o9#0": 3}


def test_regconst_closed_form(capsys):
    code, out, err = invoke(capsys, "regconst", "elemab:3,2", "A", "--all",
                            "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["value"] == "9/1"
    assert data["results"][0]["valuations"] == {"3": 2}


def test_regconst_cyclic_quotient_at_rank_124(capsys):
    # C(A) = prod |H|^(n_H) on every basis relation of Heis(5)
    code, out, _ = invoke(capsys, "regconst", "heisenberg:5", "A", "--json")
    assert code == 0
    data = json.loads(out)
    group = parse_group_spec("heisenberg:5")
    assert data["rank"] == 124
    assert len(data["results"]) == len(relation_basis(group)) > 0
    for result in data["results"]:
        expected = Fraction(1)
        for entry in result["relation"]:
            order = group.class_by_label(entry["class"]).order
            expected *= Fraction(order) ** entry["coeff"]
        assert Fraction(result["value"]) == expected


def test_regconst_relation_index(capsys):
    code, out, _ = invoke(capsys, "regconst", "elemab:3,2", "I",
                          "--relation-index", "0", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "1/9"
    code, _, err = invoke(capsys, "regconst", "elemab:3,2", "I",
                          "--relation-index", "5")
    assert code == 2 and err.startswith("error:validation:")


def test_group_report_round_trips(capsys):
    code, out, _ = invoke(capsys, "group", "dihedral:8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8 and len(data["classes"]) == 8
    assert json.dumps(data, indent=2) + "\n" == out


def test_json_output_deterministic(capsys):
    first = invoke(capsys, "regconst", "dihedral:8", "Sum(A,Reg)", "--json")
    second = invoke(capsys, "regconst", "dihedral:8", "Sum(A,Reg)", "--json")
    assert first == second


# -- the JSON writer -------------------------------------------------------------


def written(obj):
    out = []
    cli._write_json(obj, out, "\n")
    return "".join(out)


def _relation_json(theta):
    """A relation as the list of ``{"class", "coeff"}`` records that the
    writer expands it into: the oracle for its one template per term."""
    classes = theta.group.subgroup_classes()
    return [{"class": classes[idx].label, "coeff": coeff}
            for idx, coeff in theta.coefficients]


def _ratio(value):
    return f"{value.numerator}/{value.denominator}"


def _results_json(results):
    """A verdict's results as the records, one dict per result and per
    factor, that the writer expands them into: the oracle for its one
    template per result."""
    verdict = results.verdict
    return [{"relation_index": index, "relation": theta,
             "residual": _ratio(residual), "passed": residual == 1,
             "factors": [{"class": label, "base": _ratio(base),
                          "exponent": exponent}
                         for label, base, exponent in breakdown]}
            for index, (theta, residual, breakdown) in enumerate(
                zip(results.relations, verdict.residuals,
                    verdict.explanations))]


def _class_json(cls):
    """A subgroup class as the record that the writer expands it into: the
    oracle for its one template per class."""
    return {"label": cls.label, "order": cls.order, "size": cls.class_size,
            "cyclic": cls.is_cyclic, "normal": cls.is_normal}


def _expanded(obj):
    """``json.dumps``'s ``default``: the dict route of every object that a
    report holds for the writer to expand."""
    if isinstance(obj, GRelation):
        return _relation_json(obj)
    if isinstance(obj, SubgroupClass):
        return _class_json(obj)
    if isinstance(obj, cli._Results):
        return _results_json(obj)
    raise TypeError(f"{type(obj).__name__} is not expanded by the writer")


_text = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\/\x00\x07\x1f\x7f\n\té€'
                                  '\U0001f600\U0010fc00\ud800\udfff'))
_ints = st.integers() | st.sampled_from([2 ** 64, -2 ** 64 - 1, 2 ** 200,
                                         -(3 ** 90), 0, -1])
_trees = st.recursive(
    st.none() | st.booleans() | _ints | _text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_writer_matches_json_dumps_indent_2(obj):
    assert written(obj) == json.dumps(obj, indent=2)


def test_writer_on_empty_and_deeply_nested_containers():
    deep = "leaf"
    for depth in range(150):
        deep = [deep, {}] if depth % 2 else {"k": deep, "e": [], "t": ()}
    for obj in ([], {}, (), [[]], {"": {}}, [(), [[], {}]], deep, "x", 7,
                None, True, False):
        assert written(obj) == json.dumps(obj, indent=2)


class _Level(IntEnum):
    HIGH = 3


class _Label(str):
    pass


def test_writer_on_scalars_that_are_not_exactly_str_or_int():
    # containers write exact str and int items themselves; bool, None and
    # subclasses of int and str take the general route
    scalars = [True, False, None, _Level.HIGH, _Label("o2#0"), 5, "s"]
    for obj in (scalars, tuple(scalars), {"k": scalars},
                {str(i): x for i, x in enumerate(scalars)},
                [{_Label("key"): x} for x in scalars]):
        assert written(obj) == json.dumps(obj, indent=2)


_RELATION_GROUP = parse_group_spec("dihedral:8")
_relations = st.lists(
    st.tuples(st.integers(0, len(_RELATION_GROUP.subgroup_classes()) - 1),
              _ints.filter(bool)),
    max_size=6, unique_by=lambda term: term[0]).map(
    lambda terms: GRelation(_RELATION_GROUP, tuple(sorted(terms))))
_relation_trees = st.recursive(
    _relations | st.none() | _ints | _text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_relation_trees)
def test_writer_matches_json_dumps_on_relations_at_any_depth(obj):
    # relations at top level, in lists and as dict values, the empty
    # relation among them, with coefficients of either sign past 2^64
    assert written(obj) == json.dumps(obj, indent=2, default=_relation_json)


def test_writer_on_relation_coefficients_that_are_not_exactly_int():
    # a bool and an int subclass are written as json.dumps writes them;
    # a float or a Fraction is refused, as anywhere in a report
    group = _RELATION_GROUP
    for coeff in (True, False, _Level.HIGH, 2 ** 70, -(3 ** 50)):
        for obj in (GRelation(group, ((0, 1), (2, coeff))),
                    {"r": [GRelation(group, ((1, coeff),))]}):
            assert written(obj) == json.dumps(obj, indent=2,
                                              default=_relation_json)
    for coeff in (1.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            written([GRelation(group, ((0, 1), (3, coeff)))])


@pytest.mark.parametrize("spec", ["dihedral:8", "elemab:2,3", "cyclic:1",
                                  "perm:[(0,1,2,3),(0,1)]"])
def test_writer_matches_json_dumps_on_subgroup_classes(spec):
    # a class table at the top of a report and nested deeper, as records
    classes = parse_group_spec(spec).subgroup_classes()
    for obj in ([*classes], {"classes": classes},
                [{"c": [cls, None]} for cls in classes]):
        assert written(obj) == json.dumps(obj, indent=2, default=_class_json)


@pytest.mark.parametrize("obj", [1.5, Fraction(1, 2), {1: "x"},
                                 [{"a": [0.0]}], {"a": {None: 1}}, {1, 2},
                                 {"a": 1.5}, [1, 2.5],
                                 {"a": Fraction(1, 2)}])
def test_writer_refuses_floats_fractions_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        written(obj)


_bases = (st.integers(1, 12) | st.sampled_from([2 ** 70, 3 ** 45])
          | st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)))
_factors = st.lists(
    st.tuples(st.sampled_from([cls.label for cls in
                               _RELATION_GROUP.subgroup_classes()]
                              + ["Tower(1)", "\u00e9\"\\"]),
              _bases, st.integers(-3, 3)),
    max_size=6)


def _verdict_of(breakdowns):
    residuals = []
    for breakdown in breakdowns:
        residual = Fraction(1)
        for _, base, exponent in breakdown:
            residual *= Fraction(base) ** exponent
        residuals.append(residual)
    return Verdict(tuple(residuals), all(r == 1 for r in residuals),
                   tuple(map(tuple, breakdowns)))


_results = st.lists(st.tuples(_relations, _factors), max_size=5).map(
    lambda rows: cli._Results(tuple(theta for theta, _ in rows),
                              _verdict_of([factors for _, factors in rows])))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_results | _relations | _ints,
                    lambda inner: (st.lists(inner, max_size=3)
                                   | st.dictionaries(_text, inner,
                                                     max_size=3)),
                    max_leaves=6))
def test_writer_matches_json_dumps_on_verdict_results(obj):
    # results at top level, in lists and as dict values; int and Fraction
    # bases, equal ones of either type among them, exponents of either
    # sign, labels that are no class (a candidate lattice's) and the empty
    # results list and breakdown
    assert written(obj) == json.dumps(obj, indent=2, default=_expanded)


def test_writer_on_verdict_values_that_are_not_exactly_int_or_fraction():
    # an int subclass base and a bool or int subclass exponent are written
    # as json.dumps writes the dict route; a float exponent is refused
    theta = GRelation(_RELATION_GROUP, ((0, 1), (2, -1)))
    for base, exponent in ((_Level.HIGH, 1), (3, True), (Fraction(3), False),
                           (Fraction(1, 3), _Level.HIGH), (True, 2)):
        results = cli._Results((theta,), _verdict_of(
            [[("o1#0", base, exponent), ("o2#0", 3, 1)]]))
        assert written({"results": results}) == json.dumps(
            {"results": results}, indent=2, default=_expanded)
    verdict = Verdict((Fraction(1),), True, ((("o1#0", 1, 1.5),),))
    with pytest.raises(TypeError):
        written([cli._Results((theta,), verdict)])


EVERY_SUBCOMMAND = [
    ["group", "dihedral:8"],
    ["relations", "elemab:3,2"],
    ["regconst", "dihedral:8", "Sum(A,Reg)"],
    ["bouc", "heisenberg:3", "--verify-span"],
    ["bouc", "--check", fixture("elemab32_good.json")],
    ["factorizable", "elemab:2,2", fixture("v4_order_values.json")],
    ["check-units", fixture("elemab32_bad.json")],
    ["check-units", fixture("elemab32_good.json"), "--p-part",
     "--candidate", "tower:2"],
    ["bk-check", fixture("v4_perturbed.json")],
    ["index-check", "heisenberg:3", "Sum(A,I)", "--scale", "3"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_every_subcommand_prints_json_dumps_indent_2(capsys, argv):
    args = cli._build_parser().parse_args([*argv, "--json"])
    code, report = args.handler(args)
    expected = json.dumps({"command": report.command, **report.payload},
                          indent=2, default=_expanded) + "\n"
    assert invoke(capsys, *argv, "--json") == (code, expected, "")


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_json_output_formats_no_text_lines(capsys, monkeypatch, argv):
    # the text lines are a generator that --json never runs, so no
    # relation is described; the text output still describes them
    described = []
    describe = GRelation.describe
    monkeypatch.setattr(GRelation, "describe",
                        lambda rel: described.append(rel) or describe(rel))
    code, _, err = invoke(capsys, *argv, "--json")
    assert err == "" and described == []
    assert invoke(capsys, *argv)[0] == code
    assert bool(described) == (argv[0] not in ("group", "factorizable",
                                               "index-check"))


def test_every_subcommand_output_is_the_recorded_one(capsys, monkeypatch):
    # exit code and sha256 of the text and of the --json output, run from
    # the repository root so that profile paths print the same everywhere
    monkeypatch.chdir(ROOT)
    listing = []
    for argv in [*EVERY_SUBCOMMAND, ["relations", "elemab:2,5"]]:
        argv = [os.path.relpath(arg, ROOT) if arg.startswith(FIXTURES)
                else arg for arg in argv]
        for flags in ([], ["--json"]):
            code, out, err = invoke(capsys, *argv, *flags)
            assert err == ""
            digest = hashlib.sha256(out.encode()).hexdigest()
            listing.append(f"{digest} {code} {' '.join(argv + flags)}\n")
    with open(fixture("every_subcommand.sha256"), encoding="utf-8") as handle:
        assert listing == handle.readlines()


def test_a_render_failure_is_an_internal_error(capsys, monkeypatch):
    def handler(args):
        return 0, cli.Report("group", {"order": Fraction(1, 2)}, ("ok",))

    monkeypatch.setattr(cli, "_cmd_group", handler)
    cli._build_parser.cache_clear()
    try:
        code, out, err = invoke(capsys, "group", "cyclic:2", "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error:internal:TypeError: ")
        assert err.count("\n") == 1
        # the text report of the same handler still renders
        assert invoke(capsys, "group", "cyclic:2") == (0, "ok\n", "")
    finally:
        cli._build_parser.cache_clear()  # rebuilt with the real handler


def readme_examples():
    """(argv, output lines shown) for each ``$ factoreq`` console example.

    The output shown runs to the next blank line or code fence.
    """
    text = Path(ROOT, "README.md").read_text(encoding="utf-8")
    examples, shown = [], None
    for line in text.splitlines():
        if line.startswith("$ factoreq "):
            shown = []
            examples.append((shlex.split(line)[2:], shown))
        elif shown is not None and line and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None
    return examples


def test_readme_console_examples(capsys, monkeypatch):
    examples = readme_examples()
    assert len(examples) == 5
    monkeypatch.chdir(ROOT)
    for argv, shown in examples:
        code, out, err = invoke(capsys, *argv)
        assert code in (0, 1) and err == "", argv
        got = out.splitlines()
        marks = [line.strip() for line in shown]
        if "..." in marks:  # a line "..." ends what is compared
            stop = marks.index("...")
            assert got[:stop] == shown[:stop] and len(got) > stop, argv
        else:
            assert got == shown, argv


def test_check_units_exit_codes(capsys):
    code, out, _ = invoke(capsys, "check-units",
                          fixture("elemab32_good.json"))
    assert code == 0 and "overall: true" in out
    code, out, _ = invoke(capsys, "check-units", fixture("elemab32_bad.json"),
                          "--json")
    assert code == 1
    data = json.loads(out)
    assert data["results"][0]["residual"] == "9/1"
    assert data["overall"] is False


def test_check_units_p_part(capsys):
    code, out, _ = invoke(capsys, "check-units", fixture("elemab32_bad.json"),
                          "--p-part", "--json")
    assert code == 1
    assert json.loads(out)["results"][0]["residual"] == "1/81"
    code, out, _ = invoke(capsys, "check-units", fixture("elemab32_bad.json"),
                          "--p-part", "--candidate", "tower:2")
    assert code == 0
    code, _, err = invoke(capsys, "check-units",
                          fixture("elemab32_good.json"), "--candidate", "I")
    assert code == 2 and err.startswith("error:parse:")


@pytest.mark.parametrize("field, value, expected", [
    # a 17-digit prime regulator: the p-part needs one division, not its
    # factorization
    ("R", "10000000000000061/1", (1, "residual 1/4")),
    ("h_p", 2 * 10000000000000061,
     (2, "error:validation:h_p on class o1#0 must be a power of 2")),
])
def test_p_part_valuations_of_large_primes(capsys, tmp_path, field, value,
                                           expected):
    with open(fixture("v4_consistent.json")) as handle:
        data = json.load(handle)
    data["p"] = 2
    for entry in data["classes"]:
        if field == "R":
            entry["R"] = value
        else:
            entry["h_p"] = value if entry["label"] == "o1#0" else 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    code, out, err = invoke(capsys, "check-units", str(path), "--p-part")
    assert time.monotonic() - start < 1
    assert code == expected[0] and expected[1] in out + err


NOT_A_BIG_P_GROUP = ("error:validation:group of order 4 is not a "
                     "10000000000000061-group")


@pytest.mark.parametrize("argv, expected", [
    (["check-units", "{profile}", "--p-part"], (0, "overall: true")),
    (["bouc", "--check", "{profile}"], (2, NOT_A_BIG_P_GROUP)),
    (["bouc", "elemab:2,2", "--p", "10000000000000061"],
     (2, NOT_A_BIG_P_GROUP)),
])
def test_large_declared_prime_is_tested_at_once(capsys, tmp_path, argv,
                                                expected):
    # a 17-digit prime p: trial division up to sqrt(p) took 6-21 s a command
    path = tmp_path / "big_p.json"
    path.write_text(json.dumps({
        "group": "elemab:2,2", "p": 10000000000000061,
        "classes": [{"label": label, "h": 1, "h_p": 1, "w": 2, "lambda": 1,
                     "R": "1"}
                    for label in ("o1#0", "o2#0", "o2#1", "o2#2", "o4#0")]}))
    start = time.monotonic()
    code, out, err = invoke(capsys, *[arg.format(profile=path)
                                      for arg in argv])
    assert time.monotonic() - start < 1
    assert code == expected[0] and expected[1] in out + err


def test_bk_check(capsys):
    assert invoke(capsys, "bk-check", fixture("v4_consistent.json"))[0] == 0
    code, out, _ = invoke(capsys, "bk-check", fixture("v4_perturbed.json"),
                          "--json")
    assert code == 1
    assert json.loads(out)["results"][0]["residual"] == "1/2"


def test_bk_check_factors_reassemble_the_residual(capsys):
    code, out, _ = invoke(capsys, "bk-check", fixture("v4_perturbed.json"),
                          "--json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results
    for result in results:
        product = Fraction(1)
        for factor in result["factors"]:
            product *= Fraction(factor["base"]) ** factor["exponent"]
        assert product == Fraction(result["residual"])
        assert ([factor["class"] for factor in result["factors"]]
                == [term["class"] for term in result["relation"]])


def _elemab24_profile(seed):
    """A (2^4) profile shaped like the benchmark's: every one of the 67
    classes with h, a power h_p of 2, w, lambda and R, mostly failing."""
    rng = random.Random(seed)
    group = parse_group_spec("elemab:2,4")
    classes = []
    for cls in group.subgroup_classes():
        lam = 1 if cls.order == 1 else rng.choice([1, 2])
        classes.append({"label": cls.label, "h": rng.randrange(1, 10 ** 6),
                        "h_p": 2 ** rng.randrange(0, 80),
                        "w": rng.choice([2, 4, 8]), "lambda": lam,
                        "R": f"{rng.randrange(1, 2 ** 20)}/"
                             f"{rng.randrange(1, 3 ** 16)}"})
    return {"group": "elemab:2,4", "p": 2, "classes": classes}


def _c8_profile():
    return {"group": "cyclic:8", "p": 2, "classes": [
        {"label": cls.label, "h": 1, "h_p": 1, "w": 2, "lambda": 1, "R": "1"}
        for cls in parse_group_spec("cyclic:8").subgroup_classes()]}


VERDICT_PROFILES = [fixture("elemab32_good.json"), fixture("elemab32_bad.json"),
                    fixture("v4_consistent.json"), fixture("v4_perturbed.json"),
                    "c8", "elemab24"]
VERDICT_COMMANDS = [["check-units", "{}"],
                    ["check-units", "{}", "--p-part"],
                    ["check-units", "{}", "--p-part", "--candidate", "tower:1"],
                    ["bk-check", "{}"], ["bouc", "--check", "{}"]]


def test_verdict_json_equals_the_dict_route(capsys, tmp_path):
    # every verdict command on every profile: pass and FAIL, Fraction bases
    # of either sign of exponent, a cyclic group's empty results and a
    # (2^4) profile like the benchmark's; the writer's output is the
    # json.dumps of the dict route, and a check the profile cannot run
    # fails as it does in text
    paths = []
    for name in VERDICT_PROFILES:
        if name in ("c8", "elemab24"):
            data = _c8_profile() if name == "c8" else _elemab24_profile(7)
            name = tmp_path / f"{name}.json"
            name.write_text(json.dumps(data))
        paths.append(str(name))
    seen = set()
    for path in paths:
        for argv in VERDICT_COMMANDS:
            argv = [arg.format(path) for arg in argv]
            try:
                args = cli._build_parser().parse_args([*argv, "--json"])
                code, report = args.handler(args)
            except FactoreqError as exc:
                assert invoke(capsys, *argv, "--json")[::2] == (
                    2, f"error:{exc.category}:{exc}\n")
                seen.add("error")
                continue
            expected = json.dumps({"command": report.command,
                                   **report.payload},
                                  indent=2, default=_expanded) + "\n"
            assert invoke(capsys, *argv, "--json") == (code, expected, "")
            results = json.loads(expected)["results"]
            seen.add(code)
            if not results:
                seen.add("empty")
            if any(factor["exponent"] < 0 for res in results
                   for factor in res["factors"]):
                seen.add("negative")
    assert seen == {0, 1, "negative", "empty", "error"}


def _v4_profile(h_o4):
    classes = [{"label": label, "h": 1, "w": 2, "lambda": 1, "R": "1"}
               for label in ("o1#0", "o2#0", "o2#1", "o2#2")]
    classes.append({"label": "o4#0", "h": h_o4, "w": 2, "lambda": 1,
                    "R": "1"})
    return {"group": "elemab:2,2", "classes": classes}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_result_too_long_to_write_is_a_resource_error(capsys, tmp_path,
                                                        flags):
    # a 4,000-digit h is readable, but the residual's h^2 is too long for
    # str(): one error:resource: line that names the limit, in text and
    # JSON alike; a lowered limit is the one named
    path = tmp_path / "long_h.json"
    path.write_text(json.dumps(_v4_profile(int("7" * 4000))))
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "check-units", str(path), *flags)
    assert (code, out) == (2, "")
    assert err == (f"error:resource:an exact result has more than {limit} "
                   f"digits, more than str() writes\n")
    sys.set_int_max_str_digits(640)
    try:
        path.write_text(json.dumps(_v4_profile(int("7" * 400))))
        code, out, err = invoke(capsys, "bk-check", str(path), *flags)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error:resource:an exact result has more than 640 ")
    # short of the limit the same profile gives its verdict
    path.write_text(json.dumps(_v4_profile(int("7" * 400))))
    assert invoke(capsys, "check-units", str(path), *flags)[0] == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
@pytest.mark.parametrize("argv, text", [
    (["check-units", "{path}"],
     '{{"group": "elemab:2,2", "p": {nines}}}'),
    (["factorizable", "elemab:2,2", "{path}"], '{{"o1#0": {nines}}}'),
])
def test_an_integer_too_long_to_read_is_a_resource_error(capsys, tmp_path,
                                                         argv, text):
    # json reads an integer by int(), which refuses over 4,300 digits: the
    # file holds more than can be read, as with a long count; JSON that
    # fails to parse before the integer stays a parse error
    path = tmp_path / "long.json"
    path.write_text(text.format(nines="9" * 5000))
    argv = [arg.format(path=path) for arg in argv]
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error:resource:{path}: an integer has more than "
                   f"{limit} digits, more than int() reads\n")
    path.write_text(text.format(nines="9" * 5000).replace(":", "", 1))
    code, _, err = invoke(capsys, *argv)
    assert code == 2 and err.startswith(f"error:parse:{path}: invalid JSON")
    code, _, err = invoke(capsys, "factorizable", "elemab:2,2",
                          '{"o1#0": ' + "9" * 5000 + "}")
    assert code == 2 and err.startswith("error:resource:values: an integer ")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
@pytest.mark.parametrize("argv, where, text", [
    (["bk-check", "{path}"], "classes[0]: 'R'", "{nines}/7"),
    (["bk-check", "{path}"], "classes[0]: 'R'", "-{nines}"),
    (["factorizable", "elemab:2,2", "{path}"], "value for o1#0", "1/{nines}"),
    (["factorizable", "elemab:2,2", "{path}"], "value for o1#0",
     "-3/-{nines}"),
])
def test_a_rational_string_too_long_to_read_is_a_resource_error(
        capsys, tmp_path, argv, where, text):
    # a numerator or denominator longer than int() reads is named by its
    # digit count, as the same integer as a JSON number is, and not quoted
    value = text.format(nines="9" * 5000)
    if argv[0] == "bk-check":
        data = _v4_profile(1)
        data["classes"][0]["R"] = value
    else:
        data = {"o1#0": value}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, *[arg.format(path=path) for arg in argv])
    assert (code, out) == (2, "")
    assert err == (f"error:resource:{path}: {where}: an integer of 5000 "
                   f"digits, more than int() reads\n")


@pytest.mark.parametrize("argv, data", [
    (["check-units", "{path}"], b'{"group": "\xff"}'),
    (["factorizable", "elemab:2,2", "{path}"], b'{"o1#0": "\xff"}'),
])
def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, argv,
                                                  data):
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    start = data.index(b"\xff")
    assert invoke(capsys, *[arg.format(path=path) for arg in argv]) == (
        2, "", f"error:parse:{path}: not UTF-8 text: invalid start byte at "
               f"byte {start}\n")


def test_bouc_listing_and_span(capsys):
    code, out, _ = invoke(capsys, "bouc", "dihedral:8", "--verify-span",
                          "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4 and data["spans_full_lattice"] is True
    code, _, err = invoke(capsys, "bouc", "dihedral:6")
    assert code == 2 and err.startswith("error:validation:")


def test_bouc_verify_span_checks_each_generator_once(capsys, monkeypatch):
    # bouc_generators checks every generator it builds, and the span check
    # takes them as they are: 448 is_relation calls, not 896
    calls = []
    is_relation = relations.is_relation
    monkeypatch.setattr(relations, "is_relation",
                        lambda *args: calls.append(1) or is_relation(*args))
    code, out, _ = invoke(capsys, "bouc", "product:dihedral:8;elemab:2,2",
                          "--verify-span", "--json")
    data = json.loads(out)
    assert code == 0 and data["spans_full_lattice"] is True
    assert data["count"] == len(calls) == 448


@pytest.mark.parametrize("argv", [  # (exit code, argv)
    (0, ["relations", "dihedral:16"]),
    (0, ["bouc", "dihedral:16", "--verify-span"]),
    (0, ["regconst", "dihedral:16", "Sum(A,Reg)"]),
    (0, ["index-check", "dihedral:8", "Sum(A,I)"]),
    (1, ["check-units", fixture("elemab32_bad.json")]),
    (0, ["check-units", fixture("elemab32_good.json"), "--p-part"]),
    (1, ["bk-check", fixture("v4_perturbed.json")]),
    (0, ["bouc", "--check", fixture("elemab32_good.json")]),
])
def test_text_output_builds_no_relation_json(capsys, monkeypatch, argv):
    # the relations and a verdict's results are expanded only by the
    # --json writer; text output, which lists the same relations as lines,
    # expands none of them, and --json expands each exactly once
    expected, argv = argv
    built, results = [], []
    write_relation, write_results = cli._write_relation, cli._write_results
    monkeypatch.setattr(cli, "_write_relation",
                        lambda theta, *rest: built.append(theta)
                        or write_relation(theta, *rest))
    monkeypatch.setattr(cli, "_write_results",
                        lambda res, *rest: results.append(res)
                        or write_results(res, *rest))
    code, out, _ = invoke(capsys, *argv)
    assert built == results == [] and "  [0] " in out
    json_code, out, _ = invoke(capsys, *argv, "--json")
    data = json.loads(out)
    written = (data["relations"] if "relations" in data
               else [res["relation"] for res in data["results"]])
    assert code == json_code == expected and len(built) == len(written) > 0
    assert [_relation_json(theta) for theta in built] == written
    verdict = argv[0] in ("check-units", "bk-check") or "--check" in argv
    assert len(results) == verdict


def test_bouc_infers_no_prime_from_order_one_or_a_mixed_order(capsys):
    code, _, err = invoke(capsys, "bouc", "cyclic:1")
    assert code == 2
    assert err == ("error:validation:C1 has order 1, which names no prime; "
                   "pass --p\n")
    code, _, err = invoke(capsys, "bouc", "cyclic:6")
    assert code == 2
    assert err == ("error:validation:C6 has order 6 with several prime "
                   "factors; pass --p\n")
    code, out, _ = invoke(capsys, "bouc", "cyclic:1", "--p", "2")
    assert code == 0 and out.startswith("classical generators of C1 at p=2: 0")


def test_bouc_profile_check(capsys):
    assert invoke(capsys, "bouc", "--check",
                  fixture("elemab32_good.json"))[0] == 0
    code, out, _ = invoke(capsys, "bouc", "--check",
                          fixture("elemab32_bad.json"), "--json")
    assert code == 1
    assert json.loads(out)["results"][0]["residual"] == "9/1"


def test_bouc_check_takes_its_prime_from_the_profile(capsys, tmp_path):
    # --p belongs to the group-spec form, like the spec itself
    code, _, err = invoke(capsys, "bouc", "--check",
                          fixture("elemab32_good.json"), "--p", "3")
    assert code == 2 and err.startswith("error:parse:")
    # no prime is inferred: a profile without p is a data error, also on a
    # group whose order has several prime factors
    c6 = tmp_path / "c6.json"
    c6.write_text(json.dumps({"group": "cyclic:6", "classes": [
        {"label": "o1#0", "h": 1, "w": 2, "lambda": 1}]}))
    code, _, err = invoke(capsys, "bouc", "--check", str(c6))
    assert code == 2
    assert err.startswith("error:data:") and "declared prime p" in err
    code, _, err = invoke(capsys, "bouc", "--check", str(c6), "--p", "2")
    assert code == 2 and err.startswith("error:parse:")
    e9 = tmp_path / "e9.json"
    data = json.loads(Path(fixture("elemab32_good.json")).read_text())
    del data["p"]
    for cls in data["classes"]:
        del cls["h_p"]
    e9.write_text(json.dumps(data))
    code, _, err = invoke(capsys, "bouc", "--check", str(e9))
    assert code == 2
    assert err.startswith("error:data:") and "declared prime p" in err


def test_factorizable_command(capsys):
    code, out, _ = invoke(capsys, "factorizable", "elemab:2,2",
                          fixture("v4_order_values.json"), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["factorisable"] is False
    quotients = {entry["class"]: entry["quotient"]
                 for entry in data["classes"]}
    assert quotients["o4#0"] == "2/1"
    inline = json.dumps({"o1#0": 1, "o2#0": 1, "o2#1": 1, "o2#2": 1,
                         "o4#0": 1})
    assert invoke(capsys, "factorizable", "elemab:2,2", inline)[0] == 0


def test_factorizable_accepts_character_data(capsys):
    from factoreq.factorisable import function_from_character_data
    from factoreq.groups import elementary_abelian_group
    v4 = elementary_abelian_group(2, 2)
    fn = function_from_character_data(v4, (1, 2, 1, 3))
    values = {cls.label: f"{fn.value(cls.representative).numerator}/"
                         f"{fn.value(cls.representative).denominator}"
              for cls in v4.subgroup_classes()}
    code, out, _ = invoke(capsys, "factorizable", "elemab:2,2",
                          json.dumps(values), "--json")
    assert code == 0 and json.loads(out)["factorisable"] is True


def test_factorizable_value_errors(capsys):
    code, _, err = invoke(capsys, "factorizable", "elemab:2,2",
                          '{"o1#0": 1}')
    assert code == 2 and err.startswith("error:data:")
    code, _, err = invoke(capsys, "factorizable", "elemab:2,2",
                          '{"o9#9": 1}')
    assert code == 2
    assert err == ("error:data:values: unknown class label 'o9#9' for (2^2); "
                   "valid labels: o1#0, o2#0, o2#1, o2#2, o4#0\n")
    code, _, err = invoke(capsys, "factorizable", "dihedral:8",
                          '{"o1#0": 1}')
    assert code == 2 and err.startswith("error:validation:")


def test_index_check_command(capsys):
    for spec in ("elemab:2,2", "elemab:3,2"):
        for lattice in ("Reg", "A"):
            for scale in ("1", "2", "3"):
                code, out, _ = invoke(capsys, "index-check", spec, lattice,
                                      "--scale", scale)
                assert code == 0 and "overall: true" in out


def test_usage_errors(capsys):
    code, _, err = invoke(capsys)
    assert code == 2 and err.startswith("error:usage:")
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2 and err.startswith("error:usage:")
    code, _, err = invoke(capsys, "relations")
    assert code == 2 and err.startswith("error:usage:")
    code, _, err = invoke(capsys, "relations", "elemab:3,2", "--bogus")
    assert code == 2 and err.startswith("error:usage:")


def test_error_lines_are_single_line(capsys):
    code, _, err = invoke(capsys, "group", "perm:[(0,1]")
    assert code == 2
    assert err.startswith("error:parse:") and err.strip().count("\n") == 0
    code, _, err = invoke(capsys, "check-units", fixture("absent.json"))
    assert code == 2 and err.startswith("error:data:")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "factorizable" in out and "check-units" in out
    assert run(["regconst", "--help"]) == 0
    capsys.readouterr()




def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "factoreq.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    # one invocation of every subcommand and of every argparse exit path
    commands = [
        ["group", "cyclic:4"],
        ["regconst", "elemab:2,2", "A", "--relation-index", "0", "--all"],
        ["relations", "elemab:2,2", "--json"],
        ["--help"],
        ["regconst", "elemab:2,2", "A"],
        ["relations", "elemab:3,2", "--bogus"],
        ["bouc", "elemab:2,2", "--verify-span"],
        [],
        ["factorizable", "elemab:2,2", fixture("v4_order_values.json")],
        ["regconst", "--help"],
        ["check-units", fixture("v4_consistent.json")],
        ["bk-check", fixture("v4_consistent.json"), "--json"],
        ["index-check", "elemab:2,2", "Reg", "--scale", "3"],
    ]
    expected = [_fresh_process(argv) for argv in commands]
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *args, **kw:
                        built.append(1) or init(self, *args, **kw))
    cli._build_parser.cache_clear()
    # each command twice, interleaved with all the others
    order = list(range(len(commands)))
    for step, index in enumerate(order + order[::-1]):
        assert invoke(capsys, *commands[index]) == expected[index], \
            commands[index]
        if step == 0:
            parser, once = cli._build_parser(), len(built)
    assert once and len(built) == once
    assert cli._build_parser() is parser


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", "from factoreq import cli; "
         "print(cli._build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "0\n", done.stderr
