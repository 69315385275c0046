import sys

import pytest

from powercrit import GroupSpecError, parse_group_spec


@pytest.mark.parametrize(
    "text,order,descriptor",
    [
        ("C:6", 6, "C:6"),
        ("D:15", 30, "D:15"),
        ("S:4", 24, "S:4"),
        ("Q:3", 8, "Q:3"),
        ("M:5,2,2,2,7", 100, "M:5,2,2,2,7"),
        ("C:2 x C:3", 6, "C:2 x C:3"),
        ("C:2xC:3", 6, "C:2 x C:3"),
    ],
)
def test_parse_valid(text, order, descriptor):
    g = parse_group_spec(text)
    assert g.order == order
    assert g.descriptor == descriptor


def test_whitespace_insensitive():
    a = parse_group_spec("M: 5 , 2 , 2 , 2 , 7")
    assert a.descriptor == "M:5,2,2,2,7"
    b = parse_group_spec("  C:2\tx\nC:2  ")
    assert b.order == 4
    # between the family letter and its ':' too
    assert parse_group_spec("D : 3").descriptor == "D:3"
    assert parse_group_spec("M :5,2,2,2,7 x C\t:2").descriptor == "M:5,2,2,2,7 x C:2"


def test_lowercase_family_letters():
    assert parse_group_spec("c:6").order == 6
    assert parse_group_spec("d:3 x s:3").order == 36


@pytest.mark.parametrize("group_spec", ["C:6", "D:15", "Q:4", "M:5,2,2,2,7", "C:2 x C:3 x C:5"])
def test_roundtrip_canonical(group_spec):
    g = parse_group_spec(group_spec)
    again = parse_group_spec(g.descriptor)
    assert again.descriptor == g.descriptor
    assert again.order == g.order


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Z:3", "unexpected token 'Z' at position 0"),
        ("C3", "expected ':'"),
        ("C:", "expected integer"),
        ("C:2 x", "dangling 'x'"),
        ("C:2 C:3", "expected 'x'"),
        ("x C:2", "expected a group atom at position 0"),
        ("M:5,2", "takes 5 argument"),
        ("", "empty group spec"),
        ("D:1,2", "unexpected token ','"),
        # integers are ASCII decimal, though int() takes these too
        ("C:\u0663", "expected integer at position 2"),
        ("M:5,2,2,2,\uff17", "expected integer at position 10"),
        ("C:1_0", "unexpected token '_' at position 3"),
    ],
)
def test_parse_errors_cite_position(text, fragment):
    with pytest.raises(GroupSpecError) as err:
        parse_group_spec(text)
    assert fragment in str(err.value)


def test_integer_past_the_conversion_limit_names_its_position():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(GroupSpecError, match=f"^integer at position 8 exceeds {limit} digits$"):
        parse_group_spec("C:2 x C:" + "1" * (limit + 1))


def test_invalid_atom_parameters_are_spec_errors():
    with pytest.raises(GroupSpecError, match="position 0"):
        parse_group_spec("M:4,2,2,2,7")
    with pytest.raises(GroupSpecError, match="not prime"):
        parse_group_spec("M:4,2,2,2,7")
