"""Parser for the compact group-spec mini-language.

Grammar::

    spec  :=  atom ( 'x' atom )*          # 'x' builds direct products
    atom  :=  'C:' n    cyclic of order n
           |  'D:' n    dihedral of order 2n
           |  'S:' k    symmetric on k points (k <= 11)
           |  'Q:' n    generalized quaternion of order 2^n (n >= 3)
           |  'M:' p,a,q,b,r   metacyclic semidirect product

Whitespace is ignored everywhere; integers are decimal.  Parse errors
name the offending token and its position in the original string.  Group
descriptors printed by the constructors are canonical spec strings, so
parse(print(spec)) round-trips.
"""

from __future__ import annotations

import sys

from .errors import GroupSpecError
from .groups import (
    Group,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
)

__all__ = ["parse_group_spec"]

_ARITY = {"C": 1, "D": 1, "S": 1, "Q": 1, "M": 5}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Yield (kind, value, position) tokens; kind is 'atom' or 'x'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "x":
            tokens.append(("x", "x", i))
            i += 1
            continue
        fam = ch.upper()
        if fam not in _ARITY:
            raise GroupSpecError(f"unexpected token {ch!r} at position {i}")
        start = i
        i += 1
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != ":":
            raise GroupSpecError(f"expected ':' after {fam!r} at position {i}")
        i += 1
        args: list[int] = []
        while True:
            j = i
            while j < n and text[j].isspace():
                j += 1
            d = j
            while d < n and "0" <= text[d] <= "9":
                d += 1
            if d == j:
                raise GroupSpecError(f"expected integer at position {j} in {fam!r} arguments")
            try:
                args.append(int(text[j:d]))
            except ValueError:  # more digits than int() converts
                raise GroupSpecError(f"integer at position {j} exceeds {sys.get_int_max_str_digits()} digits") from None
            i = d
            while i < n and text[i].isspace():
                i += 1
            if len(args) < _ARITY[fam] and i < n and text[i] == ",":
                i += 1
                continue
            break
        if len(args) != _ARITY[fam]:
            raise GroupSpecError(
                f"{fam!r} at position {start} takes {_ARITY[fam]} argument(s), got {len(args)}"
            )
        tokens.append(("atom", (fam, args), start))
    return tokens


def _build_atom(fam: str, args: list[int], pos: int) -> Group:
    try:
        if fam == "C":
            return make_cyclic(args[0])
        if fam == "D":
            return make_dihedral(args[0])
        if fam == "S":
            return make_symmetric(args[0])
        if fam == "Q":
            return make_generalized_quaternion(args[0])
        return make_metacyclic(*args)
    except ValueError as exc:
        raise GroupSpecError(f"invalid {fam!r} spec at position {pos}: {exc}") from exc


def parse_group_spec(text: str) -> Group:
    """Parse a group-spec string and construct the group it names."""
    tokens = _tokenize(text)
    if not tokens:
        raise GroupSpecError("empty group spec")
    expect_atom = True
    result: Group | None = None
    for kind, value, pos in tokens:
        if expect_atom:
            if kind != "atom":
                raise GroupSpecError(f"expected a group atom at position {pos}, got 'x'")
            fam, args = value
            atom = _build_atom(fam, args, pos)
            result = atom if result is None else make_direct_product(result, atom)
        else:
            if kind != "x":
                raise GroupSpecError(f"expected 'x' or end of spec at position {pos}")
        expect_atom = not expect_atom
    if expect_atom:
        last_pos = tokens[-1][2]
        raise GroupSpecError(f"dangling 'x' at position {last_pos}: expected a group atom after it")
    assert result is not None
    return result
