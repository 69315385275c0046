"""Serializable analysis reports and the JSON schemas they must satisfy.

Reports are plain dicts shaped for ``json.dumps(..., sort_keys=True)``.
Nothing time-dependent lives inside the data payload: timing is a single
optional top-level field that stable mode drops, so identical invocations
serialize byte-identically.

Each schema object is built by :func:`_closed`, so each property is
named once, and :func:`_document` adds ``$schema`` to a payload's.
``tests/test_report_schema.py`` pins the SHA-256 of each exported
schema's key-sorted JSON.

Every payload is checked before it is printed.  :func:`validate_document`
compiles each schema once into nested closures, one per schema node, and
keeps them with the schema object.  A scalar node first tests the exact
Python type (and its minimum, or its string enum), which accepts only
values the full Draft 7 keyword test accepts, and runs that test on
anything else.  The JSON path of a failure is collected only as the
error unwinds.  The keyword-by-keyword interpreter it replaced is the
oracle in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections.abc import Callable

from .criticality import class_records, classify_element, classify_group
from .errors import InternalConsistencyError
from .groups import Group, exponent_and_pi
from .numtheory import euler_phi
from .partitions import cyclic_partition
from .power_graph import PowerGraph

__all__ = [
    "ANALYSIS_REPORT_SCHEMA",
    "CENSUS_LINE_SCHEMA",
    "ELEMENT_REPORT_SCHEMA",
    "GRAPH_EXPORT_SCHEMA",
    "analyze_group",
    "census_json_line",
    "element_report",
    "validate_document",
]

MAX_STAR_MEMBERS_LISTED = 32


def _closed(*, optional: dict | None = None, nullable: bool = False, **properties: dict) -> dict:
    """A closed object schema: each of `properties` is required, in its
    order, each of `optional` may be left out, and no other property is
    allowed; `nullable` admits null in place of the object.  No payload
    property is named ``optional`` or ``nullable``."""
    return {
        "type": ["object", "null"] if nullable else "object",
        "properties": {**properties, **(optional or {})},
        "required": list(properties),
        "additionalProperties": False,
    }


def _document(**closed) -> dict:
    """A top-level payload schema: a :func:`_closed` object that names its draft."""
    return {"$schema": "http://json-schema.org/draft-07/schema#", **_closed(**closed)}


_PARAMS_SCHEMA = _closed(
    p={"type": "integer", "minimum": 2},
    r={"type": "integer", "minimum": 2},
    s={"type": "integer", "minimum": 0},
    root={"type": "string"},
    nullable=True,
)

# optional in the analysis and element reports: stable mode leaves it out
_TIMING = {"timing_ms": {"type": "number", "minimum": 0}}


def _record(**between: dict) -> dict:
    """The twin-class record fields of a ``classes`` item and of the element
    report, with the element's own fields `between` before is_star_class."""
    return {
        "kind": {"enum": ["plain", "compound"]},
        "params": _PARAMS_SCHEMA,
        "is_critical": {"type": "boolean"},
        "closure_size": {"type": "integer", "minimum": 1},
        **between,
        "is_star_class": {"type": "boolean"},
    }


ANALYSIS_REPORT_SCHEMA = _document(
    group={"type": "string"},
    order={"type": "integer", "minimum": 1},
    pi={"type": "array", "items": {"type": "integer", "minimum": 2}},
    is_eppo={"type": "boolean"},
    star=_closed(
        size={"type": "integer", "minimum": 1},
        members={"type": "array", "items": {"type": "string"}},
    ),
    classes={
        "type": "array",
        "items": _closed(
            representative={"type": "string"},
            representative_index={"type": "integer", "minimum": 0},
            size={"type": "integer", "minimum": 1},
            **_record(),
        ),
    },
    group_kind=_closed(
        is_critical_group={"type": "boolean"},
        is_plain_group={"type": "boolean"},
        is_compound_group={"type": "boolean"},
    ),
    partition=_closed(
        exists={"type": "boolean"},
        trivial={"type": ["boolean", "null"]},
        component_orders={"type": ["array", "null"], "items": {"type": "integer", "minimum": 2}},
        obstruction=_closed(
            first={"type": "string"},
            second={"type": "string"},
            shared={"type": "string"},
            nullable=True,
        ),
    ),
    frobenius=_closed(
        p={"type": "integer"},
        a={"type": "integer"},
        q={"type": "integer"},
        b={"type": "integer"},
        nullable=True,
    ),
    optional=_TIMING,
)

ELEMENT_REPORT_SCHEMA = _document(
    group={"type": "string"},
    order={"type": "integer", "minimum": 1},
    element={"type": "string"},
    element_order={"type": "integer", "minimum": 1},
    n_class_size={"type": "integer", "minimum": 1},
    diamond_class_size={"type": "integer", "minimum": 1},
    **_record(is_maximal={"type": "boolean"}),
    optional=_TIMING,
)

CENSUS_LINE_SCHEMA = _document(
    p={"type": "integer"},
    a={"type": "integer"},
    q={"type": "integer"},
    b={"type": "integer"},
    r={"type": "integer"},
    order={"type": "integer"},
    well_defined={"type": "boolean"},
    eppo={"type": "boolean"},
    frobenius={"type": "boolean"},
    critical={"type": "boolean"},
    graph_is_critical={"type": ["boolean", "null"]},
    graph_agrees={"type": ["boolean", "null"]},
)

GRAPH_EXPORT_SCHEMA = _document(
    vertices={
        "type": "array",
        "items": _closed(
            id={"type": "integer", "minimum": 0},
            order={"type": "integer", "minimum": 1},
        ),
    },
    edges={
        "type": "array",
        "items": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
    },
)


# Draft 7 type names as jsonschema applies them: a bool is no number, and
# an integral float is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (
        isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()
    ),
}

# Python types whose every value has the type name.  The test is on the
# exact type, so a bool is never taken for a number; an integral float
# passes "integer" only through the full test above.
_EXACT = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "boolean": (bool,),
    "null": (type(None),),
    "number": (int, float),
    "integer": (int,),
}
_LEAF_KEYWORDS = {"$schema", "type", "enum", "minimum"}

# id(schema) -> (schema, its checker); holding the schema keeps its id unused
_compiled: dict[int, tuple[dict, Callable[[object], None]]] = {}


class _Invalid(Exception):
    """A payload node failed its schema.  Each enclosing checker appends
    its key to `path` as the exception passes, innermost key first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.path: list = []


def validate_document(doc: dict, schema: dict) -> None:
    """Check `doc` against one of the schemas above, with Draft 7 semantics.

    Only the keywords these schemas use are checked: ``type`` (a name or a
    list of names), ``properties``, ``required``, ``additionalProperties``
    (false only), ``items`` (one schema), ``enum`` (scalars; ``True`` is not
    ``1``), ``minimum``, ``minItems`` and ``maxItems``; ``$schema`` is
    ignored.  Each schema object is compiled into checker closures on first
    use and must not change afterwards.  The payloads are built here, so
    one that fails is a bug: the error is an
    :class:`InternalConsistencyError` naming the JSON path.
    """
    entry = _compiled.get(id(schema))
    if entry is None:
        entry = _compiled[id(schema)] = (schema, _compile(schema))
    try:
        entry[1](doc)
    except _Invalid as exc:
        steps = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in reversed(exc.path))
        raise InternalConsistencyError(f"payload at ${steps}: {exc.message}") from None


def _compile(schema: dict) -> Callable[[object], None]:
    """A checker for `schema`, built on the checkers of its subschemas.

    A checker raises :class:`_Invalid` at the first failure, in this order:
    type, enum, minimum; then for an object each required property and
    each of its properties in document order, for an array its length and
    each item.  A node first tries a test on the exact Python type that
    accepts only what the full keyword test accepts; the JSON path is
    built only on failure.
    """
    t, enum, minimum = schema.get("type"), schema.get("enum"), schema.get("minimum")
    names = (t,) if isinstance(t, str) else t
    number = _TYPES["number"]

    def head(x):
        if t is not None and not any(_TYPES[name](x) for name in names):
            raise _Invalid(f"{x!r} is not of type {t!r}")
        if enum is not None and not any(v == x and isinstance(v, bool) == isinstance(x, bool) for v in enum):
            raise _Invalid(f"{x!r} is not one of {enum!r}")
        if minimum is not None and number(x) and x < minimum:
            raise _Invalid(f"{x!r} is less than the minimum {minimum!r}")

    exact = None if t is None or enum is not None else frozenset(c for n in names for c in _EXACT[n])
    if schema.keys() <= _LEAF_KEYWORDS:
        if exact is not None and minimum is None:

            def leaf(x):
                if type(x) not in exact:
                    head(x)

        elif exact is not None and exact <= {int, float}:

            def leaf(x):
                if type(x) not in exact or not x >= minimum:
                    head(x)

        elif t is None and minimum is None and enum is not None and all(type(v) is str for v in enum):
            values = frozenset(enum)

            def leaf(x):
                if type(x) is not str or x not in values:
                    head(x)

        else:
            leaf = head
        return leaf

    if minimum is not None:
        exact = None
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    required = tuple(schema.get("required", ()))
    closed = schema.get("additionalProperties", True) is False
    each = _compile(schema["items"]) if "items" in schema else None
    lo, hi = schema.get("minItems", 0), schema.get("maxItems")

    def check(x):
        if exact is None or type(x) not in exact:
            head(x)
        if isinstance(x, dict):
            for key in required:
                if key not in x:
                    raise _Invalid(f"required property {key!r} is missing")
            for key, value in x.items():
                sub = props.get(key)
                if sub is not None:
                    try:
                        sub(value)
                    except _Invalid as exc:
                        exc.path.append(key)
                        raise
                elif closed:
                    raise _Invalid(f"property {key!r} is not allowed")
        elif isinstance(x, list):
            if not lo <= len(x) <= (len(x) if hi is None else hi):
                raise _Invalid(f"length {len(x)} is out of range")
            if each is not None:
                for i, value in enumerate(x):
                    try:
                        each(value)
                    except _Invalid as exc:
                        exc.path.append(i)
                        raise

    return check


def _params_dict(group: Group, params) -> dict | None:
    if params is None:
        return None
    return {"p": params.p, "r": params.r, "s": params.s, "root": group.element_label(params.root)}


def analyze_group(group: Group, graph: PowerGraph | None = None) -> dict:
    """Full analysis report for one group (materialized scale)."""
    from .frobenius import recognize_critical_structure

    group.poset("full analysis", "; use a per-element query instead")
    graph = graph if graph is not None else PowerGraph(group)
    pi, is_eppo = exponent_and_pi(group)
    star = sorted(graph.star_vertices())
    records = class_records(graph)
    kind = classify_group(graph)

    classes = [
        {
            "representative": group.element_label(rec.representative),
            "representative_index": rec.representative,
            "size": rec.size,
            "kind": rec.kind,
            "params": _params_dict(group, rec.params),
            "is_critical": rec.is_critical,
            "closure_size": rec.closure_size,
            "is_star_class": rec.is_star_class,
        }
        for rec in records
    ]
    if sum(rec.size for rec in records) != group.order:
        raise InternalConsistencyError("twin class sizes do not sum to the group order")

    partition = {"exists": False, "trivial": None, "component_orders": None, "obstruction": None}
    if group.order >= 2:
        part = cyclic_partition(group)
        if part.is_partition:
            partition.update(
                exists=True,
                trivial=part.is_trivial,
                component_orders=sorted((c.order for c in part.components), reverse=True),
            )
        else:
            a, b, shared = part.obstruction
            partition["obstruction"] = {
                "first": group.element_label(a.generator),
                "second": group.element_label(b.generator),
                "shared": group.element_label(shared),
            }

    fs = recognize_critical_structure(group) if group.order >= 2 else None
    frobenius = None if fs is None else {"p": fs.p, "a": fs.a, "q": fs.q, "b": fs.b}

    return {
        "group": group.descriptor,
        "order": group.order,
        "pi": sorted(pi),
        "is_eppo": is_eppo,
        "star": {
            "size": len(star),
            "members": [group.element_label(x) for x in star[:MAX_STAR_MEMBERS_LISTED]],
        },
        "classes": classes,
        "group_kind": {
            "is_critical_group": kind.is_critical_group,
            "is_plain_group": kind.is_plain_group,
            "is_compound_group": kind.is_compound_group,
        },
        "partition": partition,
        "frobenius": frobenius,
    }


def element_report(group: Group, element: int | str) -> dict:
    """Single-element report; runs at lazy scale."""
    x = group.parse_element(element) if isinstance(element, str) else element
    graph = PowerGraph(group)
    rec = classify_element(graph, x)
    order = group.element_order(x)
    return {
        "group": group.descriptor,
        "order": group.order,
        "element": group.element_label(x),
        "element_order": order,
        "n_class_size": rec.size,
        "diamond_class_size": euler_phi(order),
        "kind": rec.kind,
        "params": _params_dict(group, rec.params),
        "is_critical": rec.is_critical,
        "closure_size": rec.closure_size,
        # x is maximal iff N[x], kept from classification, is just <x>
        "is_maximal": graph.closed_neighborhood_size(x) == order,
        "is_star_class": rec.is_star_class,
    }


def census_json_line(entry) -> dict:
    m, f = entry.params, entry.flags
    return {
        "p": m.p,
        "a": m.a,
        "q": m.q,
        "b": m.b,
        "r": m.r,
        "order": m.order,
        "well_defined": f.well_defined,
        "eppo": f.eppo,
        "frobenius": f.frobenius,
        "critical": f.critical,
        "graph_is_critical": entry.graph_is_critical,
        "graph_agrees": entry.graph_agrees,
    }
