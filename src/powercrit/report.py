"""Serializable analysis reports and the JSON schemas they must satisfy.

Reports are plain dicts shaped for ``json.dumps(..., sort_keys=True)``.
Nothing time-dependent lives inside the data payload: timing is a single
optional top-level field that stable mode drops, so identical invocations
serialize byte-identically.
"""

from __future__ import annotations

import jsonschema

from .criticality import class_records, classify_element, classify_group
from .errors import InternalConsistencyError
from .groups import Group, exponent_and_pi, is_maximal_element, max_materialize
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

_PARAMS_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "p": {"type": "integer", "minimum": 2},
        "r": {"type": "integer", "minimum": 2},
        "s": {"type": "integer", "minimum": 0},
        "root": {"type": "string"},
    },
    "required": ["p", "r", "s", "root"],
    "additionalProperties": False,
}

ANALYSIS_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "order": {"type": "integer", "minimum": 1},
        "pi": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "is_eppo": {"type": "boolean"},
        "star": {
            "type": "object",
            "properties": {
                "size": {"type": "integer", "minimum": 1},
                "members": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["size", "members"],
            "additionalProperties": False,
        },
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "representative": {"type": "string"},
                    "representative_index": {"type": "integer", "minimum": 0},
                    "size": {"type": "integer", "minimum": 1},
                    "kind": {"enum": ["plain", "compound"]},
                    "params": _PARAMS_SCHEMA,
                    "is_critical": {"type": "boolean"},
                    "closure_size": {"type": "integer", "minimum": 1},
                    "is_star_class": {"type": "boolean"},
                },
                "required": [
                    "representative",
                    "representative_index",
                    "size",
                    "kind",
                    "params",
                    "is_critical",
                    "closure_size",
                    "is_star_class",
                ],
                "additionalProperties": False,
            },
        },
        "group_kind": {
            "type": "object",
            "properties": {
                "is_critical_group": {"type": "boolean"},
                "is_plain_group": {"type": "boolean"},
                "is_compound_group": {"type": "boolean"},
            },
            "required": ["is_critical_group", "is_plain_group", "is_compound_group"],
            "additionalProperties": False,
        },
        "partition": {
            "type": "object",
            "properties": {
                "exists": {"type": "boolean"},
                "trivial": {"type": ["boolean", "null"]},
                "component_orders": {
                    "type": ["array", "null"],
                    "items": {"type": "integer", "minimum": 2},
                },
                "obstruction": {
                    "type": ["object", "null"],
                    "properties": {
                        "first": {"type": "string"},
                        "second": {"type": "string"},
                        "shared": {"type": "string"},
                    },
                    "required": ["first", "second", "shared"],
                    "additionalProperties": False,
                },
            },
            "required": ["exists", "trivial", "component_orders", "obstruction"],
            "additionalProperties": False,
        },
        "frobenius": {
            "type": ["object", "null"],
            "properties": {
                "p": {"type": "integer"},
                "a": {"type": "integer"},
                "q": {"type": "integer"},
                "b": {"type": "integer"},
            },
            "required": ["p", "a", "q", "b"],
            "additionalProperties": False,
        },
        "timing_ms": {"type": "number", "minimum": 0},
    },
    "required": [
        "group",
        "order",
        "pi",
        "is_eppo",
        "star",
        "classes",
        "group_kind",
        "partition",
        "frobenius",
    ],
    "additionalProperties": False,
}

ELEMENT_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "group": {"type": "string"},
        "order": {"type": "integer", "minimum": 1},
        "element": {"type": "string"},
        "element_order": {"type": "integer", "minimum": 1},
        "n_class_size": {"type": "integer", "minimum": 1},
        "diamond_class_size": {"type": "integer", "minimum": 1},
        "kind": {"enum": ["plain", "compound"]},
        "params": _PARAMS_SCHEMA,
        "is_critical": {"type": "boolean"},
        "closure_size": {"type": "integer", "minimum": 1},
        "is_maximal": {"type": "boolean"},
        "is_star_class": {"type": "boolean"},
        "timing_ms": {"type": "number", "minimum": 0},
    },
    "required": [
        "group",
        "order",
        "element",
        "element_order",
        "n_class_size",
        "diamond_class_size",
        "kind",
        "params",
        "is_critical",
        "closure_size",
        "is_maximal",
        "is_star_class",
    ],
    "additionalProperties": False,
}

CENSUS_LINE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "p": {"type": "integer"},
        "a": {"type": "integer"},
        "q": {"type": "integer"},
        "b": {"type": "integer"},
        "r": {"type": "integer"},
        "order": {"type": "integer"},
        "well_defined": {"type": "boolean"},
        "eppo": {"type": "boolean"},
        "frobenius": {"type": "boolean"},
        "critical": {"type": "boolean"},
        "graph_is_critical": {"type": ["boolean", "null"]},
        "graph_agrees": {"type": ["boolean", "null"]},
    },
    "required": [
        "p", "a", "q", "b", "r", "order",
        "well_defined", "eppo", "frobenius", "critical",
        "graph_is_critical", "graph_agrees",
    ],
    "additionalProperties": False,
}

GRAPH_EXPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "vertices": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "integer", "minimum": 0},
                    "order": {"type": "integer", "minimum": 1},
                },
                "required": ["id", "order"],
                "additionalProperties": False,
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "required": ["vertices", "edges"],
    "additionalProperties": False,
}


def validate_document(doc: dict, schema: dict) -> None:
    jsonschema.validate(instance=doc, schema=schema)


def _params_dict(group: Group, params) -> dict | None:
    if params is None:
        return None
    return {"p": params.p, "r": params.r, "s": params.s, "root": group.element_label(params.root)}


def analyze_group(group: Group, graph: PowerGraph | None = None) -> dict:
    """Full analysis report for one group (materialized scale)."""
    from .errors import ScaleError
    from .frobenius import recognize_critical_structure

    cap = max_materialize()
    if group.order > cap:
        raise ScaleError(
            f"full analysis needs materialized mode: order {group.order} exceeds "
            f"threshold {cap}; use a per-element query instead"
        )
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

    partition: dict
    if group.order >= 2:
        part = cyclic_partition(group)
        if part.is_partition:
            partition = {
                "exists": True,
                "trivial": part.is_trivial,
                "component_orders": sorted((c.order for c in part.components), reverse=True),
                "obstruction": None,
            }
        else:
            a, b, shared = part.obstruction
            partition = {
                "exists": False,
                "trivial": None,
                "component_orders": None,
                "obstruction": {
                    "first": group.element_label(a.generator),
                    "second": group.element_label(b.generator),
                    "shared": group.element_label(shared),
                },
            }
    else:
        partition = {"exists": False, "trivial": None, "component_orders": None, "obstruction": None}

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
    return {
        "group": group.descriptor,
        "order": group.order,
        "element": group.element_label(x),
        "element_order": group.element_order(x),
        "n_class_size": rec.size,
        "diamond_class_size": len(group.cyclic_generators(x)),
        "kind": rec.kind,
        "params": _params_dict(group, rec.params),
        "is_critical": rec.is_critical,
        "closure_size": rec.closure_size,
        "is_maximal": is_maximal_element(group, x),
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
