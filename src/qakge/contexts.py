"""Data context descriptors, assessment plans, and their triple encodings.

A context describes a dataset (schema, provenance, size, domain, governance)
and maps onto a star-shaped subgraph rooted at the context node. Assessment
plans are edge sets linking schema attributes to quality measures and those
measures to quality dimensions.

JSON documents and config sections have one reader, :func:`from_json_object`,
and one writer, :func:`to_json_object`. The writer lists a dataclass's fields
in declaration order, so a context document follows :data:`FIELD_RELATIONS`.
Only the evaluation metrics and the comparison report, which leave out or
derive fields, are written by their own code.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    InputError, MalformedContextError, check_integer, check_number, is_integer, is_number,
)
from .triples import TripleGraph, WeightedTriple


class AttributeType(str, Enum):
    DATE = "date"
    TEXT = "text"
    NUMERIC = "numeric"


DATA_TYPES = ("structured", "semi-structured", "unstructured")

SIZE_BUCKETS = ("tiny", "small", "medium", "large", "xlarge")

# row-count thresholds (exclusive upper bounds) for the first four buckets
_SIZE_LIMITS = ((1_000, "tiny"), (100_000, "small"), (10_000_000, "medium"), (1_000_000_000, "large"))


def size_bucket_for_rows(n_rows: int) -> str:
    if n_rows < 0:
        raise InputError(f"row count must be non-negative, got {n_rows}")
    for limit, bucket in _SIZE_LIMITS:
        if n_rows < limit:
            return bucket
    return "xlarge"


# closed relation vocabulary for context subgraphs
REL_SCHEMA = "hasSchema"
REL_ATTRIBUTE = "hasAttribute"
REL_TYPE = "hasType"
REL_QUALITY_RULE = "hasQualityRule"
REL_CONTRIBUTES = "contributesTo"
# inventory declarations: every measure and dimension node is one of these kinds
REL_KIND = "isA"
KIND_MEASURE = "quality_measure"
KIND_DIMENSION = "quality_dimension"

# scalar/list descriptor fields and their relations, in canonical emission order
FIELD_RELATIONS: tuple[tuple[str, str], ...] = (
    ("data_type", "hasDataType"),
    ("data_source", "hasDataSource"),
    ("size_bucket", "hasSizeBucket"),
    ("analysis_scope", "hasAnalysisScope"),
    ("domain", "hasDomain"),
    ("content_type", "hasContentType"),
    ("file_format", "hasFileFormat"),
    ("org_standards", "hasStandard"),
    ("org_policies", "hasPolicy"),
    ("security_level", "hasSecurityLevel"),
    ("est_resources", "hasResourceBudget"),
    ("est_time", "hasTimeBudget"),
)

_LIST_FIELDS = ("org_standards", "org_policies")


@dataclass(frozen=True, slots=True)
class Attribute:
    """One schema column: a name and its inferred or declared type."""

    name: str
    type: AttributeType

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InputError(f"attribute name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.type, AttributeType):
            try:
                object.__setattr__(self, "type", AttributeType(self.type))
            except ValueError:
                raise InputError(f"unknown attribute type {self.type!r}") from None


@dataclass(frozen=True)
class ContextDescriptor:
    """Everything known about one dataset's context.

    ``data_type``, ``data_source``, ``size_bucket``, ``domain`` and
    ``file_format`` are plain text (empty string means unknown, no edge is
    emitted); the remaining fields are optional. The fields after
    ``attributes`` follow :data:`FIELD_RELATIONS`, the order a context
    document lists them in.
    """

    context_id: str
    data_type: str
    attributes: tuple[Attribute, ...]
    data_source: str = ""
    size_bucket: str = ""
    analysis_scope: str | None = None
    domain: str = ""
    content_type: str | None = None
    file_format: str = ""
    org_standards: tuple[str, ...] | None = None
    org_policies: tuple[str, ...] | None = None
    security_level: str | None = None
    est_resources: str | None = None
    est_time: str | None = None

    def __post_init__(self):
        if not isinstance(self.context_id, str) or not self.context_id:
            raise InputError(f"context_id must be a non-empty string, got {self.context_id!r}")
        if self.data_type not in DATA_TYPES:
            raise InputError(
                f"data_type must be one of {DATA_TYPES}, got {self.data_type!r}"
            )
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not all(isinstance(a, Attribute) for a in self.attributes):
            raise InputError(f"context {self.context_id!r}: attributes must be Attribute entries")
        if self.data_type in ("structured", "semi-structured") and not self.attributes:
            raise InputError(
                f"context {self.context_id!r}: {self.data_type} data requires at least one attribute"
            )
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise InputError(f"context {self.context_id!r}: duplicate attribute names")
        for f_name, _ in FIELD_RELATIONS:
            value = getattr(self, f_name)
            if f_name in _LIST_FIELDS and value is not None:
                if not is_list_of(value, str):
                    raise InputError(f"context {self.context_id!r}: {f_name} must be a list "
                                     f"of strings, got {value!r}")
                object.__setattr__(self, f_name, tuple(value))
            elif not isinstance(value, (str, type(None))):
                raise InputError(f"context {self.context_id!r}: {f_name} must be a string, "
                                 f"got {value!r}")

    @property
    def schema_node(self) -> str:
        return f"{self.context_id}_schema"

    def attribute_node(self, name: str) -> str:
        return f"{self.context_id}_attr_{name}"


def attribute_base_name(node: str) -> str:
    """Strip the ``<context>_attr_`` namespace from an attribute node name."""
    return node.split("_attr_", 1)[1] if "_attr_" in node else node


def attribute_name(node: str, context_id: str) -> str:
    """Name of an attribute node as context ``context_id`` reads it. The
    context's own ``<context_id>_attr_`` prefix is stripped whole, since the
    id may itself contain ``_attr_``; another context's node loses its
    namespace by :func:`attribute_base_name`."""
    prefix = f"{context_id}_attr_"
    return node[len(prefix):] if node.startswith(prefix) else attribute_base_name(node)


@dataclass(frozen=True, slots=True)
class RuleEdge:
    attribute: str  # namespaced attribute node
    rule: str
    weight: float


@dataclass(frozen=True, slots=True)
class DimensionEdge:
    rule: str
    dimension: str
    weight: float


@dataclass(frozen=True)
class AssessmentPlan:
    """Quality plan for one context: attribute->measure and measure->dimension edges."""

    context_id: str
    rule_edges: tuple[RuleEdge, ...]
    dimension_edges: tuple[DimensionEdge, ...]

    def __post_init__(self):
        if not isinstance(self.context_id, str) or not self.context_id:
            raise InputError(f"plan context_id must be a non-empty string, got {self.context_id!r}")
        object.__setattr__(self, "rule_edges", tuple(self.rule_edges))
        object.__setattr__(self, "dimension_edges", tuple(self.dimension_edges))
        rule_pairs = [(e.attribute, e.rule) for e in self.rule_edges]
        if len(rule_pairs) != len(set(rule_pairs)):
            raise InputError(f"plan {self.context_id!r}: duplicate (attribute, rule) edges")
        dim_pairs = [(e.rule, e.dimension) for e in self.dimension_edges]
        if len(dim_pairs) != len(set(dim_pairs)):
            raise InputError(f"plan {self.context_id!r}: duplicate (rule, dimension) edges")
        known_rules = {e.rule for e in self.rule_edges}
        orphans = {e.rule for e in self.dimension_edges} - known_rules
        if orphans:
            raise InputError(
                f"plan {self.context_id!r}: dimension edges for rules absent from rule edges: "
                f"{sorted(orphans)}"
            )

    @property
    def rules(self) -> tuple[str, ...]:
        """Distinct rules in first-appearance order."""
        return tuple(dict.fromkeys(e.rule for e in self.rule_edges))

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.dimension for e in self.dimension_edges))


def context_to_triples(ctx: ContextDescriptor) -> list[WeightedTriple]:
    """Encode a descriptor as its star subgraph, all weights 1.0.

    Emission order is fixed: schema edge, then per-attribute membership and
    type edges, then scalar/list field edges in declared field order. Empty
    or absent fields emit nothing.
    """
    out = [WeightedTriple(ctx.context_id, REL_SCHEMA, ctx.schema_node)]
    for attr in ctx.attributes:
        node = ctx.attribute_node(attr.name)
        out.append(WeightedTriple(ctx.schema_node, REL_ATTRIBUTE, node))
        out.append(WeightedTriple(node, REL_TYPE, attr.type.value))
    for field_name, relation in FIELD_RELATIONS:
        value = getattr(ctx, field_name)
        if value is None or value == "":
            continue
        if field_name in _LIST_FIELDS:
            for item in value:
                out.append(WeightedTriple(ctx.context_id, relation, item))
        else:
            out.append(WeightedTriple(ctx.context_id, relation, value))
    return out


def _schema_and_attributes(graph: TripleGraph, context_id: str) -> tuple[str, list[str]]:
    """Resolve the schema node and its attribute nodes, in graph order."""
    if context_id not in graph.vocab.entity_index:
        raise InputError(f"unknown context: {context_id!r}")
    schemas = [t.target for t in graph.triples if t.source == context_id and t.relation == REL_SCHEMA]
    if not schemas:
        raise MalformedContextError(f"context {context_id!r} has no {REL_SCHEMA} edge")
    if len(schemas) > 1:
        raise MalformedContextError(f"context {context_id!r} has {len(schemas)} schema nodes")
    schema = schemas[0]
    attrs = [t.target for t in graph.triples if t.source == schema and t.relation == REL_ATTRIBUTE]
    return schema, attrs


def triples_to_context(graph: TripleGraph, context_id: str) -> ContextDescriptor:
    """Inverse of :func:`context_to_triples` for one context subgraph."""
    schema, attr_nodes = _schema_and_attributes(graph, context_id)

    attributes = []
    for node in attr_nodes:
        types = [t.target for t in graph.triples if t.source == node and t.relation == REL_TYPE]
        if len(types) != 1:
            raise MalformedContextError(
                f"attribute {node!r} of context {context_id!r} has {len(types)} type edges, expected 1"
            )
        try:
            a_type = AttributeType(types[0])
        except ValueError:
            raise MalformedContextError(f"attribute {node!r} has unknown type {types[0]!r}") from None
        attributes.append(Attribute(attribute_name(node, context_id), a_type))

    values: dict[str, object] = {}
    for field_name, relation in FIELD_RELATIONS:
        targets = [t.target for t in graph.triples if t.source == context_id and t.relation == relation]
        if field_name in _LIST_FIELDS:
            values[field_name] = tuple(targets) if targets else None
        elif len(targets) > 1:
            raise MalformedContextError(
                f"context {context_id!r} has {len(targets)} {relation} edges, expected at most 1"
            )
        elif targets:
            values[field_name] = targets[0]

    if "data_type" not in values:
        raise MalformedContextError(f"context {context_id!r} has no hasDataType edge")
    return ContextDescriptor(context_id=context_id, attributes=tuple(attributes), **values)


def extract_plan(graph: TripleGraph, context_id: str) -> AssessmentPlan:
    """Collect the plan stored for a context: its attributes' rule edges and
    every dimension edge reachable from those rules."""
    _, attr_nodes = _schema_and_attributes(graph, context_id)
    attr_set = set(attr_nodes)
    rule_edges = tuple(
        RuleEdge(t.source, t.target, t.weight)
        for t in graph.triples
        if t.relation == REL_QUALITY_RULE and t.source in attr_set
    )
    dim_edges = stored_dimension_edges(graph, {e.rule for e in rule_edges})
    return AssessmentPlan(context_id, rule_edges, dim_edges)


def stored_dimension_edges(graph: TripleGraph, rules) -> tuple[DimensionEdge, ...]:
    """The ``contributesTo`` edges the graph stores for ``rules``, with their
    weights, in graph order."""
    wanted = set(rules)
    return tuple(
        DimensionEdge(t.source, t.target, t.weight)
        for t in graph.triples
        if t.relation == REL_CONTRIBUTES and t.source in wanted
    )


def plan_to_triples(plan: AssessmentPlan) -> list[WeightedTriple]:
    """Encode a plan as weighted graph edges (rule edges first)."""
    out = [WeightedTriple(e.attribute, REL_QUALITY_RULE, e.rule, e.weight) for e in plan.rule_edges]
    out += [WeightedTriple(e.rule, REL_CONTRIBUTES, e.dimension, e.weight) for e in plan.dimension_edges]
    return out


# --- JSON encodings ---------------------------------------------------------

def context_to_dict(ctx: ContextDescriptor) -> dict:
    """Context as a JSON-ready dict, its fields in declaration order."""
    return to_json_object(ctx)


def context_from_dict(doc: dict) -> ContextDescriptor:
    """Parse a context document; a null field takes its default."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if v is not None}
        if isinstance(doc.get("attributes"), list):
            doc["attributes"] = [
                from_json_object(Attribute, a, "attribute") for a in doc["attributes"]
            ]
    return from_json_object(ContextDescriptor, doc, "context")


def plan_to_dict(plan: AssessmentPlan, raw_scores: dict[tuple[str, str], float] | None = None,
                 model_meta: dict | None = None) -> dict:
    """Plan as a JSON-ready dict; optional per-edge raw scores and model metadata."""
    doc = to_json_object(plan)
    if raw_scores is not None:
        for entry in doc["rule_edges"] + doc["dimension_edges"]:
            ends = tuple(entry.values())[:2]  # an edge's two ends precede its weight
            if ends in raw_scores:
                entry["raw_score"] = raw_scores[ends]
    if model_meta is not None:
        doc["model_meta"] = model_meta
    return doc


def plan_from_dict(doc: dict) -> AssessmentPlan:
    """Parse a plan document; the ``model_meta`` and per-edge ``raw_score``
    entries that :func:`plan_to_dict` may write are dropped."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "model_meta"}
        for key, cls in (("rule_edges", RuleEdge), ("dimension_edges", DimensionEdge)):
            if isinstance(doc.get(key), list):
                doc[key] = [_plan_edge_from_dict(cls, e) for e in doc[key]]
    return from_json_object(AssessmentPlan, doc, "plan")


def _plan_edge_from_dict(cls, doc):
    """One edge of a plan document. Its ends and weight are checked here, not
    in the edge classes, which the generator builds thousands of times with
    weights in range by construction."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "raw_score"}
    edge = from_json_object(cls, doc, "plan edge")
    *ends, weight = (getattr(edge, f.name) for f in fields(cls))
    if not all(isinstance(end, str) and end for end in ends):
        raise InputError(f"plan edge ends must be non-empty strings, got {ends!r}")
    check_number("plan edge weight", weight, 0, 1)
    return edge


def load_json(path: str | Path) -> dict | list:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8-sig") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError:
        raise InputError(f"{p}: not UTF-8 text") from None


def from_json_object(cls, doc, what: str):
    """Build the dataclass ``cls`` from a JSON object, the one way every
    document and config section is read.

    Unknown keys are rejected; JSON arrays become tuples; a field whose
    default is a dataclass is itself read from its sub-object; and the
    ``TypeError``/``ValueError`` that ``cls`` raises on a missing field or a
    value of the wrong type becomes an :class:`InputError`. Range and type
    checks belong to ``cls.__post_init__``, or to the function that first
    uses the value, through :func:`check_integer` and :func:`check_number`.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    factories = {f.name: f.default_factory for f in fields(cls)}
    unknown = set(doc) - set(factories)
    if unknown:
        raise InputError(f"unknown {what} fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if is_dataclass(factories[key]):
            value = from_json_object(factories[key], value, key)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def to_json_object(obj):
    """The JSON value of ``obj``, the inverse of :func:`from_json_object` and
    the one way every document the program writes is built.

    An enum becomes its value, a tuple or list an array, and a dataclass an
    object with its fields in declaration order; every other value is
    written as it is.
    """
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [to_json_object(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: to_json_object(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def is_list_of(value, kind) -> bool:
    """Whether a JSON array field holds only ``kind`` items; a string never counts."""
    return isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value)


def save_json(doc: dict | list, path: str | Path) -> None:
    p = Path(path)
    try:
        with open(p, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=False)
            f.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {p}: {exc}") from exc
