"""Seeded synthetic context graphs with ground-truth assessment plans.

The generator emits a fixed inventory of quality measures and dimensions,
a global measure->dimension assignment, and one randomized context subgraph
plus plan per context. Attribute names carry a fixed type and a fixed rule
set, reused wherever the name shows up; contexts only vary the edge
weights. Everything else is driven by one ``random.Random`` seed, so two
runs with the same config produce byte-identical CSV output.
"""
from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .contexts import (
    KIND_DIMENSION,
    KIND_MEASURE,
    REL_CONTRIBUTES,
    REL_KIND,
    REL_QUALITY_RULE,
    SIZE_BUCKETS,
    AssessmentPlan,
    Attribute,
    AttributeType,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    check_integer,
    context_to_triples,
    is_integer,
    is_list_of,
    plan_to_triples,
)
from .errors import InputError
from .triples import TripleGraph, WeightedTriple

# the ten measure nodes every generated graph carries
QUALITY_MEASURES = (
    "missing_values",
    "data_inconsistency",
    "null_count",
    "data_entry_error",
    "outliers_detection",
    "data_comparison",
    "cross_field_validation",
    "range_check",
    "duplication_check",
    "format_validity",
)

# the fifteen data quality dimension nodes
QUALITY_DIMENSIONS = (
    "accuracy",
    "completeness",
    "consistency",
    "credibility",
    "currentness",
    "accessibility",
    "compliance",
    "confidentiality",
    "efficiency",
    "precision",
    "traceability",
    "understandability",
    "availability",
    "portability",
    "recoverability",
)

DEFAULT_DOMAINS = ("iot", "social media", "healthcare", "radiation monitoring", "finance", "news")
DEFAULT_SOURCES = ("sensor feeds", "machine logs", "tweets", "sms", "database export", "api stream")
DEFAULT_FORMATS = ("csv", "json", "xml", "parquet", "rdb")
_CONTENT_TYPES = ("environment", "health", "technology", "sports", "politics", "commerce")
_SECURITY_LEVELS = ("public", "internal", "confidential", "restricted")

# 64 plausible column names; contexts sample without replacement
ATTRIBUTE_NAMES = (
    "temperature", "pressure", "humidity", "dose_rate", "location", "timestamp",
    "latitude", "longitude", "altitude", "speed", "status", "user_id",
    "post_id", "amount", "balance", "currency", "diagnosis", "heart_rate",
    "blood_pressure", "age", "gender", "headline", "category", "sentiment",
    "likes", "shares", "device_id", "battery_level", "signal_strength", "error_code",
    "duration", "price", "quantity", "rating", "comment", "title",
    "author", "url", "ip_address", "session_id", "country", "city",
    "zipcode", "email", "phone", "language", "score", "event_date",
    "updated_at", "created_at", "event_type", "expiry_date", "region", "department",
    "product_id", "order_id", "shipment_id", "tax", "discount", "total",
    "weight_kg", "height_cm", "visit_count", "last_login",
)

# a column's type is a property of its name, stable across contexts
_DATE_ATTRIBUTES = frozenset({
    "timestamp", "event_date", "updated_at", "created_at", "expiry_date", "last_login",
})
_TEXT_ATTRIBUTES = frozenset({
    "location", "status", "user_id", "post_id", "currency", "diagnosis",
    "gender", "headline", "category", "sentiment", "device_id", "error_code",
    "comment", "title", "author", "url", "ip_address", "session_id",
    "country", "city", "zipcode", "email", "phone", "language",
    "event_type", "region", "department", "product_id", "order_id", "shipment_id",
})


def attribute_type_of(name: str) -> AttributeType:
    if name in _DATE_ATTRIBUTES:
        return AttributeType.DATE
    if name in _TEXT_ATTRIBUTES:
        return AttributeType.TEXT
    return AttributeType.NUMERIC


# Checks cluster by the nature of the column, so each type owns a few rule
# bundles. A column keeps one bundle and one depth everywhere it appears:
# what to check on a given column does not depend on which dataset it sits
# in, only the edge weights do. That repetition across contexts is the
# regularity a link predictor can actually learn.
_RULE_BUNDLES = {
    AttributeType.NUMERIC: (
        ("range_check", "outliers_detection", "null_count"),
        ("outliers_detection", "data_comparison", "range_check"),
        ("null_count", "cross_field_validation", "data_comparison"),
    ),
    AttributeType.TEXT: (
        ("missing_values", "format_validity", "data_inconsistency"),
        ("format_validity", "duplication_check", "missing_values"),
        ("data_inconsistency", "cross_field_validation", "missing_values"),
    ),
    AttributeType.DATE: (
        ("data_entry_error", "duplication_check", "missing_values"),
        ("duplication_check", "data_entry_error", "format_validity"),
    ),
}


def _stable_pick(salt: str, name: str, n: int) -> int:
    return zlib.crc32(f"{salt}:{name}".encode("utf-8")) % n


def rules_for_attribute(name: str) -> tuple[str, ...]:
    """The quality rules a column of this name gets, primary rule first:
    the first 2 or 3 rules of its bundle."""
    bundle = _RULE_BUNDLES[attribute_type_of(name)]
    bundle = bundle[_stable_pick("bundle", name, len(bundle))]
    return bundle[:2 + _stable_pick("depth", name, 2)]


# every edge weight lies in this range, rounded to 4 decimals
WEIGHT_RANGE = (0.1, 1.0)
# how many dimensions each quality measure contributes to
DIMS_PER_RULE = (1, 2)
# an edge's weight says how relevant the rule is: a bundle's primary rule
# outweighs its follow-ups
_POSITION_BANDS = ((0.65, 1.0), (0.4, 0.8), (0.15, 0.55))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic graph. Defaults land a 41-context graph in the
    mid-5000s of triples, the scale of a realistically wide context corpus."""

    n_contexts: int = 41
    seed: int = 7
    attrs_per_context: tuple[int, int] = (16, 48)
    domain_pool: tuple[str, ...] = DEFAULT_DOMAINS
    source_pool: tuple[str, ...] = DEFAULT_SOURCES
    format_pool: tuple[str, ...] = DEFAULT_FORMATS

    def __post_init__(self):
        check_integer("n_contexts", self.n_contexts, 1)
        check_integer("seed", self.seed, 0)
        pair, cap = self.attrs_per_context, len(ATTRIBUTE_NAMES)
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_integer, pair))):
            raise InputError(f"attrs_per_context must be a [lo, hi] pair of integers, got {pair!r}")
        lo, hi = pair
        if not (1 <= lo <= hi <= cap):
            raise InputError(
                f"attrs_per_context range must satisfy 1 <= lo <= hi <= {cap}, got ({lo}, {hi})")
        for name in ("domain_pool", "source_pool", "format_pool"):
            pool = getattr(self, name)
            if not (is_list_of(pool, str) and pool):
                raise InputError(f"{name} must be a non-empty list of strings, got {pool!r}")


def _random_weight(rng: random.Random) -> float:
    return round(rng.uniform(*WEIGHT_RANGE), 4)


def _banded_weight(rng: random.Random, position: int) -> float:
    lo, hi = WEIGHT_RANGE
    band_lo, band_hi = _POSITION_BANDS[min(position, len(_POSITION_BANDS) - 1)]
    return round(lo + (hi - lo) * rng.uniform(band_lo, band_hi), 4)


def _random_context(rng: random.Random, cfg: GeneratorConfig, index: int) -> ContextDescriptor:
    n_attrs = rng.randint(*cfg.attrs_per_context)
    names = rng.sample(ATTRIBUTE_NAMES, n_attrs)
    return ContextDescriptor(
        context_id=f"ctx_{index:03d}",
        data_type=rng.choice(("structured", "semi-structured")),
        attributes=tuple(Attribute(n, attribute_type_of(n)) for n in names),
        data_source=rng.choice(cfg.source_pool),
        size_bucket=rng.choice(SIZE_BUCKETS),
        domain=rng.choice(cfg.domain_pool),
        file_format=rng.choice(cfg.format_pool),
        content_type=rng.choice(_CONTENT_TYPES),
        security_level=rng.choice(_SECURITY_LEVELS),
    )


def generate_synthetic_graph(cfg: GeneratorConfig) -> tuple[TripleGraph, list[AssessmentPlan]]:
    """Build the graph and the recorded ground-truth plan per context.

    Measure->dimension edges are sampled once, globally, so that the plan
    recorded for a context always equals what plan extraction over the final
    graph reports (those edges hang off shared measure nodes).
    """
    rng = random.Random(cfg.seed)
    triples: list[WeightedTriple] = []

    for measure in QUALITY_MEASURES:
        triples.append(WeightedTriple(measure, REL_KIND, KIND_MEASURE))
    for dimension in QUALITY_DIMENSIONS:
        triples.append(WeightedTriple(dimension, REL_KIND, KIND_DIMENSION))

    dim_edges_by_rule: dict[str, list[DimensionEdge]] = {}
    for rule in QUALITY_MEASURES:
        n_dims = rng.randint(*DIMS_PER_RULE)
        dims = rng.sample(QUALITY_DIMENSIONS, n_dims)
        edges = [DimensionEdge(rule, d, _random_weight(rng)) for d in dims]
        dim_edges_by_rule[rule] = edges
        triples += [WeightedTriple(e.rule, REL_CONTRIBUTES, e.dimension, e.weight) for e in edges]

    plans: list[AssessmentPlan] = []
    for i in range(cfg.n_contexts):
        ctx = _random_context(rng, cfg, i)
        triples += context_to_triples(ctx)

        rule_edges: list[RuleEdge] = []
        for attr in ctx.attributes:
            node = ctx.attribute_node(attr.name)
            for pos, rule in enumerate(rules_for_attribute(attr.name)):
                edge = RuleEdge(node, rule, _banded_weight(rng, pos))
                rule_edges.append(edge)
                triples.append(WeightedTriple(edge.attribute, REL_QUALITY_RULE, edge.rule, edge.weight))

        selected = {e.rule for e in rule_edges}
        # list dimension edges in global emission order to mirror extraction order
        dim_edges = tuple(
            e for rule in QUALITY_MEASURES if rule in selected for e in dim_edges_by_rule[rule]
        )
        plans.append(AssessmentPlan(ctx.context_id, tuple(rule_edges), dim_edges))

    return TripleGraph.from_triples(triples), plans


# --- radiation monitoring scenario -----------------------------------------

RADIATION_STORED_ID = "radiation_station_archive"
RADIATION_INPUT_ID = "radiation_field_survey"


def radiation_stored_context() -> ContextDescriptor:
    """The stored radiation-monitoring context: three sensor columns."""
    return ContextDescriptor(
        context_id=RADIATION_STORED_ID,
        data_type="structured",
        attributes=(
            Attribute("dose_rate", AttributeType.NUMERIC),
            Attribute("location", AttributeType.TEXT),
            Attribute("timestamp", AttributeType.DATE),
        ),
        data_source="sensor feeds",
        size_bucket="medium",
        domain="radiation monitoring",
        file_format="csv",
        content_type="environment",
        security_level="public",
    )


def radiation_stored_plan() -> AssessmentPlan:
    """Hand-written plan for the stored context: seven distinct measures over
    the three attributes, reaching eight distinct dimensions."""
    ctx = RADIATION_STORED_ID
    rule_edges = (
        RuleEdge(f"{ctx}_attr_dose_rate", "range_check", 0.92),
        RuleEdge(f"{ctx}_attr_dose_rate", "outliers_detection", 0.88),
        RuleEdge(f"{ctx}_attr_dose_rate", "null_count", 0.75),
        RuleEdge(f"{ctx}_attr_location", "missing_values", 0.81),
        RuleEdge(f"{ctx}_attr_location", "format_validity", 0.66),
        RuleEdge(f"{ctx}_attr_timestamp", "data_entry_error", 0.7),
        RuleEdge(f"{ctx}_attr_timestamp", "duplication_check", 0.64),
    )
    dimension_edges = (
        DimensionEdge("range_check", "accuracy", 0.9),
        DimensionEdge("range_check", "precision", 0.72),
        DimensionEdge("outliers_detection", "consistency", 0.85),
        DimensionEdge("null_count", "completeness", 0.93),
        DimensionEdge("missing_values", "completeness", 0.89),
        DimensionEdge("missing_values", "availability", 0.61),
        DimensionEdge("format_validity", "understandability", 0.67),
        DimensionEdge("data_entry_error", "credibility", 0.78),
        DimensionEdge("duplication_check", "currentness", 0.58),
    )
    return AssessmentPlan(ctx, rule_edges, dimension_edges)


def radiation_input_context() -> ContextDescriptor:
    """The incoming five-attribute radiation dataset's context."""
    return ContextDescriptor(
        context_id=RADIATION_INPUT_ID,
        data_type="structured",
        attributes=(
            Attribute("dose_rate", AttributeType.NUMERIC),
            Attribute("location", AttributeType.TEXT),
            Attribute("battery_level", AttributeType.NUMERIC),
            Attribute("rain_level", AttributeType.NUMERIC),
            Attribute("timestamp", AttributeType.DATE),
        ),
        data_source="sensor feeds",
        size_bucket="medium",
        domain="radiation monitoring",
        file_format="csv",
        content_type="environment",
        security_level="public",
    )


@dataclass(frozen=True)
class RadiationScenario:
    graph: TripleGraph  # background contexts + the stored radiation context and plan
    stored_context: ContextDescriptor
    stored_plan: AssessmentPlan
    input_context: ContextDescriptor


def build_radiation_scenario(n_background: int = 12, seed: int = 11) -> RadiationScenario:
    """Background corpus plus one stored radiation context holding a plan.

    Background contexts draw from pools that avoid the radiation context's
    domain, source, and format so similarity search has a clear target. The
    incoming context is returned unmerged; pipelines add it as they need.
    """
    cfg = GeneratorConfig(
        n_contexts=n_background,
        seed=seed,
        attrs_per_context=(3, 8),
        domain_pool=("iot", "social media", "healthcare", "finance", "news"),
        source_pool=("machine logs", "tweets", "database export"),
        format_pool=("json", "xml", "parquet"),
    )
    graph, _ = generate_synthetic_graph(cfg)
    stored = radiation_stored_context()
    plan = radiation_stored_plan()
    # the stored plan owns its rules' dimension edges: drop the generator's
    # global ones for those rules so plan extraction returns the plan verbatim
    plan_rules = set(plan.rules)
    kept = [t for t in graph
            if not (t.relation == REL_CONTRIBUTES and t.source in plan_rules)]
    graph = TripleGraph.from_triples(kept)
    graph = graph.extended(context_to_triples(stored) + plan_to_triples(plan))
    return RadiationScenario(graph, stored, plan, radiation_input_context())
