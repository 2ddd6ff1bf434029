"""Assessment plan generation from a trained link predictor.

A new context is merged into the metadata graph and embedded, and candidate
quality checks are ranked by their link scores. Without a stored model the
embedding is trained from scratch on the merged graph. With one, the context
is folded in: every row the stored model has stays fixed, and only the rows
it lacks (the context, schema and attribute nodes, any new value or
relation) are learned, from the triples that touch them. This is the
out-of-sample setting of Albooyeh, Goel & Kazemi, "Out-of-Sample
Representation Learning for Knowledge Graphs" (Findings of EMNLP 2020).
Raw scores are mapped to [0, 1] weights with a per-relation min-max
calibration fitted on the known edges.

Only the missing edges are predicted: the rules of each new attribute, and
the dimensions of a rule the graph stores none for. The ``contributesTo``
edges the graph already stores are facts, and a plan copies them with their
stored weights, exactly as :func:`~qakge.contexts.extract_plan` reads them.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contexts import (
    KIND_DIMENSION,
    KIND_MEASURE,
    REL_CONTRIBUTES,
    REL_KIND,
    REL_QUALITY_RULE,
    AssessmentPlan,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    attribute_name,
    check_integer,
    check_number,
    context_to_triples,
    stored_dimension_edges,
)
from .errors import ContextMismatchError, InputError
from .model import ModelParams, score_all_objects, score_triples
from .training import Hyperparams, TrainReport, train
from .triples import TripleGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class PredictedEdge:
    source: str
    relation: str
    target: str
    raw_score: float
    calibrated_weight: float


def fit_calibration(model: ModelParams, graph: TripleGraph) -> dict[str, tuple[float, float]]:
    """Score every existing edge and map each relation to its (min, max) raw score."""
    idx, _ = graph.index_arrays(model.vocab)
    raw = score_triples(model, idx) if idx.shape[0] else np.empty(0)
    by_relation: dict[str, tuple[float, float]] = {}
    for rel_id, rel_name in enumerate(model.vocab.relations):
        mask = idx[:, 1] == rel_id if idx.shape[0] else np.zeros(0, dtype=bool)
        if not mask.any():
            logger.warning("relation %r has no edges to calibrate on", rel_name)
            continue
        scores = raw[mask]
        by_relation[rel_name] = (float(scores.min()), float(scores.max()))
    return by_relation


def calibrate_weight(raw: float, relation: str, stats: dict[str, tuple[float, float]]) -> float:
    """Min-max map a raw score into [0, 1], clamped at the boundaries."""
    if relation not in stats:
        raise InputError(f"no calibration fitted for relation {relation!r}")
    lo, hi = stats[relation]
    if hi == lo:
        return 0.5  # degenerate range carries no ordering information
    return float(min(1.0, max(0.0, (raw - lo) / (hi - lo))))


def _predict_edges(
    model: ModelParams,
    source: str,
    relation: str,
    pool: Sequence[str],
    stats: dict[str, tuple[float, float]],
    tau: float,
    top_m: int,
) -> list[PredictedEdge]:
    """Rank ``pool`` as objects of (source, relation, ?) and select.

    Candidates scoring a calibrated weight >= tau are kept; if none pass,
    the best ``top_m`` by raw score are kept instead, so the result is
    never empty for a non-empty pool.
    """
    if not pool:
        raise InputError(f"empty candidate pool for relation {relation!r}")
    s = model.vocab.entity_index.get(source)
    if s is None:
        raise InputError(f"unknown entity {source!r}")
    p = model.vocab.relation_index.get(relation)
    if p is None:
        raise InputError(f"unknown relation {relation!r}")
    all_scores = score_all_objects(model, s, p)
    pool_ids = [model.vocab.entity_index[name] for name in pool]
    scored = [(float(all_scores[i]), name) for i, name in zip(pool_ids, pool)]
    scored.sort(key=lambda t: (-t[0], t[1]))

    edges = [
        PredictedEdge(source, relation, name, raw,
                      calibrate_weight(raw, relation, stats))
        for raw, name in scored
    ]
    kept = [e for e in edges if e.calibrated_weight >= tau]
    if not kept:
        kept = edges[: min(top_m, len(edges))]
    return kept


def predict_rules_for_attribute(
    model: ModelParams,
    attribute_node: str,
    pool: Sequence[str],
    stats: dict[str, tuple[float, float]],
    *,
    tau: float,
    top_m: int,
) -> list[PredictedEdge]:
    return _predict_edges(model, attribute_node, REL_QUALITY_RULE, pool, stats, tau, top_m)


def predict_dimensions_for_rule(
    model: ModelParams,
    rule_node: str,
    pool: Sequence[str],
    stats: dict[str, tuple[float, float]],
    *,
    tau: float,
    top_m: int,
) -> list[PredictedEdge]:
    return _predict_edges(model, rule_node, REL_CONTRIBUTES, pool, stats, tau, top_m)


def _inventory(graph: TripleGraph, kind: str, relation: str) -> tuple[str, ...]:
    """Candidate node pool: declared members of ``kind``, else observed targets."""
    declared = sorted(
        t.source for t in graph.triples
        if t.relation == REL_KIND and t.target == kind
    )
    if declared:
        return tuple(declared)
    observed = sorted({t.target for t in graph.triples if t.relation == relation})
    if not observed:
        raise InputError(
            f"graph has no {kind!r} declarations and no {relation!r} edges; "
            "cannot form a candidate pool"
        )
    logger.warning("no %r declarations; falling back to %d observed %r targets",
                   kind, len(observed), relation)
    return tuple(observed)


def rule_pool(graph: TripleGraph) -> tuple[str, ...]:
    return _inventory(graph, KIND_MEASURE, REL_QUALITY_RULE)


def dimension_pool(graph: TripleGraph) -> tuple[str, ...]:
    return _inventory(graph, KIND_DIMENSION, REL_CONTRIBUTES)


@dataclass
class PlanProvenance:
    """Everything needed to audit one generated plan."""

    train_report: TrainReport
    raw_scores: dict[tuple[str, str], float]
    seconds: float
    model: ModelParams = field(repr=False)


def generate_plan(
    graph: TripleGraph,
    new_context: ContextDescriptor,
    hp: Hyperparams,
    tau: float = 0.5,
    top_m: int = 3,
    *,
    warm_start: ModelParams | None = None,
) -> tuple[AssessmentPlan, PlanProvenance]:
    """Predict a quality assessment plan for a previously unseen context.

    The context's description triples are appended to the graph (weight 1).
    Without ``warm_start`` a fresh model is trained on the merged graph.
    With it, the context is folded into that stored model: rows it has are
    copied by name and stay fixed, and ``hp.epochs`` epochs train only the
    rows it lacks, on the merged triples that touch them, so a plan costs
    time in proportion to the new context rather than to the graph.
    Calibration is then fitted on the merged graph as in the cold case.
    Rules are predicted per attribute. A predicted rule's dimension edges
    are the ``contributesTo`` edges the graph stores for it, with their
    stored weights; dimensions are predicted only for a rule that has none.
    ``raw_scores`` holds the predicted edges only.
    """
    check_number("tau", tau, 0, 1)
    check_integer("top_m", top_m, 1)
    if new_context.context_id in graph.vocab.entity_index:
        raise InputError(
            f"context id collision: {new_context.context_id!r} already in graph"
        )
    t0 = time.perf_counter()
    merged = graph.extended(context_to_triples(new_context))

    model, report = train(merged, hp, base=warm_start)
    stats = fit_calibration(model, merged)

    rules_avail = rule_pool(merged)
    raw_scores: dict[tuple[str, str], float] = {}
    rule_edges: list[RuleEdge] = []
    for attr in new_context.attributes:
        node = new_context.attribute_node(attr.name)
        for e in predict_rules_for_attribute(model, node, rules_avail, stats,
                                             tau=tau, top_m=top_m):
            rule_edges.append(RuleEdge(e.source, e.target, e.calibrated_weight))
            raw_scores[(e.source, e.target)] = e.raw_score

    rules = dict.fromkeys(e.rule for e in rule_edges)
    dim_edges = list(stored_dimension_edges(merged, rules))
    answered = {e.rule for e in dim_edges}
    unanswered = [r for r in rules if r not in answered]
    dims_avail = dimension_pool(merged) if unanswered else ()
    for rule in unanswered:
        for e in predict_dimensions_for_rule(model, rule, dims_avail, stats,
                                             tau=tau, top_m=top_m):
            dim_edges.append(DimensionEdge(e.source, e.target, e.calibrated_weight))
            raw_scores[(e.source, e.target)] = e.raw_score

    plan = AssessmentPlan(new_context.context_id, tuple(rule_edges), tuple(dim_edges))
    prov = PlanProvenance(
        train_report=report,
        raw_scores=raw_scores,
        seconds=time.perf_counter() - t0,
        model=model,
    )
    return plan, prov


@dataclass(frozen=True, slots=True)
class PlanCoverage:
    """How much of a reference plan another plan reproduces."""

    covered: tuple[str, ...]
    uncovered: tuple[str, ...]
    total: int
    n_rules: int
    n_dimensions: int

    @property
    def fraction(self) -> float:
        return len(self.covered) / self.total if self.total else 1.0


@dataclass(frozen=True, slots=True)
class PlanComparison:
    context_id: str
    coverage_a: PlanCoverage
    coverage_b: PlanCoverage
    shared_rules: tuple[str, ...]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]


def _attribute_coverage(plan: AssessmentPlan, context: ContextDescriptor) -> PlanCoverage:
    """Attributes of ``context`` that the plan assigns at least one rule.

    Matching is by attribute name (:func:`attribute_name`), so plans copied
    from another context (whose edges mention that context's attribute
    nodes) still count.
    """
    wanted = [a.name for a in context.attributes]
    have = {attribute_name(e.attribute, context.context_id) for e in plan.rule_edges}
    covered = tuple(n for n in wanted if n in have)
    uncovered = tuple(n for n in wanted if n not in have)
    return PlanCoverage(
        covered=covered,
        uncovered=uncovered,
        total=len(wanted),
        n_rules=len(plan.rules),
        n_dimensions=len(plan.dimensions),
    )


def compare_plans(
    plan_a: AssessmentPlan,
    plan_b: AssessmentPlan,
    context: ContextDescriptor,
) -> PlanComparison:
    """Side-by-side coverage of two plans for the same context."""
    ids = {plan_a.context_id, plan_b.context_id, context.context_id}
    if len(ids) != 1:
        raise ContextMismatchError(
            f"plans and context disagree on the context id: {sorted(ids)}"
        )
    cov_a = _attribute_coverage(plan_a, context)
    cov_b = _attribute_coverage(plan_b, context)
    rules_a, rules_b = set(plan_a.rules), set(plan_b.rules)
    return PlanComparison(
        context_id=context.context_id,
        coverage_a=cov_a,
        coverage_b=cov_b,
        shared_rules=tuple(sorted(rules_a & rules_b)),
        only_a=tuple(sorted(rules_a - rules_b)),
        only_b=tuple(sorted(rules_b - rules_a)),
    )


def comparison_report(cmp: PlanComparison, label_a: str, label_b: str) -> str:
    """Human-readable comparison summary, naming the plans ``label_a`` and
    ``label_b``."""
    lines = [f"context: {cmp.context_id}"]
    for label, cov in ((label_a, cmp.coverage_a), (label_b, cmp.coverage_b)):
        lines.append(
            f"{label}: covers {len(cov.covered)}/{cov.total} attributes, "
            f"{cov.n_rules} rules, {cov.n_dimensions} dimensions"
        )
        if cov.uncovered:
            lines.append(f"{label} misses: {', '.join(cov.uncovered)}")
    lines.append(f"shared rules: {', '.join(cmp.shared_rules) or '(none)'}")
    if cmp.only_a:
        lines.append(f"only {label_a}: {', '.join(cmp.only_a)}")
    if cmp.only_b:
        lines.append(f"only {label_b}: {', '.join(cmp.only_b)}")
    return "\n".join(lines)
