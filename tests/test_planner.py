"""Plan generation: calibration, edge selection, coverage comparison."""
import numpy as np
import pytest

from qakge.contexts import (
    KIND_MEASURE,
    REL_CONTRIBUTES,
    REL_KIND,
    REL_QUALITY_RULE,
    AssessmentPlan,
    Attribute,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    context_to_triples,
    plan_to_dict,
)
from qakge.errors import ContextMismatchError, InputError
from qakge.model import ModelParams, init_model
from qakge.planner import (
    PlanCoverage,
    calibrate_weight,
    compare_plans,
    comparison_report,
    dimension_pool,
    fit_calibration,
    generate_plan,
    predict_rules_for_attribute,
    rule_pool,
)
from qakge.synth import GeneratorConfig, generate_synthetic_graph, radiation_input_context
from qakge.training import Hyperparams, train
from qakge.triples import TripleGraph, Vocabulary, WeightedTriple


def k1_model(values: dict[str, float], relations: list[str]) -> ModelParams:
    """k=1 model where score(s, r, o) = values[s] * values[o] for every r."""
    names = sorted(values)
    vocab = Vocabulary.from_names(names, relations)
    col = np.array([[values[n]] for n in vocab.entities], dtype=np.complex128)
    return ModelParams(np.concatenate([col, np.ones((len(relations), 1), dtype=np.complex128)]), vocab)


def test_calibrate_weight_worked_examples():
    stats = {"r": (-2.0, 3.0)}
    assert calibrate_weight(-2.0, "r", stats) == 0.0
    assert calibrate_weight(0.0, "r", stats) == pytest.approx(0.4)
    assert calibrate_weight(3.0, "r", stats) == 1.0
    assert calibrate_weight(99.0, "r", stats) == 1.0  # clamped above
    assert calibrate_weight(-7.0, "r", stats) == 0.0  # clamped below
    degenerate = {"r": (2.0, 2.0)}
    assert calibrate_weight(5.0, "r", degenerate) == 0.5
    with pytest.raises(InputError, match="no calibration"):
        calibrate_weight(1.0, "missing", stats)


def test_calibrate_weight_is_monotone():
    stats = {"r": (-1.0, 4.0)}
    raws = [-3.0, -1.0, 0.0, 1.5, 4.0, 9.0]
    weights = [calibrate_weight(x, "r", stats) for x in raws]
    assert weights == sorted(weights)


def test_fit_calibration_per_relation_ranges(caplog):
    model = k1_model({"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}, ["r", "r_unused"])
    graph = TripleGraph.from_triples([
        WeightedTriple("a", "r", "b", 1.0),   # raw 6
        WeightedTriple("a", "r", "d", 1.0),   # raw 3
        WeightedTriple("b", "r", "d", 1.0),   # raw 2
    ])
    with caplog.at_level("WARNING"):
        stats = fit_calibration(model, graph)
    assert stats == {"r": (2.0, 6.0)}
    assert any("no edges to calibrate" in r.message for r in caplog.records)


def rule_model() -> ModelParams:
    values = {"attr": 1.0, "rule_hi": 5.0, "rule_mid": 3.0, "rule_tie": 3.0, "rule_lo": 1.0}
    return k1_model(values, [REL_QUALITY_RULE])


def test_predicted_edges_keep_tau_passers_in_score_order():
    model = rule_model()
    stats = {REL_QUALITY_RULE: (1.0, 5.0)}
    pool = ["rule_lo", "rule_hi", "rule_mid"]
    kept = predict_rules_for_attribute(model, "attr", pool, stats, tau=0.5, top_m=3)
    assert [(e.target, e.raw_score) for e in kept] == [("rule_hi", 5.0), ("rule_mid", 3.0)]
    assert kept[0].calibrated_weight == 1.0
    assert kept[1].calibrated_weight == 0.5
    assert all(e.source == "attr" and e.relation == REL_QUALITY_RULE for e in kept)

    strict = predict_rules_for_attribute(model, "attr", pool, stats, tau=0.9, top_m=3)
    assert [e.target for e in strict] == ["rule_hi"]


def test_fallback_keeps_top_m_when_nothing_clears_tau():
    model = rule_model()
    # calibration range far above every raw score: all weights clamp to 0
    stats = {REL_QUALITY_RULE: (10.0, 20.0)}
    pool = ["rule_lo", "rule_hi", "rule_mid"]
    kept = predict_rules_for_attribute(model, "attr", pool, stats, tau=0.5, top_m=2)
    assert [e.target for e in kept] == ["rule_hi", "rule_mid"]
    everything = predict_rules_for_attribute(model, "attr", pool, stats, tau=0.5, top_m=99)
    assert len(everything) == 3


def test_equal_raw_scores_break_ties_by_name():
    model = rule_model()
    stats = {REL_QUALITY_RULE: (10.0, 20.0)}
    kept = predict_rules_for_attribute(
        model, "attr", ["rule_tie", "rule_mid"], stats, tau=0.5, top_m=2
    )
    assert [e.target for e in kept] == ["rule_mid", "rule_tie"]


def test_predict_argument_errors():
    model = rule_model()
    stats = {REL_QUALITY_RULE: (0.0, 1.0)}
    with pytest.raises(InputError, match="empty candidate pool"):
        predict_rules_for_attribute(model, "attr", [], stats, tau=0.5, top_m=3)
    with pytest.raises(InputError, match="unknown entity"):
        predict_rules_for_attribute(model, "ghost", ["rule_hi"], stats, tau=0.5, top_m=3)
    no_rel = k1_model({"attr": 1.0, "rule_hi": 2.0}, ["other"])
    with pytest.raises(InputError, match="unknown relation"):
        predict_rules_for_attribute(no_rel, "attr", ["rule_hi"], stats, tau=0.5, top_m=3)


def test_candidate_pools_prefer_declarations():
    declared = TripleGraph.from_triples([
        WeightedTriple("m2", "isA", "quality_measure", 1.0),
        WeightedTriple("m1", "isA", "quality_measure", 1.0),
        WeightedTriple("dim1", "isA", "quality_dimension", 1.0),
        WeightedTriple("x_attr_a", "hasQualityRule", "m9", 1.0),
    ])
    assert rule_pool(declared) == ("m1", "m2")
    assert dimension_pool(declared) == ("dim1",)

    observed = TripleGraph.from_triples([
        WeightedTriple("x_attr_a", "hasQualityRule", "m9", 1.0),
        WeightedTriple("x_attr_b", "hasQualityRule", "m3", 1.0),
        WeightedTriple("m3", "contributesTo", "dim7", 1.0),
    ])
    assert rule_pool(observed) == ("m3", "m9")
    assert dimension_pool(observed) == ("dim7",)

    bare = TripleGraph.from_triples([WeightedTriple("a", "linked", "b", 1.0)])
    with pytest.raises(InputError, match="candidate pool"):
        rule_pool(bare)


FAST_HP = Hyperparams(k=8, eta=2, batch_size=128, learning_rate=1e-2, epochs=3, seed=0)


def small_world() -> TripleGraph:
    graph, _ = generate_synthetic_graph(
        GeneratorConfig(n_contexts=3, seed=5, attrs_per_context=(2, 4))
    )
    return graph


def test_generate_plan_covers_every_attribute():
    graph = small_world()
    query = radiation_input_context()
    plan, prov = generate_plan(graph, query, FAST_HP, tau=0.5, top_m=3)
    assert plan.context_id == query.context_id
    attr_nodes = {query.attribute_node(a.name) for a in query.attributes}
    assert {e.attribute for e in plan.rule_edges} == attr_nodes
    # every selected rule carries at least one dimension edge and vice versa
    assert {e.rule for e in plan.dimension_edges} == set(plan.rules)
    assert all(0.0 <= e.weight <= 1.0 for e in plan.rule_edges + plan.dimension_edges)

    assert prov.seconds > 0.0
    assert len(prov.train_report.losses) == FAST_HP.epochs
    assert {(e.attribute, e.rule) for e in plan.rule_edges} <= set(prov.raw_scores)


def test_plan_copies_the_stored_dimension_edges_of_its_rules():
    graph = small_world()
    query = radiation_input_context()
    plan, prov = generate_plan(graph, query, FAST_HP, tau=0.5, top_m=3)
    merged = graph.extended(context_to_triples(query))
    stored = {(t.source, t.target, t.weight) for t in merged
              if t.relation == REL_CONTRIBUTES and t.source in plan.rules}
    assert {(e.rule, e.dimension, e.weight) for e in plan.dimension_edges} == stored
    assert not {(e.rule, e.dimension) for e in plan.dimension_edges} & set(prov.raw_scores)
    doc = plan_to_dict(plan, prov.raw_scores)
    assert all("raw_score" in e for e in doc["rule_edges"])
    assert not any("raw_score" in e for e in doc["dimension_edges"])


def test_plan_predicts_dimensions_only_for_a_rule_the_graph_stores_none_for():
    world = small_world()
    bare = "range_check"  # declared measure in every synthetic graph
    graph = TripleGraph.from_triples(
        t for t in world if not (t.relation == REL_CONTRIBUTES and t.source == bare))
    assert (bare, REL_KIND, KIND_MEASURE) in graph.keys()
    query = radiation_input_context()
    # tau 0 keeps every candidate, so every declared measure is a predicted rule
    plan, prov = generate_plan(graph, query, FAST_HP, tau=0.0, top_m=1)
    assert bare in plan.rules
    predicted = [e for e in plan.dimension_edges if e.rule == bare]
    assert {e.dimension for e in predicted} == set(dimension_pool(graph))
    assert all((e.rule, e.dimension) in prov.raw_scores for e in predicted)
    stored = [e for e in plan.dimension_edges if e.rule != bare]
    assert stored and not {(e.rule, e.dimension) for e in stored} & set(prov.raw_scores)


def test_generate_plan_rejects_bad_arguments():
    graph = small_world()
    query = radiation_input_context()
    with pytest.raises(InputError, match="tau"):
        generate_plan(graph, query, FAST_HP, tau=1.5)
    with pytest.raises(InputError, match="top_m"):
        generate_plan(graph, query, FAST_HP, top_m=0)
    with pytest.raises(InputError, match="tau must be a number, got '0.5'"):
        generate_plan(graph, query, FAST_HP, tau="0.5")
    taken = next(
        t.source for t in graph.triples if t.relation == "hasSchema"
    )
    clash = ContextDescriptor(
        context_id=taken,
        data_type="structured",
        attributes=(Attribute("a", "numeric"),),
    )
    with pytest.raises(InputError, match="collision"):
        generate_plan(graph, clash, FAST_HP)


def test_warm_start_seeds_shared_rows():
    graph = small_world()
    base_model, _ = train(graph, FAST_HP)
    query = radiation_input_context()
    frozen = Hyperparams(k=8, eta=2, batch_size=128, learning_rate=1e-15,
                         epochs=1, seed=0)
    plan, prov = generate_plan(graph, query, frozen, warm_start=base_model)
    shared = "range_check"  # measure node present in every synthetic graph
    i = prov.model.vocab.entity_index[shared]
    j = base_model.vocab.entity_index[shared]
    assert np.allclose(prov.model.ent_re[i], base_model.ent_re[j], atol=1e-9)
    cold = init_model(prov.model.vocab, frozen.k, frozen.seed)
    assert not np.allclose(prov.model.ent_re[i], cold.ent_re[i])

    mismatched = init_model(base_model.vocab, 4, 0)
    with pytest.raises(InputError, match="warm start dimension"):
        generate_plan(graph, query, frozen, warm_start=mismatched)


def test_fold_in_keeps_checkpoint_rows_and_trains_new_ones():
    graph = small_world()
    base_model, _ = train(graph, FAST_HP)
    query = radiation_input_context()
    _, prov = generate_plan(graph, query, FAST_HP, warm_start=base_model)
    model, vocab = prov.model, prov.model.vocab
    for name, j in base_model.vocab.entity_index.items():
        i = vocab.entity_index[name]
        assert np.array_equal(model.ent_re[i], base_model.ent_re[j])
        assert np.array_equal(model.ent_im[i], base_model.ent_im[j])
    for name, j in base_model.vocab.relation_index.items():
        i = vocab.relation_index[name]
        assert np.array_equal(model.rel_re[i], base_model.rel_re[j])
        assert np.array_equal(model.rel_im[i], base_model.rel_im[j])
    new = [i for name, i in vocab.entity_index.items()
           if name not in base_model.vocab.entity_index]
    assert query.attribute_node(query.attributes[0].name) in vocab.entities
    assert len(new) > len(query.attributes)
    cold = init_model(vocab, FAST_HP.k, FAST_HP.seed)
    for i in new:
        assert not np.allclose(model.ent_re[i], cold.ent_re[i])
    assert len(prov.train_report.losses) == FAST_HP.epochs


def test_fold_in_trains_a_relation_the_checkpoint_lacks():
    world = small_world()
    graph = TripleGraph.from_triples(t for t in world if t.relation != "hasSecurityLevel")
    base_model, _ = train(graph, FAST_HP)
    assert "hasSecurityLevel" not in base_model.vocab.relation_index
    query = radiation_input_context()
    _, prov = generate_plan(graph, query, FAST_HP, warm_start=base_model)
    r = prov.model.vocab.relation_index["hasSecurityLevel"]
    cold = init_model(prov.model.vocab, FAST_HP.k, FAST_HP.seed)
    assert not np.allclose(prov.model.rel_re[r], cold.rel_re[r])
    assert not np.allclose(prov.model.rel_im[r], cold.rel_im[r])


def test_seeded_fold_in_is_bit_for_bit_reproducible():
    graph = small_world()
    base_model, _ = train(graph, FAST_HP)
    query = radiation_input_context()
    plan_a, prov_a = generate_plan(graph, query, FAST_HP, warm_start=base_model)
    plan_b, prov_b = generate_plan(graph, query, FAST_HP, warm_start=base_model)
    assert plan_a == plan_b
    assert prov_a.raw_scores == prov_b.raw_scores
    assert prov_a.train_report.losses == prov_b.train_report.losses
    for left, right in zip(prov_a.model.arrays(), prov_b.model.arrays()):
        assert np.array_equal(left, right)


def two_plans() -> tuple[AssessmentPlan, AssessmentPlan, ContextDescriptor]:
    ctx = ContextDescriptor(
        context_id="survey",
        data_type="structured",
        attributes=(Attribute("x", "numeric"), Attribute("y", "text")),
    )
    plan_a = AssessmentPlan(
        "survey",
        rule_edges=(
            RuleEdge("survey_attr_x", "range_check", 0.9),
            RuleEdge("survey_attr_y", "completeness_score", 0.7),
        ),
        dimension_edges=(DimensionEdge("range_check", "accuracy", 0.8),),
    )
    plan_b = AssessmentPlan(
        "survey",
        rule_edges=(RuleEdge("donor_attr_x", "range_check", 0.5),),
        dimension_edges=(DimensionEdge("range_check", "accuracy", 0.5),),
    )
    return plan_a, plan_b, ctx


def test_compare_plans_numbers():
    plan_a, plan_b, ctx = two_plans()
    cmp = compare_plans(plan_a, plan_b, ctx)
    assert cmp.coverage_a.covered == ("x", "y")
    assert cmp.coverage_a.fraction == 1.0
    # plan_b's edge names a donor context's attribute node, but the base
    # name still matches the context attribute
    assert cmp.coverage_b.covered == ("x",)
    assert cmp.coverage_b.uncovered == ("y",)
    assert cmp.coverage_b.fraction == 0.5
    assert cmp.shared_rules == ("range_check",)
    assert cmp.only_a == ("completeness_score",)
    assert cmp.only_b == ()


def test_compare_plans_reads_a_context_id_that_holds_the_attribute_marker():
    # `qakge profile` names a context after its file, so sensor_attr_log.csv
    # gives attribute nodes like sensor_attr_log_attr_x
    ctx = ContextDescriptor(
        context_id="sensor_attr_log",
        data_type="structured",
        attributes=(Attribute("x", "numeric"), Attribute("y", "text")),
    )
    plan = AssessmentPlan(
        "sensor_attr_log",
        rule_edges=(RuleEdge(ctx.attribute_node("x"), "range_check", 0.9),
                    RuleEdge(ctx.attribute_node("y"), "null_count", 0.7)),
        dimension_edges=(),
    )
    cmp = compare_plans(plan, plan, ctx)
    assert cmp.coverage_a.covered == cmp.coverage_b.covered == ("x", "y")
    assert "a: covers 2/2 attributes" in comparison_report(cmp, "a", "b")


def test_compare_plans_rejects_mismatched_ids():
    plan_a, plan_b, ctx = two_plans()
    stranger = AssessmentPlan("elsewhere", plan_b.rule_edges, plan_b.dimension_edges)
    with pytest.raises(ContextMismatchError, match="disagree"):
        compare_plans(plan_a, stranger, ctx)


def test_comparison_report_mentions_the_numbers():
    plan_a, plan_b, ctx = two_plans()
    text = comparison_report(compare_plans(plan_a, plan_b, ctx), "kge", "walk")
    assert "context: survey" in text
    assert "kge: covers 2/2 attributes, 2 rules, 1 dimensions" in text
    assert "walk: covers 1/2 attributes, 1 rules, 1 dimensions" in text
    assert "walk misses: y" in text
    assert "shared rules: range_check" in text
    assert "only kge: completeness_score" in text


def test_empty_coverage_fraction_is_one():
    assert PlanCoverage((), (), 0, 0, 0).fraction == 1.0
