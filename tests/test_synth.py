import hashlib

import pytest

from qakge.contexts import extract_plan, from_json_object, triples_to_context
from qakge.errors import InputError
from qakge.synth import (
    KIND_DIMENSION,
    KIND_MEASURE,
    QUALITY_DIMENSIONS,
    QUALITY_MEASURES,
    REL_KIND,
    WEIGHT_RANGE,
    GeneratorConfig,
    build_radiation_scenario,
    generate_synthetic_graph,
    radiation_input_context,
    radiation_stored_context,
    radiation_stored_plan,
)
from qakge.triples import save_triples_csv


def test_inventories_are_fixed():
    assert len(QUALITY_MEASURES) == 10
    assert len(QUALITY_DIMENSIONS) == 15
    assert "null_count" in QUALITY_MEASURES
    assert "completeness" in QUALITY_DIMENSIONS
    assert len(set(QUALITY_MEASURES)) == 10
    assert len(set(QUALITY_DIMENSIONS)) == 15


def test_config_validation():
    with pytest.raises(InputError):
        GeneratorConfig(n_contexts=0)
    with pytest.raises(InputError):
        GeneratorConfig(attrs_per_context=(5, 3))
    with pytest.raises(InputError, match="bogus"):
        from_json_object(GeneratorConfig, {"bogus": 1}, "generator config")
    cfg = from_json_object(GeneratorConfig, {"n_contexts": 4, "seed": 2}, "generator config")
    assert cfg.n_contexts == 4 and cfg.seed == 2


def test_default_graph_size_and_inventory():
    graph, plans = generate_synthetic_graph(GeneratorConfig())
    assert 4500 <= len(graph) <= 7000
    assert len(plans) == 41
    measures = {t.source for t in graph if t.relation == REL_KIND and t.target == KIND_MEASURE}
    dims = {t.source for t in graph if t.relation == REL_KIND and t.target == KIND_DIMENSION}
    assert measures == set(QUALITY_MEASURES)
    assert dims == set(QUALITY_DIMENSIONS)


def test_generation_is_deterministic(tmp_path):
    cfg = GeneratorConfig(n_contexts=5, seed=42)
    g1, p1 = generate_synthetic_graph(cfg)
    g2, p2 = generate_synthetic_graph(cfg)
    assert p1 == p2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_triples_csv(g1, a)
    save_triples_csv(g2, b)
    assert a.read_bytes() == b.read_bytes()
    # a different seed actually changes the output
    g3, _ = generate_synthetic_graph(GeneratorConfig(n_contexts=5, seed=43))
    assert g3.keys() != g1.keys()


def test_ground_truth_matches_extraction():
    cfg = GeneratorConfig(n_contexts=6, seed=9, attrs_per_context=(3, 6))
    graph, plans = generate_synthetic_graph(cfg)
    for plan in plans:
        assert extract_plan(graph, plan.context_id) == plan


def test_contexts_round_trip_from_graph():
    cfg = GeneratorConfig(n_contexts=4, seed=3, attrs_per_context=(3, 5))
    graph, plans = generate_synthetic_graph(cfg)
    for plan in plans:
        ctx = triples_to_context(graph, plan.context_id)
        assert ctx.context_id == plan.context_id
        assert len(ctx.attributes) >= 3
        # every planned attribute belongs to the context
        attr_nodes = {ctx.attribute_node(a.name) for a in ctx.attributes}
        assert {e.attribute for e in plan.rule_edges} <= attr_nodes


def test_plan_weights_in_configured_range():
    lo, hi = WEIGHT_RANGE
    assert (lo, hi) == (0.1, 1.0)
    _, plans = generate_synthetic_graph(GeneratorConfig(n_contexts=3, seed=1))
    for plan in plans:
        for e in plan.rule_edges + plan.dimension_edges:
            assert lo <= e.weight <= hi
            assert e.weight == round(e.weight, 4)


@pytest.mark.parametrize("make, digest", [
    (lambda: generate_synthetic_graph(GeneratorConfig())[0],
     "d789a3917f870e86e0978058d9bc9af6d55c85c35ee1da61641afa37b910e4d0"),
    (lambda: generate_synthetic_graph(
        GeneratorConfig(n_contexts=12, seed=11, attrs_per_context=(3, 8)))[0],
     "6eed5ce177423887e0a192c0b47c066f7753793a0d6fd2fd35b2da0edf7f1e8f"),
    (lambda: build_radiation_scenario().graph,
     "1aaa88278327b52ffc9b313be1d4f0ffb4ff7ac6d8fffa5e8a3a14f5c7e261b1"),
], ids=["default", "heldout-plan", "radiation"])
def test_corpora_are_pinned(tmp_path, make, digest):
    """The CSV bytes of the corpora the tests and the benchmark train on;
    a change to the generator that moves them retunes every result."""
    save_triples_csv(make(), tmp_path / "graph.csv")
    assert hashlib.sha256((tmp_path / "graph.csv").read_bytes()).hexdigest() == digest


def test_radiation_fixtures():
    stored = radiation_stored_context()
    assert [a.name for a in stored.attributes] == ["dose_rate", "location", "timestamp"]
    assert stored.domain == "radiation monitoring"

    plan = radiation_stored_plan()
    assert plan.context_id == stored.context_id
    assert len(plan.rule_edges) == 7
    assert len(plan.rules) == 7
    assert len(set(plan.dimensions)) == 8
    covered = {e.attribute for e in plan.rule_edges}
    assert covered == {stored.attribute_node(a.name) for a in stored.attributes}

    incoming = radiation_input_context()
    assert [a.name for a in incoming.attributes] == [
        "dose_rate", "location", "battery_level", "rain_level", "timestamp",
    ]
    assert incoming.context_id != stored.context_id


def test_radiation_scenario_graph():
    sc = build_radiation_scenario()
    # the stored context and its plan are inside the graph
    assert extract_plan(sc.graph, sc.stored_context.context_id) == sc.stored_plan
    assert triples_to_context(sc.graph, sc.stored_context.context_id) == sc.stored_context
    # the incoming context is not
    assert sc.input_context.context_id not in sc.graph.vocab.entity_index
    # background contexts avoid the radiation domain
    for t in sc.graph:
        if t.relation == "hasDomain" and t.source != sc.stored_context.context_id:
            assert t.target != "radiation monitoring"
