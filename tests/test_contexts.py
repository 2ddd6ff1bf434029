import json

import pytest

from qakge.contexts import (
    AssessmentPlan,
    Attribute,
    AttributeType,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    attribute_base_name,
    attribute_name,
    check_integer,
    check_number,
    context_from_dict,
    context_to_dict,
    context_to_triples,
    extract_plan,
    from_json_object,
    load_json,
    plan_from_dict,
    plan_to_dict,
    plan_to_triples,
    save_json,
    size_bucket_for_rows,
    to_json_object,
    triples_to_context,
)
from qakge.cli import RunConfig
from qakge.errors import InputError, MalformedContextError
from qakge.node2vec import BaselineConfig
from qakge.planner import PlannerConfig
from qakge.synth import GeneratorConfig
from qakge.training import Hyperparams
from qakge.triples import TripleGraph, WeightedTriple


def minimal_context() -> ContextDescriptor:
    return ContextDescriptor(
        context_id="ctx_min",
        data_type="structured",
        attributes=(Attribute("a1", AttributeType.NUMERIC), Attribute("a2", AttributeType.TEXT)),
    )


def full_context() -> ContextDescriptor:
    return ContextDescriptor(
        context_id="ctx_full",
        data_type="semi-structured",
        attributes=(Attribute("ts", AttributeType.DATE),),
        data_source="api stream",
        size_bucket="large",
        analysis_scope="exploratory",
        domain="iot",
        content_type="environment",
        file_format="json",
        org_standards=("iso_25012",),
        org_policies=("retention_90d", "gdpr"),
        security_level="internal",
        est_resources="2 gpu hours",
        est_time="1 day",
    )


def test_size_buckets():
    assert size_bucket_for_rows(0) == "tiny"
    assert size_bucket_for_rows(999) == "tiny"
    assert size_bucket_for_rows(1_000) == "small"
    assert size_bucket_for_rows(99_999) == "small"
    assert size_bucket_for_rows(100_000) == "medium"
    assert size_bucket_for_rows(10_000_000) == "large"
    assert size_bucket_for_rows(10**9) == "xlarge"


def test_descriptor_validation():
    with pytest.raises(InputError):
        ContextDescriptor(context_id="", data_type="structured",
                          attributes=(Attribute("a", AttributeType.TEXT),))
    with pytest.raises(InputError):
        ContextDescriptor(context_id="c", data_type="tabular",
                          attributes=(Attribute("a", AttributeType.TEXT),))
    with pytest.raises(InputError):  # structured data needs attributes
        ContextDescriptor(context_id="c", data_type="structured", attributes=())
    with pytest.raises(InputError):  # duplicate attribute names
        ContextDescriptor(context_id="c", data_type="structured",
                          attributes=(Attribute("a", AttributeType.TEXT),
                                      Attribute("a", AttributeType.DATE)))
    with pytest.raises(InputError):  # bad type string
        Attribute("a", "integer")
    assert Attribute("a", "numeric").type is AttributeType.NUMERIC


def test_one_attribute_context_with_four_scalars_emits_eight_triples():
    ctx = ContextDescriptor(
        context_id="c1",
        data_type="structured",
        attributes=(Attribute("a", AttributeType.NUMERIC),),
        domain="d",
        data_source="s",
        size_bucket="small",
        file_format="csv",
    )
    keys = [t.key for t in context_to_triples(ctx)]
    assert len(keys) == 8
    assert ("c1", "hasSchema", "c1_schema") in keys
    assert ("c1_schema", "hasAttribute", "c1_attr_a") in keys
    assert ("c1_attr_a", "hasType", "numeric") in keys
    assert ("c1", "hasDataType", "structured") in keys
    assert ("c1", "hasDomain", "d") in keys
    assert ("c1", "hasDataSource", "s") in keys
    assert ("c1", "hasSizeBucket", "small") in keys
    assert ("c1", "hasFileFormat", "csv") in keys


def test_minimal_context_triples_exact():
    ctx = minimal_context()
    keys = [t.key for t in context_to_triples(ctx)]
    # schema edge, attribute pairs in declared order, then the one set field
    assert keys == [
        ("ctx_min", "hasSchema", "ctx_min_schema"),
        ("ctx_min_schema", "hasAttribute", "ctx_min_attr_a1"),
        ("ctx_min_attr_a1", "hasType", "numeric"),
        ("ctx_min_schema", "hasAttribute", "ctx_min_attr_a2"),
        ("ctx_min_attr_a2", "hasType", "text"),
        ("ctx_min", "hasDataType", "structured"),
    ]
    assert len(keys) == 6
    assert all(t.weight == 1.0 for t in context_to_triples(ctx))


def test_full_context_round_trip_through_triples():
    ctx = full_context()
    graph = TripleGraph.from_triples(context_to_triples(ctx))
    back = triples_to_context(graph, "ctx_full")
    assert back == ctx


def test_minimal_round_trip_preserves_absent_fields():
    ctx = minimal_context()
    graph = TripleGraph.from_triples(context_to_triples(ctx))
    back = triples_to_context(graph, "ctx_min")
    assert back == ctx
    assert back.analysis_scope is None
    assert back.org_standards is None


def test_triples_to_context_error_paths():
    ctx = minimal_context()
    triples = context_to_triples(ctx)
    with pytest.raises(InputError):
        triples_to_context(TripleGraph.from_triples(triples), "nope")

    no_schema = [t for t in triples if t.relation != "hasSchema"]
    with pytest.raises(MalformedContextError, match="hasSchema"):
        triples_to_context(TripleGraph.from_triples(no_schema), "ctx_min")

    two_schemas = triples + [WeightedTriple("ctx_min", "hasSchema", "other_schema", 1.0)]
    with pytest.raises(MalformedContextError, match="2 schema nodes"):
        triples_to_context(TripleGraph.from_triples(two_schemas), "ctx_min")

    no_type = [t for t in triples if t.key != ("ctx_min_attr_a1", "hasType", "numeric")]
    with pytest.raises(MalformedContextError, match="type edges"):
        triples_to_context(TripleGraph.from_triples(no_type), "ctx_min")

    no_dtype = [t for t in triples if t.relation != "hasDataType"]
    with pytest.raises(MalformedContextError):
        triples_to_context(TripleGraph.from_triples(no_dtype), "ctx_min")

    double = triples + [WeightedTriple("ctx_min", "hasDataType", "unstructured", 1.0)]
    with pytest.raises(MalformedContextError):
        triples_to_context(TripleGraph.from_triples(double), "ctx_min")


def test_attribute_base_name():
    assert attribute_base_name("ctx_full_attr_ts") == "ts"
    assert attribute_base_name("c_attr_x_attr_y") == "x_attr_y"  # first marker wins
    assert attribute_base_name("no_marker") == "no_marker"
    # a context reads its own nodes by its whole prefix, even when its id
    # holds the marker, and another context's nodes by their base name
    assert attribute_name("sensor_attr_log_attr_ts", "sensor_attr_log") == "ts"
    assert attribute_name("c_attr_x_attr_y", "c") == "x_attr_y"
    assert attribute_name("donor_attr_ts", "sensor_attr_log") == "ts"


def test_plan_validation():
    with pytest.raises(InputError):  # duplicate rule pair
        AssessmentPlan("c", (RuleEdge("a", "null_count", 0.5),
                             RuleEdge("a", "null_count", 0.7)), ())
    with pytest.raises(InputError):  # dimension edge for an absent rule
        AssessmentPlan("c", (RuleEdge("a", "null_count", 0.5),),
                       (DimensionEdge("range_check", "accuracy", 0.4),))
    plan = AssessmentPlan(
        "c",
        (RuleEdge("a", "null_count", 0.5), RuleEdge("b", "range_check", 0.6),
         RuleEdge("b", "null_count", 0.2)),
        (DimensionEdge("null_count", "completeness", 0.9),
         DimensionEdge("range_check", "accuracy", 0.8)),
    )
    assert plan.rules == ("null_count", "range_check")  # first appearance order
    assert plan.dimensions == ("completeness", "accuracy")


def test_extract_plan_follows_graph_order():
    ctx = minimal_context()
    plan = AssessmentPlan(
        "ctx_min",
        (RuleEdge("ctx_min_attr_a1", "null_count", 0.9),
         RuleEdge("ctx_min_attr_a2", "format_validity", 0.4),
         RuleEdge("ctx_min_attr_a1", "range_check", 0.6)),
        (DimensionEdge("null_count", "completeness", 1.0),
         DimensionEdge("format_validity", "consistency", 0.5),
         DimensionEdge("range_check", "accuracy", 0.7)),
    )
    graph = TripleGraph.from_triples(context_to_triples(ctx) + plan_to_triples(plan))
    back = extract_plan(graph, "ctx_min")
    assert back == plan

    # an unrelated context's edges stay out
    other = ContextDescriptor(context_id="ctx_other", data_type="structured",
                              attributes=(Attribute("a1", AttributeType.TEXT),))
    other_plan = AssessmentPlan(
        "ctx_other",
        (RuleEdge("ctx_other_attr_a1", "outliers_detection", 0.8),),
        (DimensionEdge("outliers_detection", "accuracy", 0.8),),
    )
    merged = graph.extended(context_to_triples(other) + plan_to_triples(other_plan))
    assert extract_plan(merged, "ctx_min").rules == back.rules


def test_context_json_round_trip(tmp_path):
    for ctx in (minimal_context(), full_context()):
        doc = context_to_dict(ctx)
        assert list(doc) == [
            "context_id", "data_type", "attributes", "data_source", "size_bucket",
            "analysis_scope", "domain", "content_type", "file_format",
            "org_standards", "org_policies", "security_level", "est_resources",
            "est_time",
        ]
        assert context_from_dict(doc) == ctx
        path = tmp_path / f"{ctx.context_id}.json"
        save_json(doc, path)
        assert context_from_dict(load_json(path)) == ctx


def test_context_from_dict_rejects_unknown_keys():
    doc = context_to_dict(minimal_context())
    doc["surprise"] = 1
    with pytest.raises(InputError, match="surprise"):
        context_from_dict(doc)


def test_context_from_dict_never_splits_a_string_into_a_list():
    doc = context_to_dict(full_context())
    doc["org_standards"] = "ISO 8000"
    with pytest.raises(InputError, match="org_standards must be a list of strings"):
        context_from_dict(doc)


def test_plan_json_round_trip(tmp_path):
    plan = AssessmentPlan(
        "c",
        (RuleEdge("c_attr_a", "null_count", 0.25),),
        (DimensionEdge("null_count", "completeness", 0.75),),
    )
    raw = {("c_attr_a", "null_count"): -1.25, ("null_count", "completeness"): 2.5}
    doc = plan_to_dict(plan, raw, {"method": "test"})
    back = plan_from_dict(doc)
    assert back == plan
    assert doc["rule_edges"][0]["raw_score"] == -1.25
    path = tmp_path / "plan.json"
    save_json(doc, path)
    assert plan_from_dict(load_json(path)) == plan


def test_every_written_document_reads_back_what_was_written():
    configs = (
        Hyperparams(k=12, eta=3, learning_rate=1e-2, focuse=False, beta_decay_epochs=7, seed=9),
        GeneratorConfig(n_contexts=3, seed=0, attrs_per_context=(2, 5), domain_pool=("iot",)),
        BaselineConfig(p=0.5, walks_per_node=2, d=16, threshold=0.0),
        PlannerConfig(tau=0.25, top_m=1),
        RunConfig(hyperparams=Hyperparams(epochs=4), generator=GeneratorConfig(seed=2),
                  baseline=BaselineConfig(window=2), planner=PlannerConfig(top_m=2)),
    )
    for config in configs:
        doc = json.loads(json.dumps(to_json_object(config)))
        assert from_json_object(type(config), doc, "config") == config
    for ctx in (minimal_context(), full_context()):
        assert context_from_dict(json.loads(json.dumps(context_to_dict(ctx)))) == ctx
    plan = AssessmentPlan(
        "ctx_min",
        (RuleEdge("ctx_min_attr_a1", "null_count", 0.25),
         RuleEdge("ctx_min_attr_a2", "null_count", 1.0)),
        (DimensionEdge("null_count", "completeness", 0.75),),
    )
    raw = {("ctx_min_attr_a1", "null_count"): 0.5, ("null_count", "completeness"): -2.0}
    for doc in (plan_to_dict(plan), plan_to_dict(plan, raw, {"method": "test"})):
        assert plan_from_dict(json.loads(json.dumps(doc))) == plan


def test_load_json_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "excel.json"
    p.write_bytes(b'\xef\xbb\xbf{"context_id": "c"}')
    assert load_json(p) == {"context_id": "c"}


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"a": 1,,}')
    with pytest.raises(InputError, match=r"bad\.json"):
        load_json(p)
    with pytest.raises(InputError):
        load_json(tmp_path / "absent.json")


def test_load_json_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin.json"
    p.write_bytes(b'{"domain": "caf\xe9"}')
    with pytest.raises(InputError, match=r"latin\.json: not UTF-8"):
        load_json(p)


@pytest.mark.parametrize("call, message", [
    (lambda: check_integer("k", True, 1), "k must be an integer, got True"),
    (lambda: check_integer("k", 2.0, 1), "k must be an integer, got 2.0"),
    (lambda: check_integer("k", 0, 1), "k must be >= 1, got 0"),
    (lambda: check_number("w", "1", 0), "w must be a number, got '1'"),
    (lambda: check_number("w", False, 0), "w must be a number, got False"),
    (lambda: check_number("w", float("nan"), 0), "w must be finite, got nan"),
    (lambda: check_number("w", float("inf"), 0), "w must be finite, got inf"),
    (lambda: check_number("w", -0.5, 0), "w must be >= 0, got -0.5"),
    (lambda: check_number("w", 0.0, 0, above=True), "w must be > 0, got 0.0"),
    (lambda: check_number("w", 1.5, 0, 1), "w must lie in [0, 1], got 1.5"),
    (lambda: check_number("w", 0, 0, 1, above=True), "w must lie in (0, 1], got 0"),
])
def test_checkers_name_the_field(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_checkers_accept_values_in_range():
    check_integer("k", 1, 1)
    check_number("w", 0, 0, 1)
    check_number("w", 1, 0, 1, above=True)
    check_number("w", 1e300, 0, above=True)
