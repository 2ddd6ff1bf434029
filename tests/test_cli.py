"""End-to-end command-line behavior through main(argv), in process."""
import json

import pytest

from qakge.cli import load_run_config, main
from qakge.contexts import (
    AssessmentPlan,
    Attribute,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    context_from_dict,
    context_to_dict,
    plan_from_dict,
    plan_to_dict,
    to_json_object,
)
from qakge.errors import InputError
from qakge.synth import radiation_input_context
from qakge.training import Hyperparams
from qakge.triples import load_triples_csv


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def world(tmp_path, capsys):
    """Small synthetic graph on disk plus a query context JSON."""
    graph_path = tmp_path / "graph.csv"
    code, out, _ = run(capsys, "synth", "--contexts", "2", "--seed", "13",
                       "--out", str(graph_path))
    assert code == 0 and "wrote" in out
    ctx_path = write_json(tmp_path / "query.json", context_to_dict(radiation_input_context()))
    return tmp_path, str(graph_path), ctx_path


def test_bad_flags_and_missing_files_exit_one(capsys, tmp_path):
    assert run(capsys, "train", "--nonsense")[0] == 1
    assert run(capsys, "definitely-not-a-command")[0] == 1
    code, _, err = run(capsys, "train", "--graph", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert "error:" in err
    # argparse choice violations surface the same way
    assert run(capsys, "eval", "--model", "x", "--graph", "y",
               "--protocol", "loose")[0] == 1


def test_synth_is_deterministic_per_seed(capsys, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    truth = tmp_path / "truth.json"
    assert run(capsys, "synth", "--contexts", "2", "--seed", "5",
               "--out", str(a), "--ground-truth-out", str(truth))[0] == 0
    assert run(capsys, "synth", "--contexts", "2", "--seed", "5", "--out", str(b))[0] == 0
    assert run(capsys, "synth", "--contexts", "2", "--seed", "6", "--out", str(c))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    plans = json.loads(truth.read_text())
    assert len(plans) == 2
    assert all(plan_from_dict(p).rule_edges for p in plans)


def test_train_eval_round_trip(capsys, world):
    tmp_path, graph_path, _ = world
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "train", "--graph", graph_path, "--epochs", "2",
                       "--test-fraction", "0.2", "--out", str(ckpt),
                       "--report-out", str(report))
    assert code == 0
    assert "trained 2 epochs" in out
    doc = json.loads(report.read_text())
    assert doc["hyperparams"]["epochs"] == 2
    assert len(doc["losses"]) == 2
    assert doc["n_train"] > 0 and doc["n_test"] > 0

    metrics_path = tmp_path / "metrics.json"
    code, out, _ = run(capsys, "eval", "--model", str(ckpt), "--graph", graph_path,
                       "--test-fraction", "0.2", "--protocol", "filtered",
                       "--json-out", str(metrics_path))
    assert code == 0
    assert "mrr=" in out and "hits@10=" in out
    metrics = json.loads(metrics_path.read_text())
    assert metrics["protocol"] == "filtered"
    assert metrics["n_test"] == doc["n_test"]
    assert set(metrics["hits"]) == {"1", "3", "10"}


def test_eval_json_has_per_relation_mrr_and_config_sets_the_loss(capsys, world):
    tmp_path, graph_path, _ = world
    ckpt = tmp_path / "model.ckpt"
    assert run(capsys, "train", "--graph", graph_path, "--epochs", "2",
               "--test-fraction", "0.2", "--out", str(ckpt))[0] == 0
    cfg_path = write_json(tmp_path / "cfg.json", {"hyperparams": {"reg_lambda": 1.5}})
    docs = []
    for extra in ((), ("--config", cfg_path)):
        metrics_path = tmp_path / "metrics.json"
        code, _, _ = run(capsys, "eval", "--model", str(ckpt), "--graph", graph_path,
                         "--test-fraction", "0.2", "--json-out", str(metrics_path), *extra)
        assert code == 0
        docs.append(json.loads(metrics_path.read_text()))
    default, configured = docs
    graph = load_triples_csv(graph_path)
    assert set(default["per_relation_mrr"]) <= set(graph.vocab.relations)
    assert default["per_relation_mrr"]
    assert all(0.0 < v <= 1.0 for v in default["per_relation_mrr"].values())
    assert configured["mrr"] == default["mrr"]
    assert configured["loss"] > default["loss"]  # the L_p penalty grows with reg_lambda
    # the file records the settings its loss was computed with
    assert default["hyperparams"] == to_json_object(Hyperparams())
    assert configured["hyperparams"] == to_json_object(Hyperparams(reg_lambda=1.5))


def test_eval_takes_the_split_seed_from_the_config(capsys, world):
    tmp_path, graph_path, _ = world
    cfg_path = write_json(tmp_path / "cfg.json", {"hyperparams": {"seed": 7}})
    ckpt = tmp_path / "model.ckpt"
    assert run(capsys, "train", "--graph", graph_path, "--config", cfg_path, "--epochs", "2",
               "--test-fraction", "0.2", "--out", str(ckpt))[0] == 0
    docs = []
    for name, extra in (("config.json", ()), ("flag.json", ("--seed", "7")),
                        ("zero.json", ("--seed", "0"))):
        metrics_path = tmp_path / name
        code, _, _ = run(capsys, "eval", "--model", str(ckpt), "--graph", graph_path,
                         "--config", cfg_path, "--test-fraction", "0.2",
                         "--json-out", str(metrics_path), *extra)
        assert code == 0
        docs.append(metrics_path.read_text())
    from_config, from_flag, seed_zero = docs
    assert from_config == from_flag
    assert from_config != seed_zero  # the seed picks the holdout


def test_eval_rejects_foreign_checkpoint(capsys, world, tmp_path):
    _, graph_path, _ = world
    other_graph = tmp_path / "other.csv"
    assert run(capsys, "synth", "--contexts", "2", "--seed", "99",
               "--out", str(other_graph))[0] == 0
    ckpt = tmp_path / "foreign.ckpt"
    assert run(capsys, "train", "--graph", str(other_graph), "--epochs", "1",
               "--out", str(ckpt))[0] == 0
    code, _, err = run(capsys, "eval", "--model", str(ckpt), "--graph", graph_path)
    assert code == 1
    assert "error:" in err


def test_plan_command_writes_loadable_plan(capsys, world):
    tmp_path, graph_path, ctx_path = world
    out = tmp_path / "plan.json"
    code, text, _ = run(capsys, "plan", "--graph", graph_path, "--context", ctx_path,
                        "--epochs", "2", "--seed", "1", "--out", str(out))
    assert code == 0
    assert "plan for radiation_field_survey" in text
    doc = json.loads(out.read_text())
    plan = plan_from_dict(doc)
    assert plan.context_id == "radiation_field_survey"
    query = radiation_input_context()
    attr_nodes = {query.attribute_node(a.name) for a in query.attributes}
    assert {e.attribute for e in plan.rule_edges} == attr_nodes
    assert doc["model_meta"]["method"] == "link_prediction"
    assert doc["model_meta"]["hyperparams"]["epochs"] == 2
    assert doc["model_meta"]["tau"] == 0.5 and doc["model_meta"]["top_m"] == 3


def test_baseline_command_and_no_match_exit(capsys, world):
    tmp_path, graph_path, ctx_path = world
    cfg_path = write_json(tmp_path / "base_cfg.json", {
        "baseline": {"walks_per_node": 3, "walk_length": 15, "d": 16, "epochs": 2},
    })
    out = tmp_path / "base.json"
    code, text, _ = run(capsys, "baseline", "--graph", graph_path, "--context", ctx_path,
                        "--config", str(cfg_path),
                        "--threshold", "0.0", "--seed", "3", "--out", str(out))
    assert code == 0
    assert "baseline plan for radiation_field_survey" in text
    plan = plan_from_dict(json.loads(out.read_text()))
    assert plan.context_id == "radiation_field_survey"
    assert plan.rule_edges  # copied verbatim from the matched donor

    code, _, err = run(capsys, "baseline", "--graph", graph_path, "--context", ctx_path,
                       "--config", str(cfg_path),
                       "--threshold", "1.0", "--seed", "3",
                       "--out", str(tmp_path / "none.json"))
    assert code == 2
    assert "runtime failure" in err


def test_compare_command_prints_and_saves(capsys, tmp_path):
    ctx = ContextDescriptor(
        context_id="survey",
        data_type="structured",
        attributes=(Attribute("x", "numeric"), Attribute("y", "text")),
    )
    plan_a = AssessmentPlan(
        "survey",
        (RuleEdge("survey_attr_x", "range_check", 0.9),
         RuleEdge("survey_attr_y", "null_count", 0.7)),
        (DimensionEdge("range_check", "accuracy", 0.8),),
    )
    plan_b = AssessmentPlan(
        "survey",
        (RuleEdge("donor_attr_x", "range_check", 0.5),),
        (DimensionEdge("range_check", "accuracy", 0.5),),
    )
    a_path = write_json(tmp_path / "kge_plan.json", plan_to_dict(plan_a))
    b_path = write_json(tmp_path / "walk_plan.json", plan_to_dict(plan_b))
    ctx_path = write_json(tmp_path / "ctx.json", context_to_dict(ctx))
    json_out = tmp_path / "cmp.json"
    code, out, _ = run(capsys, "compare", "--plan-a", a_path, "--plan-b", b_path,
                       "--context", ctx_path, "--json-out", str(json_out))
    assert code == 0
    assert "kge_plan: covers 2/2 attributes" in out
    assert "walk_plan: covers 1/2 attributes" in out
    assert "shared rules: range_check" in out
    doc = json.loads(json_out.read_text())
    assert doc["plan_a"]["label"] == "kge_plan" and doc["plan_a"]["fraction"] == 1.0
    assert doc["plan_b"]["label"] == "walk_plan" and doc["plan_b"]["covered"] == ["x"]

    # two plans whose files share a stem keep both sides apart
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    same_a = write_json(tmp_path / "a" / "plan.json", plan_to_dict(plan_a))
    same_b = write_json(tmp_path / "b" / "plan.json", plan_to_dict(plan_b))
    code, out, _ = run(capsys, "compare", "--plan-a", same_a, "--plan-b", same_b,
                       "--context", ctx_path, "--json-out", str(json_out))
    assert code == 0
    assert f"{same_a}: covers 2/2 attributes" in out
    assert f"{same_b}: covers 1/2 attributes" in out
    doc = json.loads(json_out.read_text())
    assert doc["plan_a"]["fraction"] == 1.0 and doc["plan_b"]["covered"] == ["x"]
    assert doc["plan_a"]["label"] == same_a and doc["plan_b"]["label"] == same_b

    mismatched = write_json(tmp_path / "other.json",
                            plan_to_dict(AssessmentPlan("elsewhere", plan_b.rule_edges,
                                                        plan_b.dimension_edges)))
    assert run(capsys, "compare", "--plan-a", a_path, "--plan-b", mismatched,
               "--context", ctx_path)[0] == 1


def test_malformed_config_value_exits_one(capsys, world):
    tmp_path, graph_path, _ = world
    for value in ("8", 8.5):
        config = write_json(tmp_path / "c.json", {"hyperparams": {"k": value}})
        code, _, err = run(capsys, "train", "--graph", graph_path, "--config", config,
                           "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert "error:" in err


def test_a_config_that_sets_the_penalty_power_is_rejected(tmp_path):
    # the penalty is L4, so a field for its exponent is unknown
    config = write_json(tmp_path / "old.json", {"hyperparams": {"reg_p": 4}})
    with pytest.raises(InputError, match=r"unknown hyperparams fields: \['reg_p'\]"):
        load_run_config(config)


@pytest.mark.parametrize("command, kind, doc, named", [
    ("synth", "config", {"generator": {"n_contexts": "5"}}, "n_contexts"),
    ("synth", "config", {"generator": {"attrs_per_context": [3.5, 4]}}, "attrs_per_context"),
    ("synth", "config", {"generator": {"domain_pool": "iot"}}, "domain_pool"),
    ("synth", "config", {"generator": {"weight_range": [0.1, 1.0]}}, "weight_range"),
    ("baseline", "config", {"baseline": {"p": "1"}}, "p must be a number"),
    ("baseline", "config", {"baseline": {"threshold": "0.5"}}, "threshold must be a number"),
    ("baseline", "config", {"baseline": {"epochs": 1.5}}, "epochs"),
    ("baseline", "config", {"baseline": 5}, "baseline must be a JSON object"),
    ("plan", "config", {"planner": {"tau": "0.5"}}, "tau must be a number"),
    ("plan", "config", {"planner": {"top_m": 2.5}}, "top_m"),
    ("plan", "config", {"hyperparams": {"focuse": "false"}}, "focuse"),
    ("plan", "config", {"hyperparams": {"margin": "1"}}, "margin must be a number"),
    ("plan", "config", {"hyperparams": {"reg_p": 4}}, "reg_p"),
    ("plan", "context", {"domain": 7}, "domain"),
    ("plan", "context", {"org_standards": "ISO 8000"}, "org_standards"),
    # JSON true is a bool, which python counts as the integer 1
    ("plan", "config", {"hyperparams": {"epochs": True}}, "epochs must be an integer"),
    ("plan", "config", {"hyperparams": {"k": True}}, "k must be an integer"),
    ("synth", "config", {"generator": {"n_contexts": True}}, "n_contexts must be an integer"),
    ("plan", "config", {"planner": {"tau": True}}, "tau must be a number"),
    ("baseline", "config", {"baseline": {"d": True}}, "d must be an integer"),
    ("synth", "config", {"generator": {"seed": -1}}, "seed must be >= 0, got -1"),
], ids=["n_contexts-string", "attrs-float", "domain_pool-string", "weight_range-removed",
        "p-string", "threshold-string", "epochs-float", "baseline-number", "tau-string",
        "top_m-float", "focuse-string", "margin-string", "reg_p-removed", "domain-number",
        "org_standards-string", "epochs-true", "k-true", "n_contexts-true", "tau-true", "d-true",
        "seed-negative"])
def test_malformed_document_exits_one(capsys, world, command, kind, doc, named):
    tmp_path, graph_path, ctx_path = world
    if kind == "context":
        ctx = {**context_to_dict(radiation_input_context()), **doc}
        ctx_path, doc = write_json(tmp_path / "ctx.json", ctx), {}
    argv = [command, "--out", str(tmp_path / "out"),
            "--config", write_json(tmp_path / "cfg.json", doc)]
    if command != "synth":
        argv += ["--graph", graph_path, "--context", ctx_path]
    if command == "plan":
        argv += ["--epochs", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err
    assert named in err


@pytest.mark.parametrize("part, key, value, named", [
    ("dimension_edges", "weight", "heavy", "weight"),
    ("dimension_edges", "weight", "0.5", "weight"),
    ("rule_edges", "weight", 7, "weight"),
    ("rule_edges", "weight", float("nan"), "weight"),
    ("rule_edges", "weight", True, "weight"),
    (None, "context_id", 5, "context_id"),
    ("rule_edges", "attribute", "", "non-empty"),
    (None, "surprise", 1, "surprise"),
], ids=["weight-word", "weight-string", "weight-above-one", "weight-nan", "weight-true",
        "context_id-number", "attribute-empty", "unknown-key"])
def test_malformed_plan_weight_exits_one(capsys, tmp_path, part, key, value, named):
    ctx = ContextDescriptor(context_id="survey", data_type="structured",
                            attributes=(Attribute("x", "numeric"),))
    plan = plan_to_dict(AssessmentPlan("survey", (RuleEdge("survey_attr_x", "range_check", 0.9),),
                                       (DimensionEdge("range_check", "accuracy", 0.8),)),
                        model_meta={"method": "test"})
    plan_path = write_json(tmp_path / "plan.json", plan)
    (plan[part][0] if part else plan)[key] = value
    bad_path = write_json(tmp_path / "bad.json", plan)
    ctx_path = write_json(tmp_path / "ctx.json", context_to_dict(ctx))
    code, _, err = run(capsys, "compare", "--plan-a", plan_path, "--plan-b", bad_path,
                       "--context", ctx_path)
    assert code == 1
    assert "error:" in err
    assert named in err


def test_negative_seed_exits_one(capsys, world):
    tmp_path, graph_path, ctx_path = world
    ckpt = tmp_path / "model.ckpt"
    assert run(capsys, "train", "--graph", graph_path, "--epochs", "1", "--out", str(ckpt))[0] == 0
    grid_path = write_json(tmp_path / "grid.json", {"margin": [0.5]})
    out = str(tmp_path / "out")
    for argv in (
        ("train", "--graph", graph_path, "--epochs", "1", "--out", out),
        ("eval", "--model", str(ckpt), "--graph", graph_path),
        ("plan", "--graph", graph_path, "--context", ctx_path, "--epochs", "1", "--out", out),
        ("gridsearch", "--graph", graph_path, "--grid", grid_path, "--budget-epochs", "1",
         "--leaderboard-out", out),
        ("baseline", "--graph", graph_path, "--context", ctx_path, "--out", out),
        ("synth", "--out", out),
    ):
        code, _, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1, argv
        assert "error: seed must be >= 0, got -1" in err, argv


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("fraction", ["-0.5", "nan"])
def test_bad_test_fraction_exits_one(capsys, world, command, fraction):
    tmp_path, graph_path, _ = world
    ckpt = str(tmp_path / "model.ckpt")
    argv = ("train", "--graph", graph_path, "--epochs", "1", "--out", ckpt)
    if command == "eval":
        assert run(capsys, *argv)[0] == 0
        argv = ("eval", "--model", ckpt, "--graph", graph_path)
    code, _, err = run(capsys, *argv, "--test-fraction", fraction)
    assert code == 1
    assert "error: test_fraction must be in (0, 1)" in err


def test_baseline_threshold_flag_is_checked_before_embedding(capsys, world, monkeypatch):
    tmp_path, graph_path, ctx_path = world

    def unreachable(*args, **kwargs):
        raise AssertionError("embed_graph reached with a bad threshold")

    monkeypatch.setattr("qakge.cli.embed_graph", unreachable)
    code, _, err = run(capsys, "baseline", "--graph", graph_path, "--context", ctx_path,
                       "--threshold", "2", "--out", str(tmp_path / "plan.json"))
    assert code == 1
    assert "error: threshold must lie in [0, 1], got 2.0" in err


def test_gridsearch_command_writes_sorted_leaderboard(capsys, world):
    tmp_path, graph_path, _ = world
    grid_path = write_json(tmp_path / "grid.json", {"margin": [0.2, 0.5]})
    board_path = tmp_path / "board.json"
    code, out, _ = run(capsys, "gridsearch", "--graph", graph_path, "--grid", grid_path,
                       "--budget-epochs", "1", "--leaderboard-out", str(board_path))
    assert code == 0
    assert "best of 2" in out
    doc = json.loads(board_path.read_text())
    mrrs = [row["val_mrr"] for row in doc["leaderboard"]]
    assert mrrs == sorted(mrrs, reverse=True)
    assert doc["best"]["epochs"] == 1
    assert doc["best"]["margin"] in (0.2, 0.5)

    bad_grid = write_json(tmp_path / "bad.json", {"margin": 0.5})
    assert run(capsys, "gridsearch", "--graph", graph_path, "--grid", bad_grid,
               "--budget-epochs", "1",
               "--leaderboard-out", str(board_path))[0] == 1


def test_profile_command_defaults_and_overrides(capsys, tmp_path):
    data = tmp_path / "My Sensor-Dump 2024.csv"
    data.write_text("dose,site\n1.5,alpha\n2.5,beta\n", encoding="utf-8")
    out = tmp_path / "ctx.json"
    code, text, _ = run(capsys, "profile", "--data", str(data), "--out", str(out))
    assert code == 0
    assert "2 attributes" in text
    ctx = context_from_dict(json.loads(out.read_text()))
    assert ctx.context_id == "my_sensor_dump_2024"
    assert [(a.name, a.type.value) for a in ctx.attributes] == [
        ("dose", "numeric"), ("site", "text"),
    ]

    overlay = write_json(tmp_path / "overlay.json",
                         {"domain": "radiation monitoring", "data_source": "sensor feeds"})
    code, _, _ = run(capsys, "profile", "--data", str(data), "--overlay", overlay,
                     "--context-id", "survey_ctx", "--out", str(out))
    assert code == 0
    ctx = context_from_dict(json.loads(out.read_text()))
    assert ctx.context_id == "survey_ctx"
    assert ctx.domain == "radiation monitoring"
    assert ctx.data_source == "sensor feeds"


def test_config_file_loses_to_flags(capsys, world):
    tmp_path, graph_path, _ = world
    cfg_path = write_json(tmp_path / "cfg.json",
                          {"hyperparams": {"epochs": 7, "seed": 3, "k": 8}})
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "train", "--graph", graph_path, "--config", cfg_path,
                     "--epochs", "2", "--out", str(tmp_path / "m.ckpt"),
                     "--report-out", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["hyperparams"]["epochs"] == 2  # flag wins
    assert doc["hyperparams"]["seed"] == 3    # config survives where no flag given
    assert doc["hyperparams"]["k"] == 8

    bad_cfg = write_json(tmp_path / "bad.json", {"hyperparams": {"epochs": 7}, "extra": {}})
    assert run(capsys, "train", "--graph", graph_path, "--config", bad_cfg,
               "--out", str(tmp_path / "m2.ckpt"))[0] == 1


def test_synth_flags_override_config(capsys, tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", {"generator": {"n_contexts": 2, "seed": 1}})
    out = tmp_path / "g.csv"
    code, text, _ = run(capsys, "synth", "--config", str(cfg_path), "--contexts", "3",
                        "--out", str(out))
    assert code == 0
    assert "(3 contexts, seed 1)" in text
    graph = load_triples_csv(str(out))
    schemas = {t.source for t in graph.triples if t.relation == "hasSchema"}
    assert len(schemas) == 3
    # a given seed wins even when it is 0, the value a truth test would drop
    code, text, _ = run(capsys, "synth", "--config", str(cfg_path), "--seed", "0",
                        "--out", str(out))
    assert code == 0
    assert "(2 contexts, seed 0)" in text


def test_plan_flags_override_the_planner_section(capsys, world):
    tmp_path, graph_path, ctx_path = world
    cfg_path = write_json(tmp_path / "cfg.json", {"hyperparams": {"epochs": 2, "seed": 4},
                                                  "planner": {"tau": 0.9, "top_m": 5}})
    out = tmp_path / "plan.json"
    base = ("plan", "--graph", graph_path, "--context", ctx_path, "--config", cfg_path,
            "--out", str(out))
    assert run(capsys, *base)[0] == 0
    meta = json.loads(out.read_text())["model_meta"]
    assert (meta["tau"], meta["top_m"], meta["hyperparams"]["seed"]) == (0.9, 5, 4)
    assert run(capsys, *base, "--tau", "0.25", "--top-m", "1", "--seed", "0")[0] == 0
    meta = json.loads(out.read_text())["model_meta"]
    assert (meta["tau"], meta["top_m"], meta["hyperparams"]["seed"]) == (0.25, 1, 0)
    assert meta["hyperparams"]["epochs"] == 2  # config survives where no flag given
