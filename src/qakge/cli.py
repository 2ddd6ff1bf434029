"""Command-line front end: one binary, eight subcommands.

Every command is a pure function of its input files, flags and seed; input
files are never mutated. Exit codes: 0 success, 1 bad input (flags, files,
schemas), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import logging
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .checkpoint import ensure_same_vocab, load_checkpoint, save_checkpoint
from .contexts import (
    context_from_dict,
    context_to_dict,
    context_to_triples,
    from_json_object,
    load_json,
    plan_from_dict,
    plan_to_dict,
    save_json,
    to_json_object,
)
from .errors import InputError, QakgeError
from .evaluation import PROTOCOLS, evaluate
from .gridsearch import grid_search
from .node2vec import BaselineConfig, baseline_plan, embed_graph
from .planner import compare_plans, comparison_report, generate_plan
from .profiling import profile_dataset
from .synth import GeneratorConfig, generate_synthetic_graph
from .training import Hyperparams, train
from .triples import load_triples_csv, save_triples_csv, split_train_test

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Parser that reports flag problems as input errors instead of exiting."""

    def error(self, message: str):
        raise InputError(message)


@dataclass(frozen=True, slots=True)
class PlannerConfig:
    """The ``planner`` section: calibrated-score cutoff and rules per attribute,
    checked by :func:`generate_plan` before it trains."""

    tau: float = 0.5
    top_m: int = 3


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Structured config file contents; every section optional."""

    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)


def load_run_config(path: str | None) -> RunConfig:
    """Parse and fully validate a JSON config file; None gives all defaults."""
    if path is None:
        return RunConfig()
    return from_json_object(RunConfig, load_json(path), "config")


def _with_flags(section, **flags):
    """``section`` with each flag that was given in place of its config
    value: a flag left out is None, so a given one, ``--seed 0`` included,
    always wins."""
    return replace(section, **{name: value for name, value in flags.items() if value is not None})


def _default_context_id(data_path: str) -> str:
    stem = re.sub(r"[^A-Za-z0-9_]+", "_", Path(data_path).stem).strip("_").lower()
    return stem or "dataset"


def cmd_synth(args) -> int:
    cfg = _with_flags(load_run_config(args.config).generator,
                      n_contexts=args.contexts, seed=args.seed)
    graph, plans = generate_synthetic_graph(cfg)
    save_triples_csv(graph, args.out)
    if args.ground_truth_out:
        save_json([plan_to_dict(p) for p in plans], args.ground_truth_out)
    print(f"wrote {len(graph)} triples ({cfg.n_contexts} contexts, seed {cfg.seed}) to {args.out}")
    return 0


def cmd_profile(args) -> int:
    overlay = load_json(args.overlay) if args.overlay else {}
    if not isinstance(overlay, dict):
        raise InputError("overlay must be a JSON object")
    if args.context_id:
        overlay = {**overlay, "context_id": args.context_id}
    elif "context_id" not in overlay:
        overlay = {**overlay, "context_id": _default_context_id(args.data)}
    ctx = profile_dataset(args.data, overlay, delimiter=args.delimiter)
    save_json(context_to_dict(ctx), args.out)
    print(f"profiled {args.data}: {len(ctx.attributes)} attributes -> {args.out}")
    return 0


def cmd_train(args) -> int:
    hp = _with_flags(load_run_config(args.config).hyperparams, seed=args.seed, epochs=args.epochs)
    graph = load_triples_csv(args.graph, percent=args.percent)
    if args.test_fraction != 0:
        train_graph, test_graph = split_train_test(graph, args.test_fraction, hp.seed)
    else:
        train_graph, test_graph = graph, None
    model, report = train(train_graph, hp)
    save_checkpoint(model, args.out)
    if args.report_out:
        doc = to_json_object(report)
        doc["hyperparams"] = to_json_object(hp)
        doc["n_train"] = len(train_graph)
        doc["n_test"] = len(test_graph) if test_graph is not None else 0
        save_json(doc, args.report_out)
    print(
        f"trained {hp.epochs} epochs on {len(train_graph)} triples "
        f"({report.wall_time:.1f}s); checkpoint -> {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    hp = _with_flags(load_run_config(args.config).hyperparams, seed=args.seed)
    model = load_checkpoint(args.model)
    graph = load_triples_csv(args.graph, percent=args.percent)
    ensure_same_vocab(model.vocab, graph.vocab)
    if args.test_fraction != 0:
        # same seed and fraction as training reproduce the same holdout
        _, test_graph = split_train_test(graph, args.test_fraction, hp.seed)
    else:
        test_graph = graph
    metrics = evaluate(model, test_graph, graph, protocol=args.protocol, hp=hp)
    if args.json_out:
        # the validation loss depends on eta, margin and reg_lambda
        doc = metrics.to_dict()
        doc["hyperparams"] = to_json_object(hp)
        save_json(doc, args.json_out)
    hits = " ".join(f"hits@{n}={v:.4f}" for n, v in sorted(metrics.hits.items()))
    print(
        f"{metrics.protocol} over {metrics.n_test} triples: "
        f"mrr={metrics.mrr:.4f} mr={metrics.mr:.1f} {hits}"
    )
    return 0


def cmd_plan(args) -> int:
    cfg = load_run_config(args.config)
    hp = _with_flags(cfg.hyperparams, seed=args.seed, epochs=args.epochs)
    planner = _with_flags(cfg.planner, tau=args.tau, top_m=args.top_m)
    graph = load_triples_csv(args.graph, percent=args.percent)
    ctx = context_from_dict(load_json(args.context))
    warm = load_checkpoint(args.warm_start) if args.warm_start else None
    plan, prov = generate_plan(graph, ctx, hp, planner.tau, planner.top_m, warm_start=warm)
    meta = {
        "method": "link_prediction",
        "hyperparams": to_json_object(hp),
        "tau": planner.tau,
        "top_m": planner.top_m,
        "seconds": prov.seconds,
        "final_epoch_loss": prov.train_report.losses[-1],
    }
    save_json(plan_to_dict(plan, prov.raw_scores, meta), args.out)
    print(
        f"plan for {ctx.context_id}: {len(plan.rule_edges)} rule edges over "
        f"{len(plan.rules)} rules, {len(plan.dimension_edges)} dimension edges "
        f"-> {args.out}"
    )
    return 0


def cmd_baseline(args) -> int:
    cfg = _with_flags(load_run_config(args.config).baseline, threshold=args.threshold)
    graph = load_triples_csv(args.graph, percent=args.percent)
    ctx = context_from_dict(load_json(args.context))
    if ctx.context_id in graph.vocab.entity_index:
        raise InputError(f"context id collision: {ctx.context_id!r} already in graph")
    merged = graph.extended(context_to_triples(ctx))
    embeddings = embed_graph(merged, cfg, seed=args.seed)
    plan = baseline_plan(merged, embeddings, ctx, threshold=cfg.threshold)
    meta = {
        "method": "walk_retrieval",
        "threshold": cfg.threshold,
        "seed": args.seed,
        "config": to_json_object(cfg),
    }
    save_json(plan_to_dict(plan, None, meta), args.out)
    print(
        f"baseline plan for {ctx.context_id}: {len(plan.rule_edges)} rule edges, "
        f"{len(plan.dimension_edges)} dimension edges -> {args.out}"
    )
    return 0


def cmd_compare(args) -> int:
    plan_a = plan_from_dict(load_json(args.plan_a))
    plan_b = plan_from_dict(load_json(args.plan_b))
    ctx = context_from_dict(load_json(args.context))
    cmp = compare_plans(plan_a, plan_b, ctx)
    stems = Path(args.plan_a).stem, Path(args.plan_b).stem
    labels = stems if stems[0] != stems[1] else (args.plan_a, args.plan_b)
    print(comparison_report(cmp, *labels))
    if args.json_out:
        save_json(_comparison_dict(cmp, *labels), args.json_out)
    return 0


def _comparison_dict(cmp, label_a: str, label_b: str) -> dict:
    def side(label, cov):
        return {
            "label": label,
            "covered": list(cov.covered),
            "uncovered": list(cov.uncovered),
            "total": cov.total,
            "fraction": cov.fraction,
            "n_rules": cov.n_rules,
            "n_dimensions": cov.n_dimensions,
        }

    return {
        "context_id": cmp.context_id,
        "plan_a": side(label_a, cmp.coverage_a),
        "plan_b": side(label_b, cmp.coverage_b),
        "shared_rules": list(cmp.shared_rules),
        "only_a": list(cmp.only_a),
        "only_b": list(cmp.only_b),
    }


def cmd_gridsearch(args) -> int:
    base = _with_flags(load_run_config(args.config).hyperparams, seed=args.seed)
    graph = load_triples_csv(args.graph, percent=args.percent)
    train_graph, valid_graph = split_train_test(graph, args.test_fraction, base.seed)
    grid = load_json(args.grid)
    if not isinstance(grid, dict):
        raise InputError("grid file must be a JSON object mapping names to value lists")
    for name, values in grid.items():
        if not isinstance(values, list):
            raise InputError(f"grid entry {name!r} must be a list")
    best, leaderboard = grid_search(train_graph, valid_graph, grid, args.budget_epochs, base)
    save_json({"best": to_json_object(best), "leaderboard": leaderboard}, args.leaderboard_out)
    top = leaderboard[0]
    print(f"best of {len(leaderboard)}: {top['params']} (val_mrr {top['val_mrr']:.6f})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qakge", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_graph(p):
        p.add_argument("--graph", required=True, help="weighted triples CSV")
        p.add_argument("--percent", action="store_true",
                       help="interpret CSV weights as percentages (divide by 100)")

    p = sub.add_parser("synth", help="generate a synthetic metadata graph")
    p.add_argument("--contexts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output triples CSV")
    p.add_argument("--ground-truth-out", default=None, help="plans JSON")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="profile a delimited data file into a context")
    p.add_argument("--data", required=True)
    p.add_argument("--overlay", default=None, help="JSON with facts the data cannot reveal")
    p.add_argument("--out", required=True, help="output context JSON")
    p.add_argument("--context-id", default=None)
    p.add_argument("--delimiter", default=",")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="train the link predictor, save a checkpoint")
    common_graph(p)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction before training (0 = use all)")
    p.add_argument("--out", required=True, help="output checkpoint file")
    p.add_argument("--report-out", default=None, help="training report JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank held-out triples, report MRR/MR/Hits")
    p.add_argument("--model", required=True, help="checkpoint file")
    common_graph(p)
    p.add_argument("--test-fraction", type=float, default=0.2,
                   help="same fraction and seed as training reproduce its holdout")
    p.add_argument("--seed", type=int, default=None,
                   help="split seed (default: the config's seed, as in train)")
    p.add_argument("--protocol", choices=PROTOCOLS, default="filtered")
    p.add_argument("--json-out", default=None)
    p.add_argument("--config", default=None,
                   help="config the model was trained with; its hyperparameters score the loss")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plan", help="predict an assessment plan for a new context")
    common_graph(p)
    p.add_argument("--context", required=True, help="context descriptor JSON")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output plan JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--top-m", type=int, default=None)
    p.add_argument("--warm-start", default=None,
                   help="fold the context into this checkpoint; its rows stay fixed")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("baseline", help="retrieve the nearest stored context's plan")
    common_graph(p)
    p.add_argument("--context", required=True, help="context descriptor JSON")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="output plan JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="coverage comparison of two plans")
    p.add_argument("--plan-a", required=True)
    p.add_argument("--plan-b", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gridsearch", help="sweep hyperparameters, write a leaderboard")
    common_graph(p)
    p.add_argument("--grid", required=True, help="JSON object: field -> candidate list")
    p.add_argument("--budget-epochs", type=int, required=True)
    p.add_argument("--leaderboard-out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.set_defaults(func=cmd_gridsearch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QakgeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception:
        logger.exception("unexpected failure")
        return 2


if __name__ == "__main__":
    sys.exit(main())
