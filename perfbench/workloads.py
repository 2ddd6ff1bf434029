"""The three benchmark workloads.

Each workload has a ``setup(seed, run)`` that builds its inputs and a
``task(state, run)`` that does one unit of the work a user waits on, checks
its outputs, records what it measured into ``run`` and returns whether the
unit completed. Every task of a run does the same work on the same inputs.
The library is
called only through the public ``qakge`` package; the seed reaches it only
through the inputs built here (split seeds and ``Hyperparams.seed``). Each
workload keeps its corpus fixed, so runs with different seeds differ in
their random streams and splits, not in the size of the problem.
"""
from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import qakge
from qakge.contexts import REL_QUALITY_RULE
from qakge.synth import KIND_DIMENSION, KIND_MEASURE, REL_KIND

from benchstats import plan_f1

HERE = Path(__file__).resolve().parent


@dataclass
class Run:
    """What the timed loop of one run collected."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    task_s: list[float] = field(default_factory=list)
    task_ref: list[float] = field(default_factory=list)  # task time in reference units
    timings: dict[str, list[float]] = field(default_factory=dict)
    report: dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit, note)
    outputs: dict[str, str] = field(default_factory=dict)
    clock: Callable[[], float] = perf_counter  # times the workloads' own steps

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed check is a failure, not a crash."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def time(self, name: str, seconds: float) -> None:
        self.timings.setdefault(name, []).append(seconds)

    def settle(self, key: str, outputs: dict) -> None:
        """Record one task's exact outputs (JSON keeps every digit of a float);
        a later task of the same run that repeats the same work must
        reproduce them bit for bit."""
        text = json.dumps(outputs, sort_keys=True)
        if key in self.outputs:
            self.check(text == self.outputs[key], f"drift: repeating {key} gave other outputs")
        else:
            self.outputs[key] = text


# --- corpus41-train -----------------------------------------------------------

class Corpus41Train:
    """Train on the default 41-context corpus, then rank its held-out 20%.

    The acceptance test's desk protocol (lr 1e-4) needs about 150 epochs to
    pass the quality knee, which does not fit the benchmark's time budget. At
    lr 1e-3 held-out MRR climbs from 0.02 at epoch 5 to 0.37 at epoch 10 and
    is on its plateau (0.43-0.48) by epoch 15, so 20 epochs end twice past
    the knee. The other knobs are the desk protocol.
    """

    name = "corpus41-train"
    epochs = 20

    def setup(self, seed: int, run: Run) -> dict:
        graph, _ = qakge.generate_synthetic_graph(qakge.GeneratorConfig())
        train_graph, test_graph = qakge.split_train_test(graph, 0.2, seed=seed)
        hp = qakge.Hyperparams(learning_rate=1e-3, epochs=self.epochs, seed=seed,
                               reg_lambda=1.5, beta_decay_epochs=3200)
        return {"graph": graph, "train": train_graph, "test": test_graph, "hp": hp}

    def task(self, state: dict, run: Run) -> bool:
        hp = state["hp"]
        try:
            model, report = qakge.train(state["train"], hp)
        except qakge.TrainingDiverged as exc:
            run.check(False, f"train: {exc}")
            return False
        t1 = run.clock()
        run.check(len(report.losses) == hp.epochs and all(map(math.isfinite, report.losses)),
                  "train: loss trace incomplete or not finite")
        metrics = qakge.evaluate(model, state["test"], state["graph"], hp=hp)
        t2 = run.clock()
        n_test = len(state["test"])
        finite = all(map(math.isfinite, (metrics.mrr, metrics.mr, metrics.loss, metrics.hits[10])))
        run.check(len(metrics.ranks) == 2 * n_test and finite,
                  f"evaluate: {len(metrics.ranks)} ranks for {n_test} test triples, finite={finite}")
        run.time("eval_s", t2 - t1)
        note = f"filtered, {len(metrics.ranks)} ranks"
        run.report.update(mrr=(metrics.mrr, "", note), hits_at_10=(metrics.hits[10], "", note))
        run.settle("train", {"mrr": metrics.mrr, "hits_at_10": metrics.hits[10], "loss": metrics.loss})
        return True


# --- radiation-compare --------------------------------------------------------

class RadiationCompare:
    """The paper's head-to-head: plan the radiation survey context cold with
    the link predictor, then answer it by walk retrieval, and compare.

    One skip-gram epoch over two walks per node (the defaults are five
    epochs over ten walks) is enough for retrieval to find the stored
    context, and the defaults would take most of a minute.
    """

    name = "radiation-compare"

    def setup(self, seed: int, run: Run) -> dict:
        scenario = qakge.build_radiation_scenario()
        query = scenario.input_context
        return {
            "scenario": scenario,
            "with_query": scenario.graph.extended(qakge.context_to_triples(query)),
            "hp": qakge.Hyperparams(learning_rate=1e-4, epochs=300, seed=seed),
            "walks": qakge.BaselineConfig(epochs=1, walks_per_node=2),
            "seed": seed,
        }

    def task(self, state: dict, run: Run) -> bool:
        scenario = state["scenario"]
        query = scenario.input_context
        t0 = run.clock()
        try:
            plan, _ = qakge.generate_plan(scenario.graph, query, state["hp"])
        except qakge.TrainingDiverged as exc:
            run.check(False, f"generate_plan: {exc}")
            return False
        t1 = run.clock()
        try:
            embeddings = qakge.embed_graph(state["with_query"], state["walks"], seed=state["seed"])
            walk_plan = qakge.baseline_plan(state["with_query"], embeddings, query,
                                            threshold=state["walks"].threshold)
        except qakge.NoMatchError as exc:
            run.check(False, f"baseline_plan: {exc}")
            return False
        t2 = run.clock()
        cmp = qakge.compare_plans(plan, walk_plan, query)
        stored = {a.name for a in scenario.stored_context.attributes}
        n_attrs = len(query.attributes)
        run.check(len(cmp.coverage_a.covered) == n_attrs == cmp.coverage_a.total,
                  f"planner covers {len(cmp.coverage_a.covered)}/{n_attrs} attributes")
        run.check(set(cmp.coverage_b.covered) == stored,
                  f"retrieval covers {sorted(cmp.coverage_b.covered)}, not the stored {sorted(stored)}")
        run.time("plan_s_p50", t1 - t0)
        run.time("baseline_s", t2 - t1)
        run.report.update(planner_covered=(len(cmp.coverage_a.covered), "attrs", ""),
                          retrieval_covered=(len(cmp.coverage_b.covered), "attrs", ""))
        run.settle("compare", {"plan": qakge.plan_to_dict(plan),
                               "retrieved": qakge.plan_to_dict(walk_plan)})
        return True


# --- heldout-plan -------------------------------------------------------------

class HeldoutPlan:
    """Plan contexts a stored model has never seen, warm-started from it.

    The corpus has the radiation background's shape (12 contexts of 3-8
    attributes, generator seed 11). The last ``held_out`` contexts lose
    their description triples and rule edges; a base model trained on the
    rest is round-tripped through a checkpoint in set-up, as a user's stored
    model would be, and every task plans each held-out context from it and
    scores the plans against the generator's ground truth.
    """

    name = "heldout-plan"
    held_out = 4

    def setup(self, seed: int, run: Run) -> dict:
        cfg = qakge.GeneratorConfig(n_contexts=12, seed=11, attrs_per_context=(3, 8))
        graph, plans = qakge.generate_synthetic_graph(cfg)
        truths = plans[-self.held_out:]
        contexts = [qakge.triples_to_context(graph, p.context_id) for p in truths]
        dropped = set()
        for ctx, truth in zip(contexts, truths):
            dropped |= {t.key for t in qakge.context_to_triples(ctx)}
            dropped |= {(e.attribute, REL_QUALITY_RULE, e.rule) for e in truth.rule_edges}
        base = qakge.TripleGraph.from_triples(t for t in graph if t.key not in dropped)
        model, _ = qakge.train(base, qakge.Hyperparams(learning_rate=1e-3, epochs=100, seed=seed))
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
            path = Path(work) / "base.qkge"
            qakge.save_checkpoint(model, path)
            loaded = qakge.load_checkpoint(path)
        run.check(loaded.vocab == model.vocab and all(
            (a == b).all() for a, b in zip(loaded.arrays(), model.arrays())),
            "checkpoint round trip changed the model")
        pool = {kind: {t.source for t in base if t.relation == REL_KIND and t.target == kind}
                for kind in (KIND_MEASURE, KIND_DIMENSION)}
        return {
            "base": base, "model": loaded, "cases": list(zip(contexts, truths)),
            "rules": pool[KIND_MEASURE], "dimensions": pool[KIND_DIMENSION],
            "hp": qakge.Hyperparams(learning_rate=1e-4, epochs=100, seed=seed),
        }

    def task(self, state: dict, run: Run) -> bool:
        scores = {}
        for ctx, truth in state["cases"]:
            if not self.plan_one(state, ctx, truth, run, scores):
                return False
        note = f"mean over {len(scores)} held-out contexts"
        run.report.update(
            plan_rule_f1=(sum(r for r, _ in scores.values()) / len(scores), "", note),
            plan_dim_f1=(sum(d for _, d in scores.values()) / len(scores), "", note))
        return True

    def plan_one(self, state: dict, ctx, truth, run: Run, scores: dict) -> bool:
        t0 = run.clock()
        try:
            plan, _ = qakge.generate_plan(state["base"], ctx, state["hp"], warm_start=state["model"])
        except qakge.TrainingDiverged as exc:
            run.check(False, f"generate_plan {ctx.context_id}: {exc}")
            return False
        t1 = run.clock()
        rule_f1, dim_f1 = plan_f1(plan, truth)
        wanted = {ctx.attribute_node(a.name) for a in ctx.attributes}
        run.check(set(plan.rules) <= state["rules"]
                  and set(plan.dimensions) <= state["dimensions"]
                  and {e.attribute for e in plan.rule_edges} == wanted,
                  f"plan for {ctx.context_id} leaves the pools or misses an attribute")
        run.time("plan_s_p50", t1 - t0)
        scores[ctx.context_id] = (rule_f1, dim_f1)
        run.settle(ctx.context_id, {"plan": qakge.plan_to_dict(plan),
                                    "rule_f1": rule_f1, "dim_f1": dim_f1})
        return True


WORKLOADS = {w.name: w for w in (Corpus41Train(), RadiationCompare(), HeldoutPlan())}
