"""Timing from outside the library: an epoch clock and a span tracer.

Both work by replacing public names of ``qakge`` modules with wrappers for
the length of a run and restoring them afterwards. A name is wrapped in the
namespace that calls it (``qakge.training.hinge_part`` is what ``train``
looks up, ``qakge.planner.train`` is what ``generate_plan`` looks up), so the
library itself is never edited. A name that no longer exists is recorded as
an absent layer instead of failing the run.
"""
from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from typing import Callable


def resolve(path: str):
    """Import ``a.b`` or ``a.b.Class``; None if any part is missing."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Patches:
    """Attribute replacements that are undone, in reverse order, on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, owner_path: str, attr: str, make: Callable) -> bool:
        owner = resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{owner_path}.{attr}")
            return False
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class EpochClock:
    """Per-epoch wall times of every ``train`` call, taken from outside.

    ``train`` draws corruptions once per batch, so the time stamps of those
    draws, grouped ``ceil(n / batch_size)`` to an epoch, bound each epoch;
    the last epoch ends when ``train`` returns. If the draw count does not
    match that layout (or the draw is not observable), every epoch of the
    call is given the call's mean and ``exact`` turns False.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.epochs: list[float] = []
        self.exact = True
        self._stamps: list[float] | None = None

    def install(self, patches: Patches) -> None:
        patches.wrap("qakge", "train", self._wrap_train)
        patches.wrap("qakge.planner", "train", self._wrap_train)
        patches.wrap("qakge.training", "sample_corruptions", self._wrap_draw)

    def _wrap_train(self, original):
        def train(*args, **kwargs):
            graph, hp = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "hp")
            self._stamps = []
            start = self.clock()
            try:
                result = original(*args, **kwargs)
                self.record(len(graph), hp.batch_size, hp.epochs, start, self.clock(), self._stamps)
            finally:
                self._stamps = None
            return result

        return train

    def _wrap_draw(self, original):
        def sample_corruptions(*args, **kwargs):
            if self._stamps is not None:
                self._stamps.append(self.clock())
            return original(*args, **kwargs)

        return sample_corruptions

    def record(self, n: int, batch_size: int, epochs: int, start: float, end: float,
               stamps: list[float]) -> None:
        per_epoch = math.ceil(n / batch_size)
        if len(stamps) != per_epoch * epochs:
            self.exact = False
            self.epochs.extend([(end - start) / epochs] * epochs)
            return
        bounds = stamps[::per_epoch] + [end]
        self.epochs.extend(b - a for a, b in zip(bounds, bounds[1:]))


class Tracer:
    """Span totals, self times and counters, aggregated as spans close.

    Calls are strictly nested (one thread), so a span's self time is its
    duration minus the durations of the spans opened directly inside it.
    Time spent computing counters is itself a span, ``trace.count``, so it
    is subtracted from the caller's self time instead of inflating it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered = 0.0  # summed duration of spans with no parent
        self.uncounted: dict[str, str] = {}  # span name -> why its counter failed
        self._stack: list[list] = []  # [name, start, time in child spans]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration

    def wrapper(self, name: str, count: Callable | None = None) -> Callable:
        def make(original):
            def traced(*args, **kwargs):
                self.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit()
                if count is not None:
                    self.enter("trace.count")
                    try:
                        count(self.counts, args, kwargs, result)
                    except (LookupError, TypeError, AttributeError, OSError) as exc:
                        # the traced name changed its arguments or result
                        self.uncounted[name] = f"{type(exc).__name__}: {exc}"
                    finally:
                        self.exit()
                return result

            return traced

        return make


# --- what each wrapped layer counts -----------------------------------------

def _count_draws(counts, args, kwargs, out) -> None:
    batch, eta = _arg(args, kwargs, 0, "batch"), _arg(args, kwargs, 1, "eta")
    counts["sampling.self_identical"] += int(
        (out == batch.repeat(eta, axis=0)).all(axis=1).sum())


def _count_regularizer(counts, args, kwargs, out) -> None:
    model = _arg(args, kwargs, 0, "model")
    ent_rows, rel_rows = _arg(args, kwargs, 1, "ent_rows"), _arg(args, kwargs, 2, "rel_rows")
    counts["objective.regularizer_part.rows"] += len(ent_rows) + len(rel_rows)
    counts["training.touched_entity_share.sum"] += len(ent_rows) / model.vocab.n_entities


def _count_scored(counts, args, kwargs, out) -> None:
    counts["model.score_triples.rows"] += len(_arg(args, kwargs, 1, "idx"))


def _count_ranks(counts, args, kwargs, out) -> None:
    counts["evaluation.ranked"] += len(out.ranks)


def _count_candidates(counts, args, kwargs, out) -> None:
    counts["planner.candidates_scored"] += len(_arg(args, kwargs, 2, "pool"))


def _count_bytes(counts, args, kwargs, out) -> None:
    counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_steps(counts, args, kwargs, out) -> None:
    counts["node2vec.walk_steps"] += sum(len(w) - 1 for w in out)


def _count_pairs(counts, args, kwargs, out) -> None:
    counts["node2vec.skipgram_pairs"] += len(out)


# (namespace that calls the name, name, span, counter). The benchmark calls
# the library through the ``qakge`` package, so those entries wrap its calls.
LAYERS = (
    ("qakge", "train", "training.train", None),
    ("qakge.planner", "train", "planner.train", None),
    ("qakge.training", "sample_corruptions", "sampling.sample_corruptions", _count_draws),
    ("qakge.training", "hinge_part", "objective.hinge_part", None),
    ("qakge.training", "regularizer_part", "objective.regularizer_part", _count_regularizer),
    ("qakge.training", "score_triples", "model.score_triples", _count_scored),
    ("qakge.model", "score_triples", "model.score_triples", _count_scored),
    ("qakge.planner", "score_triples", "model.score_triples", _count_scored),
    ("qakge", "evaluate", "evaluation.evaluate", _count_ranks),
    ("qakge.evaluation", "score_all_objects", "evaluation.score_all", None),
    ("qakge.evaluation", "score_all_subjects", "evaluation.score_all", None),
    ("qakge.evaluation", "validation_loss", "evaluation.validation_loss", None),
    ("qakge", "generate_plan", "planner.generate_plan", None),
    ("qakge.planner", "fit_calibration", "planner.fit_calibration", None),
    ("qakge.planner", "predict_rules_for_attribute", "planner.predict", _count_candidates),
    ("qakge.planner", "predict_dimensions_for_rule", "planner.predict", _count_candidates),
    ("qakge", "compare_plans", "planner.compare_plans", None),
    ("qakge", "save_checkpoint", "checkpoint.save_checkpoint", _count_bytes),
    ("qakge", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("qakge", "embed_graph", "node2vec.embed_graph", None),
    ("qakge.node2vec", "generate_walks", "node2vec.generate_walks", _count_steps),
    ("qakge.node2vec", "transition_probs", "node2vec.transition_probs", None),
    ("qakge.node2vec", "train_skipgram", "node2vec.train_skipgram", None),
    ("qakge.node2vec", "window_pairs", "node2vec.window_pairs", _count_pairs),
    ("qakge", "baseline_plan", "node2vec.baseline_plan", None),
    ("qakge.node2vec", "nearest_context", "node2vec.nearest_context", None),
    ("qakge", "generate_synthetic_graph", "synth.generate_synthetic_graph", None),
    ("qakge.synth", "generate_synthetic_graph", "synth.generate_synthetic_graph", None),
    ("qakge", "build_radiation_scenario", "synth.build_radiation_scenario", None),
    ("qakge", "split_train_test", "triples.split_train_test", None),
    ("qakge.triples.TripleGraph", "index_arrays", "triples.index_arrays", None),
)


def install_layers(tracer: Tracer, patches: Patches) -> None:
    for owner, attr, span, count in LAYERS:
        patches.wrap(owner, attr, tracer.wrapper(span, count))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer number the traced run reports, by metric name.

    ``.s`` is self time, except ``planner.train.s``, which is the whole time
    of the ``train`` calls ``generate_plan`` makes.
    """
    own, calls, counts = tracer.self_time, tracer.calls, tracer.counts
    reg_calls = calls.get("objective.regularizer_part", 0)
    return {
        "training.train.self_s": own.get("training.train", 0.0) + own.get("planner.train", 0.0),
        "training.touched_entity_share":
            counts.get("training.touched_entity_share.sum", 0.0) / reg_calls if reg_calls else 0.0,
        "sampling.sample_corruptions.s": own.get("sampling.sample_corruptions", 0.0),
        "sampling.sample_corruptions.calls": calls.get("sampling.sample_corruptions", 0),
        "sampling.self_identical": counts.get("sampling.self_identical", 0),
        "objective.hinge_part.s": own.get("objective.hinge_part", 0.0),
        "objective.regularizer_part.s": own.get("objective.regularizer_part", 0.0),
        "objective.regularizer_part.rows": counts.get("objective.regularizer_part.rows", 0),
        "model.score_triples.s": own.get("model.score_triples", 0.0),
        "model.score_triples.rows": counts.get("model.score_triples.rows", 0),
        "evaluation.score_all.s": own.get("evaluation.score_all", 0.0),
        "evaluation.ranked": counts.get("evaluation.ranked", 0),
        "evaluation.validation_loss.s": own.get("evaluation.validation_loss", 0.0),
        "evaluation.evaluate.self_s": own.get("evaluation.evaluate", 0.0),
        "planner.train.s": tracer.total.get("planner.train", 0.0),
        "planner.fit_calibration.s": own.get("planner.fit_calibration", 0.0),
        "planner.predict.s": own.get("planner.predict", 0.0),
        "planner.candidates_scored": counts.get("planner.candidates_scored", 0),
        "planner.generate_plan.self_s": own.get("planner.generate_plan", 0.0),
        "checkpoint.save_checkpoint.s": own.get("checkpoint.save_checkpoint", 0.0),
        "checkpoint.load_checkpoint.s": own.get("checkpoint.load_checkpoint", 0.0),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "node2vec.generate_walks.self_s": own.get("node2vec.generate_walks", 0.0),
        "node2vec.transition_probs.s": own.get("node2vec.transition_probs", 0.0),
        "node2vec.walk_steps": counts.get("node2vec.walk_steps", 0),
        "node2vec.train_skipgram.self_s": own.get("node2vec.train_skipgram", 0.0),
        "node2vec.window_pairs.s": own.get("node2vec.window_pairs", 0.0),
        "node2vec.skipgram_pairs": counts.get("node2vec.skipgram_pairs", 0),
        "node2vec.nearest_context.s": own.get("node2vec.nearest_context", 0.0),
        "synth.generate_synthetic_graph.s": own.get("synth.generate_synthetic_graph", 0.0),
        "synth.build_radiation_scenario.s": own.get("synth.build_radiation_scenario", 0.0),
        "triples.split_train_test.s": own.get("triples.split_train_test", 0.0),
        "triples.index_arrays.s": own.get("triples.index_arrays", 0.0),
    }
