"""Training loop behavior: determinism, schedules, divergence, warm starts."""
import dataclasses
import json
import math

import numpy as np
import pytest

from qakge.errors import InputError, TrainingDiverged
from qakge.model import ModelParams, init_model
from qakge.objective import hinge_part, regularizer_part
from qakge.contexts import from_json_object, to_json_object
from qakge import objective, training
from qakge.training import Hyperparams, beta_value, loss_and_grad, train
from qakge.triples import Vocabulary

from .helpers import (
    arena_for, gradient_parts, one_step, step_by_step_train, toy_graph, touched_ids,
)

SMALL = Hyperparams(k=6, eta=2, batch_size=16, learning_rate=1e-3, epochs=4, seed=3)


def test_same_seed_is_bit_identical():
    graph = toy_graph()
    model_a, report_a = train(graph, SMALL)
    model_b, report_b = train(graph, SMALL)
    for left, right in zip(model_a.arrays(), model_b.arrays()):
        assert np.array_equal(left, right)
    assert report_a.losses == report_b.losses


def test_different_seed_changes_result():
    graph = toy_graph()
    model_a, _ = train(graph, SMALL)
    model_b, _ = train(graph, dataclasses.replace(SMALL, seed=4))
    assert any(not np.array_equal(a, b) for a, b in zip(model_a.arrays(), model_b.arrays()))


def test_loss_trace_shape_and_progress():
    graph = toy_graph()
    hp = dataclasses.replace(SMALL, learning_rate=1e-2, epochs=30)
    _, report = train(graph, hp)
    assert len(report.losses) == 30
    assert all(np.isfinite(x) for x in report.losses)
    assert report.losses[-1] < report.losses[0]
    assert report.wall_time > 0.0
    assert report.seed == hp.seed


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_reports_location_and_rows():
    graph = toy_graph()
    hp = dataclasses.replace(SMALL, learning_rate=1e200, batch_size=32, epochs=3)
    with pytest.raises(TrainingDiverged) as info:
        train(graph, hp)
    err = info.value
    assert err.epoch >= 0
    assert err.batch >= 0
    assert err.triple_rows == sorted(err.triple_rows)
    assert all(isinstance(r, int) for r in err.triple_rows)
    assert "non-finite" in str(err)


def _chunks_of(monkeypatch, steps: int, hp: Hyperparams) -> None:
    """Let one chunk of ``train`` hold ``steps`` full batches of ``hp``; a
    toy-graph batch names more slots than the graph's block has rows."""
    monkeypatch.setattr(objective, "CHUNK_SLOTS", steps * 3 * hp.batch_size * (1 + hp.eta),
                        raising=False)


@pytest.mark.parametrize("fold_in", [False, True])
def test_chunk_boundaries_are_invisible(monkeypatch, fold_in):
    graph = toy_graph()
    hp = dataclasses.replace(SMALL, epochs=5)
    base = None
    n = len(graph)
    if fold_in:  # entities e00, e01 and relation r0 are new
        base = init_model(Vocabulary.from_names(graph.vocab.entities[2:], graph.vocab.relations[1:]),
                          hp.k, seed=999)
        n = sum(t.relation == "r0" or t.source in ("e00", "e01") or t.target in ("e00", "e01")
                for t in graph)
    want, want_losses, diverged = step_by_step_train(graph, hp, base)
    assert diverged is None
    _chunks_of(monkeypatch, 3, hp)
    # each epoch ends in a short batch, and the run spans at least 3 chunks
    assert n % hp.batch_size and hp.epochs * math.ceil(n / hp.batch_size) > 2 * 3
    model, report = train(graph, hp, base=base)
    for got, expected in zip(model.arrays(), want.arrays()):
        assert np.array_equal(got, expected)
    assert report.losses == want_losses


@pytest.mark.parametrize("chunk_slots, per_chunk", [(1, 1), (3 * 3 * 16 * 3, 3)])
def test_a_chunk_draws_every_step_before_it_runs_them(monkeypatch, chunk_slots, per_chunk):
    graph = toy_graph()  # 4 batches an epoch, the last a short one
    calls = []
    draw, run = training.sample_corruptions, training.loss_and_grad
    monkeypatch.setattr(training, "sample_corruptions", lambda *a: calls.append("draw") or draw(*a))
    monkeypatch.setattr(training, "loss_and_grad", lambda *a: calls.append("step") or run(*a))
    monkeypatch.setattr(objective, "CHUNK_SLOTS", chunk_slots)  # 1: at least one step a chunk
    train(graph, SMALL)
    steps, want = SMALL.epochs * 4, []
    for start in range(0, steps, per_chunk):
        size = min(per_chunk, steps - start)
        want += ["draw"] * size + ["step"] * size
    assert calls == want


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_in_a_later_chunk_reports_its_own_step(monkeypatch):
    graph = toy_graph()
    # the x^4 penalty overflows above lr ~3.2e76; at this lr the run diverges at step 3
    hp = dataclasses.replace(SMALL, learning_rate=3.45e76, batch_size=4)
    _, _, diverged = step_by_step_train(graph, hp)
    epoch, batch_no, rows = diverged
    step = epoch * math.ceil(len(graph) / hp.batch_size) + batch_no
    _chunks_of(monkeypatch, 2, hp)
    assert step >= 2 and step % 2  # after the first step of a later chunk
    with pytest.raises(TrainingDiverged) as info:
        train(graph, hp)
    assert (info.value.epoch, info.value.batch, info.value.triple_rows) == (epoch, batch_no, rows)


def test_beta_schedule():
    hp = Hyperparams(epochs=10)
    assert beta_value(0, hp) == 1.0
    assert beta_value(5, hp) == pytest.approx(0.5)
    assert beta_value(10, hp) == 0.0
    assert beta_value(17, hp) == 0.0

    explicit = Hyperparams(epochs=10, beta_decay_epochs=4)
    assert beta_value(1, explicit) == pytest.approx(0.75)
    assert beta_value(4, explicit) == 0.0

    immediate = Hyperparams(epochs=10, beta_decay_epochs=0)
    assert beta_value(0, immediate) == 0.0

    off = Hyperparams(epochs=10, focuse=False, beta_decay_epochs=4)
    assert beta_value(0, off) == 1.0
    assert beta_value(9, off) == 1.0


def test_final_beta_matches_last_epoch():
    graph = toy_graph()
    hp = dataclasses.replace(SMALL, epochs=5, beta_decay_epochs=10)
    _, report = train(graph, hp)
    assert report.final_beta == pytest.approx(beta_value(4, hp))


def test_warm_start_is_used():
    graph = toy_graph()
    vocab = graph.vocab
    base_vocab = Vocabulary.from_names(
        vocab.entities[5:] + ("unused",), vocab.relations[1:] + ("r_unused",))
    base = init_model(base_vocab, SMALL.k, seed=999)
    model, _ = train(graph, SMALL, base=base)
    cold = init_model(vocab, SMALL.k, seed=SMALL.seed)
    for names, ours, theirs, matrices in (
        (vocab.entities[5:], vocab.entity_index, base_vocab.entity_index, (0, 1)),
        (vocab.relations[1:], vocab.relation_index, base_vocab.relation_index, (2, 3)),
    ):
        i = [ours[name] for name in names]
        j = [theirs[name] for name in names]
        for m in matrices:
            assert np.array_equal(model.arrays()[m][i], base.arrays()[m][j])
            assert not np.allclose(model.arrays()[m][i], cold.arrays()[m][i])
    for given, before in zip(base.arrays(), init_model(base_vocab, SMALL.k, seed=999).arrays()):
        assert np.array_equal(given, before)  # caller's base never mutated


def test_warm_start_rejects_mismatches():
    graph = toy_graph()
    with pytest.raises(InputError, match="warm start dimension"):
        train(graph, SMALL, base=init_model(graph.vocab, SMALL.k + 1, seed=0))


def test_base_sharing_no_name_trains_like_a_cold_start():
    # every row is then trained, through index arrays instead of slices
    graph = toy_graph()
    stranger = init_model(Vocabulary.from_names(["x", "y"], ["q"]), SMALL.k, seed=999)
    cold, cold_report = train(graph, SMALL)
    folded, folded_report = train(graph, SMALL, base=stranger)
    for left, right in zip(cold.arrays(), folded.arrays()):
        assert np.array_equal(left, right)
    assert cold_report.losses == folded_report.losses


def test_empty_graph_rejected():
    from qakge.triples import TripleGraph

    with pytest.raises(InputError, match="empty"):
        train(TripleGraph.from_triples([]), SMALL)


def test_frozen_rows_keep_their_values_and_the_rest_train():
    graph = toy_graph()
    sub = Vocabulary.from_names(graph.vocab.entities[2:], graph.vocab.relations[1:])
    base = init_model(sub, SMALL.k, seed=999)
    cold = init_model(graph.vocab, SMALL.k, seed=SMALL.seed)
    model, report = train(graph, SMALL, base=base)
    assert np.array_equal(model.ent_re[2:], base.ent_re)
    assert np.array_equal(model.ent_im[2:], base.ent_im)
    assert np.array_equal(model.rel_re[1:], base.rel_re)
    assert np.array_equal(model.rel_im[1:], base.rel_im)
    assert not np.allclose(model.ent_re[:2], cold.ent_re[:2])
    assert not np.allclose(model.rel_re[:1], cold.rel_re[:1])
    assert len(report.losses) == SMALL.epochs


def test_fold_in_gradients_hold_no_frozen_row(monkeypatch):
    graph = toy_graph()
    sub = Vocabulary.from_names(graph.vocab.entities[2:], graph.vocab.relations[1:])
    seen = []

    def spy(model, step, hp, arena):
        rel_ids = step.rel_rows - model.vocab.n_entities
        seen.append((step.ent_rows.copy(), rel_ids, touched_ids(step)))
        return loss_and_grad(model, step, hp, arena)

    monkeypatch.setattr(training, "loss_and_grad", spy)
    train(graph, SMALL, base=init_model(sub, SMALL.k, seed=999))
    assert len(seen) > 0
    for ent_rows, rel_rows, (touched_ent, touched_rel) in seen:
        assert np.array_equal(ent_rows, touched_ent[touched_ent < 2])
        assert np.array_equal(rel_rows, touched_rel[touched_rel < 1])


def test_fold_in_with_every_relation_frozen_skips_the_relation_terms(monkeypatch):
    graph = toy_graph()
    base = init_model(Vocabulary.from_names(graph.vocab.entities[3:], graph.vocab.relations),
                      SMALL.k, seed=999)
    fresh = np.arange(graph.vocab.n_entities) < 3
    checked = []

    def spy(model, step, hp, arena):
        loss = loss_and_grad(model, step, hp, arena)
        own = arena_for(model, step)  # the step's arena fits only the rows it trains
        live = one_step(model, step.pos, step.pos_weights, step.neg, step.eta, step.beta,
                        np.concatenate([fresh, np.ones(graph.vocab.n_relations, bool)]))
        loss_and_grad(model, live, hp, own)
        assert step.values.shape == (step.n_ent, hp.k) and len(step.rel_rows) == 0
        assert np.array_equal(step.ent_rows, live.ent_rows)
        assert (step.values == live.values[: live.n_ent]).all()
        checked.append(bool(np.abs(live.values[live.n_ent:]).max() > 0.0))
        return loss

    monkeypatch.setattr(training, "loss_and_grad", spy)
    train(graph, SMALL, base=base)
    assert checked and all(checked)  # the skipped relation terms were not all zero


def _poisoned(monkeypatch):
    """Make ``train`` fill its arena's scratch region with NaN before the
    hinge, the penalty and the Adam step of every batch, so a cell read
    before it is written turns the parameters into NaN."""

    def poison(arena):
        for view in (arena.gather, arena.terms, arena.cells, *arena.rows):
            view.view(np.float64)[...] = np.nan

    def hinge(model, step, margin, arena):
        poison(arena)
        return hinge_part(model, step, margin, arena)

    def penalty(model, ent_rows, rel_rows, lam, arena, grad):
        poison(arena)
        return regularizer_part(model, ent_rows, rel_rows, lam, arena, grad)

    update = training._Adam.step

    def adam_step(self, model, step, arena):
        poison(arena)
        return update(self, model, step, arena)

    monkeypatch.setattr(training, "hinge_part", hinge)
    monkeypatch.setattr(training, "regularizer_part", penalty)
    monkeypatch.setattr(training._Adam, "step", adam_step)


def test_no_arena_cell_is_read_before_it_is_written(monkeypatch):
    graph = toy_graph()
    hp = dataclasses.replace(SMALL, reg_lambda=1e-2)
    sub = Vocabulary.from_names(graph.vocab.entities[2:], graph.vocab.relations[1:])
    base = init_model(sub, SMALL.k, seed=999)
    clean = [train(graph, hp), train(graph, hp, base=base)]
    _poisoned(monkeypatch)
    for (model, report), (want, want_report) in zip(
            [train(graph, hp), train(graph, hp, base=base)], clean):
        for got, expected in zip(model.arrays(), want.arrays()):
            assert np.array_equal(got, expected)
        assert report.losses == want_report.losses


def test_adam_step_leaves_untouched_rows_and_corrects_with_the_global_count():
    model = init_model(Vocabulary.from_names([f"e{i}" for i in range(5)], ["r0", "r1"]), 3, seed=1)
    adam = training._Adam(model, lr=0.01)
    rng = np.random.default_rng(4)
    arena = arena_for(model)

    def step(pos, neg):
        grads = one_step(model, pos, np.ones(len(pos)), neg, 1, 1.0)
        grads.values = np.zeros((len(grads.rows), model.k), dtype=np.complex128)
        for _, g in gradient_parts(model, grads):
            g[:] = rng.normal(size=g.shape)
        adam.step(model, grads, arena)
        return grads

    step([[0, 0, 1]], [[0, 0, 2]])  # entities 0-2 and relation 0
    before = [a.copy() for a in (model.block, adam.m, adam.v)]
    grads = step([[3, 1, 1]], [[3, 1, 2]])  # entity 3 and relation 1 start at t = 2
    assert adam.m.shape == adam.v.shape == model.block.view(np.float64).shape
    for old, new in zip(before, (model.block, adam.m, adam.v)):
        untouched = [0, 4, 5]  # entities 0 and 4, and relation 0 in block row 5
        assert (old[untouched] == new[untouched]).all()

    t, b1, b2, eps = 2, training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    start_parts = ModelParams(before[0], model.vocab).arrays()
    for start, param, (rows, g) in zip(start_parts, model.arrays(), gradient_parts(model, grads)):
        fresh = list(rows).index(3 if param.shape[0] == 5 else 1)
        m_hat = (1 - b1) * g[fresh] / (1 - b1**t)
        v_hat = (1 - b2) * g[fresh] ** 2 / (1 - b2**t)
        row = rows[fresh]
        assert np.allclose(param[row], start[row] - 0.01 * m_hat / (np.sqrt(v_hat) + eps),
                           rtol=1e-13, atol=0.0)


def test_frozen_vocabulary_must_leave_rows_to_train():
    graph = toy_graph()
    with pytest.raises(InputError, match="nothing to train"):
        train(graph, SMALL, base=init_model(graph.vocab, SMALL.k, seed=0))


def test_hyperparams_validation():
    with pytest.raises(InputError, match="learning_rate"):
        Hyperparams(learning_rate=0.0)
    with pytest.raises(InputError, match="k must"):
        Hyperparams(k=0)
    with pytest.raises(InputError, match="epochs must be an integer, got 2.5"):
        Hyperparams(epochs=2.5)
    with pytest.raises(InputError, match="eta"):
        Hyperparams(eta=0)
    with pytest.raises(InputError, match="beta_decay_epochs"):
        Hyperparams(beta_decay_epochs=-1)
    with pytest.raises(InputError, match="margin"):
        Hyperparams(margin=-0.1)
    with pytest.raises(InputError, match="reg_lambda"):
        Hyperparams(reg_lambda=-1e-4)
    for name in ("learning_rate", "margin", "reg_lambda"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match=name):
                Hyperparams(**{name: value})
    # json.load reads NaN and Infinity, so a config file can carry them
    with pytest.raises(InputError, match="margin must be finite"):
        from_json_object(Hyperparams, json.loads('{"margin": NaN}'), "hyperparameter")


def test_hyperparams_dict_round_trip():
    hp = Hyperparams(k=12, eta=3, focuse=False, beta_decay_epochs=7)
    assert from_json_object(Hyperparams, to_json_object(hp), "hyperparameter") == hp
    with pytest.raises(InputError, match="unknown"):
        from_json_object(Hyperparams, {"k": 4, "momentum": 0.9}, "hyperparameter")
    with pytest.raises(InputError, match="JSON object"):
        from_json_object(Hyperparams, [1, 2], "hyperparameter")
