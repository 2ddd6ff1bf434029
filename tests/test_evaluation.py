"""Ranking protocol tests: hand-worked ranks, oracle agreement, aggregates."""
import numpy as np
import pytest

import qakge.evaluation
from qakge.errors import InputError
from qakge.evaluation import aggregate_ranks, evaluate, validation_loss
from qakge.model import ModelParams, init_model
from qakge.training import Hyperparams
from qakge.triples import TripleGraph, Vocabulary, WeightedTriple

from .helpers import oracle_rank, toy_graph


def crafted_model(ent_values: list[float]) -> ModelParams:
    """k=1 model over entities a,b,c,... where score(s,r,o) = v[s] * v[o]."""
    names = [chr(ord("a") + i) for i in range(len(ent_values))]
    vocab = Vocabulary.from_names(names, ["r"])
    col = np.asarray(ent_values, dtype=np.complex128).reshape(-1, 1)
    return ModelParams(np.concatenate([col, np.ones((1, 1), dtype=np.complex128)]), vocab)


def object_rank(model: ModelParams, triple, known=(), protocol: str = "raw") -> int:
    """Object-side rank of one triple: ``evaluate`` over a one-triple test graph."""
    test = TripleGraph.from_triples([WeightedTriple(*triple, 1.0)])
    return evaluate(model, test, known, protocol=protocol).ranks[0].rank


def test_raw_rank_hand_worked():
    model = crafted_model([3.0, 2.0, 2.0, 1.0])  # a,b,c,d
    # object side of (a, r, d): candidate scores 9, 6, 6, 3; true is last
    assert object_rank(model, ("a", "r", "d")) == 4
    # (a, r, b): true 6, one above, one tied -> 1 + 1 + round_half_up(1/2) = 3
    assert object_rank(model, ("a", "r", "b")) == 3


def test_all_tied_scores_take_middle_rank():
    model = crafted_model([1.0, 1.0, 1.0, 1.0])
    # 4-way tie: expected rank (4+1)/2 = 2.5, half-up to 3
    assert object_rank(model, ("a", "r", "b")) == 3


def test_filtering_removes_known_positives_but_never_the_truth():
    model = crafted_model([3.0, 2.0, 2.0, 1.0])
    known = [("a", "r", "a"), ("a", "r", "c"), ("a", "r", "d")]
    # without filtering rank is 4; dropping a and c leaves only b above
    assert object_rank(model, ("a", "r", "d"), known, protocol="filtered") == 2
    # the test triple is itself a known positive and must stay in the pool
    assert object_rank(model, ("a", "r", "d"), [("a", "r", "d")], protocol="filtered") == 4


def test_rank_rejects_bad_arguments():
    model = crafted_model([1.0, 2.0])
    with pytest.raises(InputError, match="protocol"):
        object_rank(model, ("a", "r", "b"), protocol="open")
    with pytest.raises(InputError, match="not in vocabulary: 'zz'"):
        object_rank(model, ("a", "r", "zz"))


def test_matches_exhaustive_oracle_both_sides_both_modes():
    graph = toy_graph(n_entities=12, n_triples=40, seed=9)
    model = init_model(graph.vocab, k=4, seed=1)
    e_idx = graph.vocab.entity_index
    r_idx = graph.vocab.relation_index
    known_idx = {(e_idx[s], r_idx[p], e_idx[o]) for s, p, o in graph.keys()}
    for mode in ("raw", "filtered"):
        records = evaluate(model, graph, graph, protocol=mode).ranks
        assert len(records) == 2 * len(graph)
        for r in records:
            idx_triple = (e_idx[r.source], r_idx[r.relation], e_idx[r.target])
            want = oracle_rank(model, idx_triple, r.side, known_idx, mode)
            assert r.rank == want, (r, mode)


def test_evaluate_records_match_oracle_in_order():
    graph = toy_graph(n_entities=10, n_triples=25, seed=4)
    model = init_model(graph.vocab, k=3, seed=2)
    e_idx, r_idx = graph.vocab.entity_index, graph.vocab.relation_index
    known_idx = {(e_idx[s], r_idx[p], e_idx[o]) for s, p, o in graph.keys()}
    metrics = evaluate(model, graph, graph, protocol="filtered")
    assert metrics.n_test == 25
    assert len(metrics.ranks) == 50  # two sides per triple
    for record, t in zip(metrics.ranks[0::2], graph.triples):
        assert record.side == "object"
        idx_triple = (e_idx[t.source], r_idx[t.relation], e_idx[t.target])
        assert record.rank == oracle_rank(model, idx_triple, "object", known_idx, "filtered")
    for record, t in zip(metrics.ranks[1::2], graph.triples):
        assert record.side == "subject"
        idx_triple = (e_idx[t.source], r_idx[t.relation], e_idx[t.target])
        assert record.rank == oracle_rank(model, idx_triple, "subject", known_idx, "filtered")
    want = aggregate_ranks([r.rank for r in metrics.ranks])
    assert metrics.mrr == pytest.approx(want["mrr"], abs=1e-15)
    assert metrics.mr == pytest.approx(want["mr"], abs=1e-15)


def hub_graph() -> TripleGraph:
    """A random graph plus a hub: e00 points at 30 objects through r0 and is
    pointed at by 25 subjects through r1."""
    base = toy_graph(n_entities=40, n_relations=3, n_triples=60, seed=12)
    hub = [WeightedTriple("e00", "r0", f"e{i:02d}", 0.8) for i in range(5, 35)]
    hub += [WeightedTriple(f"e{i:02d}", "r1", "e00", 0.6) for i in range(10, 35)]
    seen = set(base.keys())
    return TripleGraph.from_triples(
        list(base.triples) + [t for t in hub if t.key not in seen])


def test_blocks_of_a_few_rows_match_exhaustive_oracle(monkeypatch):
    graph = hub_graph()
    n = graph.vocab.n_entities
    # 7 queries per block: the split spans many blocks and ends in a partial one
    monkeypatch.setattr(qakge.evaluation, "BLOCK_SCORES", 7 * n + 3)
    assert len(graph) % 7 and len(graph) > 10 * 7
    model = init_model(graph.vocab, k=4, seed=3)
    e_idx, r_idx = graph.vocab.entity_index, graph.vocab.relation_index
    known_idx = {(e_idx[s], r_idx[p], e_idx[o]) for s, p, o in graph.keys()}
    for mode in ("raw", "filtered"):
        records = evaluate(model, graph, graph, protocol=mode).ranks
        assert [(r.source, r.relation, r.target) for r in records[0::2]] == [
            t.key for t in graph.triples]
        assert [r.side for r in records] == ["object", "subject"] * len(graph)
        for r in records:
            idx_triple = (e_idx[r.source], r_idx[r.relation], e_idx[r.target])
            assert r.rank == oracle_rank(model, idx_triple, r.side, known_idx, mode), (r, mode)


def test_filtered_never_ranks_worse_than_raw():
    graph = toy_graph(n_entities=10, n_triples=30, seed=6)
    model = init_model(graph.vocab, k=3, seed=5)
    raw = evaluate(model, graph, graph, protocol="raw")
    filt = evaluate(model, graph, graph, protocol="filtered")
    for a, b in zip(filt.ranks, raw.ranks):
        assert a.rank <= b.rank


def test_aggregate_ranks_worked_example():
    out = aggregate_ranks([1, 2, 4])
    assert out["mrr"] == pytest.approx(7.0 / 12.0, abs=1e-12)
    assert out["mr"] == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert out["hits"][1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out["hits"][3] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out["hits"][10] == 1.0


def test_aggregate_ranks_rejects_bad_input():
    with pytest.raises(InputError, match="empty"):
        aggregate_ranks([])
    with pytest.raises(InputError, match=">= 1"):
        aggregate_ranks([1, 0, 2])


def test_evaluate_argument_validation():
    graph = toy_graph(n_entities=8, n_triples=12, seed=3)
    model = init_model(graph.vocab, k=2, seed=0)
    with pytest.raises(InputError, match="protocol"):
        evaluate(model, graph, graph, protocol="strict")
    with pytest.raises(InputError, match="empty test"):
        evaluate(model, TripleGraph.from_triples([]), graph)


def test_loss_only_with_hyperparameters():
    graph = toy_graph(n_entities=8, n_triples=12, seed=3)
    model = init_model(graph.vocab, k=2, seed=0)
    hp = Hyperparams(k=2, eta=2, batch_size=5)
    assert evaluate(model, graph, graph).loss is None
    assert evaluate(model, graph, graph, hp=hp).loss == validation_loss(model, graph, hp)


def test_metrics_to_dict_shape():
    graph = toy_graph(n_entities=8, n_triples=12, seed=3)
    model = init_model(graph.vocab, k=2, seed=0)
    doc = evaluate(model, graph, graph).to_dict()
    assert set(doc) == {"loss", "mrr", "mr", "hits", "n_test", "protocol", "per_relation_mrr"}
    assert set(doc["hits"]) == {"1", "3", "10"}
    assert doc["protocol"] == "filtered"


def test_per_relation_mrr_covers_all_relations():
    graph = toy_graph(n_entities=10, n_triples=30, seed=8)
    model = init_model(graph.vocab, k=3, seed=1)
    metrics = evaluate(model, graph, graph)
    assert set(metrics.per_relation_mrr) == {t.relation for t in graph.triples}
    assert all(0.0 < v <= 1.0 for v in metrics.per_relation_mrr.values())


def test_validation_loss_is_reproducible():
    graph = toy_graph(n_entities=10, n_triples=30, seed=2)
    model = init_model(graph.vocab, k=4, seed=7)
    hp = Hyperparams(k=4, eta=3, batch_size=8)
    first = validation_loss(model, graph, hp)
    assert first == validation_loss(model, graph, hp)
    assert np.isfinite(first)
    with pytest.raises(InputError, match="empty"):
        validation_loss(model, TripleGraph.from_triples([]), hp)


def test_validation_loss_reads_edge_weights():
    # beta is 0, so the same triples under other weights score differently
    triples = [
        WeightedTriple("a", "r", "b", 0.2),
        WeightedTriple("b", "r", "c", 0.9),
        WeightedTriple("c", "r", "d", 0.4),
        WeightedTriple("d", "r", "e", 0.7),
        WeightedTriple("e", "r", "a", 0.1),
    ]
    graph = TripleGraph.from_triples(triples)
    flat = TripleGraph.from_triples([WeightedTriple(t.source, t.relation, t.target) for t in triples])
    model = init_model(graph.vocab, k=3, seed=0)
    hp = Hyperparams(k=3, eta=2, batch_size=4)
    assert validation_loss(model, graph, hp) != validation_loss(model, flat, hp)
