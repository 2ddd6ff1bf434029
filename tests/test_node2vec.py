"""Walk-embedding baseline: adjacency, biased walks, skip-gram, retrieval."""
import math

import numpy as np
import pytest

from qakge.contexts import Attribute, ContextDescriptor, context_to_triples, plan_to_triples
from qakge.contexts import AssessmentPlan, DimensionEdge, RuleEdge, from_json_object
from qakge.errors import InputError, NoMatchError, ZeroVectorError
from qakge.node2vec import (
    AdjacencyStructure,
    BaselineConfig,
    NodeEmbeddings,
    baseline_plan,
    embed_graph,
    generate_walks,
    nearest_context,
    train_skipgram,
    transition_probs,
    window_pairs,
)
from qakge import node2vec
from qakge.synth import build_radiation_scenario
from qakge.triples import TripleGraph, WeightedTriple

from .helpers import looped_window_pairs, scattered_skipgram, step_by_step_walks


def edges(*pairs: tuple[str, str]) -> TripleGraph:
    return TripleGraph.from_triples(
        [WeightedTriple(s, "linked", o, 1.0) for s, o in pairs]
    )


def test_adjacency_is_undirected_sorted_and_loop_free():
    graph = edges(("c", "a"), ("a", "b"), ("b", "b"))
    adj = AdjacencyStructure.from_graph(graph)
    by_name = {name: adj.neighbors[adj.index[name]] for name in adj.names}
    assert by_name["a"].tolist() == sorted([adj.index["b"], adj.index["c"]])
    assert by_name["b"].tolist() == [adj.index["a"]]  # self-loop dropped
    assert by_name["c"].tolist() == [adj.index["a"]]
    assert all(np.all(np.diff(nb) > 0) for nb in adj.neighbors if nb.size > 1)


def test_transition_probs_triangle_and_path():
    triangle = AdjacencyStructure.from_graph(edges(("a", "b"), ("b", "c"), ("a", "c")))
    a, b, c = (triangle.index[x] for x in "abc")
    cand, probs = transition_probs(triangle, prev=a, cur=b, p=2.0, q=3.0)
    # candidates of b are [a, c]; back to a costs 1/p, c is shared with a so 1
    assert cand.tolist() == [a, c]
    assert probs == pytest.approx([0.5 / 1.5, 1.0 / 1.5])

    path = AdjacencyStructure.from_graph(edges(("a", "b"), ("b", "c")))
    a, b, c = (path.index[x] for x in "abc")
    cand, probs = transition_probs(path, prev=a, cur=b, p=2.0, q=4.0)
    # c is not a neighbor of a, so it takes the 1/q branch
    assert cand.tolist() == [a, c]
    assert probs == pytest.approx([0.5 / 0.75, 0.25 / 0.75])


def test_transition_probs_start_is_uniform_and_return_suppressed():
    adj = AdjacencyStructure.from_graph(edges(("a", "b"), ("b", "c"), ("a", "c")))
    a = adj.index["a"]
    _, probs = transition_probs(adj, prev=None, cur=a, p=9.0, q=0.1)
    assert probs == pytest.approx([0.5, 0.5])

    b = adj.index["b"]
    cand, probs = transition_probs(adj, prev=a, cur=b, p=1e9, q=1.0)
    assert probs[cand.tolist().index(a)] < 1e-8


def test_window_pairs_exact():
    walk = np.array([0, 1, 2], dtype=np.int64)
    assert window_pairs(walk, 1).tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]
    assert window_pairs(walk, 2).tolist() == [
        [0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1],
    ]
    assert window_pairs(np.array([5]), 3).shape == (0, 2)


def test_walks_deterministic_grouped_and_edge_respecting():
    graph = edges(("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("e", "a"))
    cfg = BaselineConfig(walks_per_node=3, walk_length=12)
    first = generate_walks(graph, cfg, seed=4)
    again = generate_walks(graph, cfg, seed=4)
    assert len(first) == 5 * 3
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    adj = AdjacencyStructure.from_graph(graph)
    for node in range(5):
        for walk in first[node * 3 : (node + 1) * 3]:
            assert walk[0] == node
            for prev, nxt in zip(walk, walk[1:]):
                assert int(nxt) in adj.neighbors[int(prev)].tolist()


def test_isolated_node_walks_have_length_one():
    graph = TripleGraph.from_triples([
        WeightedTriple("a", "linked", "b", 1.0),
        WeightedTriple("lone", "linked", "lone", 1.0),  # only a self-loop
    ])
    walks = generate_walks(graph, BaselineConfig(walks_per_node=2, walk_length=10), seed=0)
    adj = AdjacencyStructure.from_graph(graph)
    lone = adj.index["lone"]
    lone_walks = walks[lone * 2 : lone * 2 + 2]
    assert all(w.shape == (1,) and w[0] == lone for w in lone_walks)


def biased_graph() -> TripleGraph:
    """Two triangles joined by a path, a pendant node and an isolated one."""
    return TripleGraph.from_triples([
        *(WeightedTriple(s, "linked", o, 1.0) for s, o in (
            ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
            ("e", "f"), ("f", "g"), ("g", "e"), ("g", "h"))),
        WeightedTriple("lone", "linked", "lone", 1.0),  # only a self-loop
    ])


def test_walks_match_the_step_by_step_reference():
    graph = biased_graph()
    for seed in (0, 1, 2):
        for p, q in ((0.5, 2.0), (4.0, 0.25)):
            cfg = BaselineConfig(p=p, q=q, walks_per_node=3, walk_length=25)
            got = generate_walks(graph, cfg, seed=seed)
            want = step_by_step_walks(graph, cfg, seed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w)
    assert any(len(w) == 1 for w in got)  # the isolated node's walks


def test_walks_compute_each_transition_once_through_the_module_name(monkeypatch):
    graph, length, calls = biased_graph(), 15, []

    def counted(adj, prev, cur, p, q):
        calls.append((prev, cur))
        return transition_probs(adj, prev, cur, p, q)

    monkeypatch.setattr(node2vec, "transition_probs", counted)
    cfg = BaselineConfig(p=0.5, q=2.0, walks_per_node=4, walk_length=length)
    walks = generate_walks(graph, cfg, seed=1)
    # a walk looks up the transition out of each of its nodes but the last
    # of a full-length walk; a dead end looks it up and stops
    seen = {(None if i == 0 else int(w[i - 1]), int(w[i]))
            for w in walks for i in range(min(len(w), length - 1))}
    assert len(calls) == len(set(calls)) == len(seen)
    assert set(calls) == seen


def test_window_pairs_match_the_double_loop():
    walk = np.random.default_rng(0).integers(0, 30, 80)
    for window in (1, 3, 5):
        for n in (1, 2, window, window + 1, 80):
            got = window_pairs(walk[:n], window)
            assert got.dtype == np.int64
            assert np.array_equal(got, looped_window_pairs(walk[:n], window))


def clique_graph() -> TripleGraph:
    triples = []
    for prefix in ("a", "b"):
        nodes = [f"{prefix}{i}" for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append(WeightedTriple(nodes[i], "linked", nodes[j], 1.0))
    return TripleGraph.from_triples(triples)


def test_skipgram_separates_disconnected_cliques():
    graph = clique_graph()
    cfg = BaselineConfig(walks_per_node=8, walk_length=40, d=16, epochs=4)
    emb = train_skipgram(generate_walks(graph, cfg, seed=1), graph.vocab.entities, cfg, seed=1)
    unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    groups = [[emb.index[f"{p}{i}"] for i in range(6)] for p in "ab"]
    intra, inter = [], []
    for g, rows in enumerate(groups):
        for i in rows:
            for j in rows:
                if i < j:
                    intra.append(sims[i, j])
            for j in groups[1 - g]:
                inter.append(sims[i, j])
    assert np.mean(intra) > np.mean(inter)


def test_skipgram_deterministic_and_needs_pairs():
    graph = clique_graph()
    cfg = BaselineConfig(walks_per_node=2, walk_length=10, d=8, epochs=2)
    walks = generate_walks(graph, cfg, seed=3)
    one = train_skipgram(walks, graph.vocab.entities, cfg, seed=5)
    two = train_skipgram(walks, graph.vocab.entities, cfg, seed=5)
    assert np.array_equal(one.vectors, two.vectors)
    with pytest.raises(InputError, match="no training pairs"):
        train_skipgram([np.array([0]), np.array([1])], ("x", "y"), BaselineConfig(d=4), seed=0)


def ring_graph(size: int) -> TripleGraph:
    return edges(*((f"v{i}", f"v{(i + 1) % size}") for i in range(size)))


@pytest.mark.parametrize("graph, walks_per_node, walk_length", [
    (clique_graph(), 4, 20),  # every batch names all 12 rows
    (ring_graph(1000), 1, 6),  # a batch names about 760 rows
], ids=["cliques", "ring"])
def test_skipgram_output_update_matches_value_by_value_reference(graph, walks_per_node, walk_length):
    """The dense product sums the output rows in another order than the
    value-by-value reference, whether a batch names few rows or many. An
    entry that cancels to near zero is held to 1e-12 of the largest one."""
    cfg = BaselineConfig(walks_per_node=walks_per_node, walk_length=walk_length, d=16, epochs=1)
    walks = generate_walks(graph, cfg, seed=3)
    dense = train_skipgram(walks, graph.vocab.entities, cfg, seed=5).vectors
    scattered = scattered_skipgram(walks, graph.vocab.entities, cfg, seed=5).vectors
    np.testing.assert_allclose(dense, scattered, rtol=1e-12, atol=1e-12 * np.abs(scattered).max())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_radiation_retrieval_matches_value_by_value_reference(seed):
    """At the benchmark's walk settings the dense output update retrieves
    the plan that the value-by-value update retrieves."""
    scenario = build_radiation_scenario()
    query = scenario.input_context
    graph = scenario.graph.extended(context_to_triples(query))
    cfg = BaselineConfig(walks_per_node=2, epochs=1)
    walks = generate_walks(graph, cfg, seed=seed)
    scattered = scattered_skipgram(walks, graph.vocab.entities, cfg, seed=seed)
    dense = embed_graph(graph, cfg, seed=seed)
    assert (baseline_plan(graph, dense, query, cfg.threshold)
            == baseline_plan(graph, scattered, query, cfg.threshold))


def test_embed_graph_shape_and_names():
    graph = clique_graph()
    cfg = BaselineConfig(walks_per_node=2, walk_length=10, d=8, epochs=1)
    emb = embed_graph(graph, cfg, seed=2)
    assert emb.names == graph.vocab.entities
    assert emb.vectors.shape == (12, 8)


def crafted_embeddings(rows: dict[str, list[float]]) -> NodeEmbeddings:
    names = tuple(rows)
    return NodeEmbeddings(
        names, {n: i for i, n in enumerate(names)}, np.array(list(rows.values()), dtype=np.float64)
    )


def test_nearest_context_tie_break_threshold_and_exclusion():
    emb = crafted_embeddings({
        "q": [1.0, 0.0],
        "b": [2.0, 0.0],   # same direction as q, larger norm
        "a": [1.0, 0.0],   # exact tie with b under cosine
        "c": [0.0, 1.0],   # orthogonal
    })
    # a and b tie at similarity 1; lexicographically smallest wins
    assert nearest_context(emb, "q", ["b", "a", "c"], threshold=0.7) == "a"
    assert nearest_context(emb, "q", ["c"], threshold=0.7) is None
    # the query never matches itself, even when listed
    assert nearest_context(emb, "q", ["q", "c"], threshold=0.7) is None
    assert nearest_context(emb, "q", [], threshold=0.7) is None
    with pytest.raises(InputError, match="threshold"):
        nearest_context(emb, "q", ["a"], threshold=1.5)
    with pytest.raises(InputError, match="unknown node"):
        nearest_context(emb, "missing", ["a"], threshold=0.7)


def test_nearest_context_zero_vectors_are_errors():
    emb = crafted_embeddings({"q": [0.0, 0.0], "a": [1.0, 0.0]})
    with pytest.raises(ZeroVectorError):
        nearest_context(emb, "q", ["a"], threshold=0.7)
    emb = crafted_embeddings({"q": [1.0, 0.0], "z": [0.0, 0.0]})
    with pytest.raises(ZeroVectorError):
        nearest_context(emb, "q", ["z"], threshold=0.7)


def stored_context_and_plan() -> tuple[ContextDescriptor, AssessmentPlan]:
    ctx = ContextDescriptor(
        context_id="ctx_a",
        data_type="structured",
        attributes=(Attribute("temp", "numeric"), Attribute("site", "text")),
        domain="weather",
    )
    plan = AssessmentPlan(
        context_id="ctx_a",
        rule_edges=(
            RuleEdge(ctx.attribute_node("temp"), "range_check", 0.9),
            RuleEdge(ctx.attribute_node("site"), "completeness_check", 0.6),
        ),
        dimension_edges=(DimensionEdge("range_check", "accuracy", 0.8),),
    )
    return ctx, plan


def test_baseline_plan_relabels_but_copies_edges_verbatim():
    stored, plan = stored_context_and_plan()
    query = ContextDescriptor(
        context_id="ctx_q",
        data_type="structured",
        attributes=(Attribute("temp", "numeric"),),
        domain="weather",
    )
    graph = TripleGraph.from_triples(
        context_to_triples(stored) + plan_to_triples(plan) + context_to_triples(query)
    )
    emb = crafted_embeddings({"ctx_q": [1.0, 0.1], "ctx_a": [1.0, 0.0]})
    out = baseline_plan(graph, emb, query, threshold=0.7)
    assert out.context_id == "ctx_q"
    assert out.rule_edges == plan.rule_edges
    assert out.dimension_edges == plan.dimension_edges


def test_baseline_plan_no_match_raises():
    stored, plan = stored_context_and_plan()
    query = ContextDescriptor(
        context_id="ctx_q",
        data_type="structured",
        attributes=(Attribute("temp", "numeric"),),
    )
    graph = TripleGraph.from_triples(
        context_to_triples(stored) + plan_to_triples(plan) + context_to_triples(query)
    )
    emb = crafted_embeddings({"ctx_q": [1.0, 0.0], "ctx_a": [0.0, 1.0]})
    with pytest.raises(NoMatchError, match="threshold"):
        baseline_plan(graph, emb, query, threshold=0.7)


def test_baseline_config_validation():
    with pytest.raises(InputError, match="p must be > 0, got 0.0"):
        BaselineConfig(p=0.0)
    with pytest.raises(InputError, match="q must be > 0, got -2.0"):
        BaselineConfig(q=-2.0)
    with pytest.raises(InputError, match="learning_rate must be > 0, got 0.0"):
        BaselineConfig(learning_rate=0.0)
    for name in ("walk_length", "window"):
        with pytest.raises(InputError, match=f"{name} must be >= 1, got 0"):
            BaselineConfig(**{name: 0})
    for name in ("d", "walks_per_node"):
        with pytest.raises(InputError, match=f"{name} must be an integer, got 2.5"):
            BaselineConfig(**{name: 2.5})
    with pytest.raises(InputError, match="learning_rate must be a number, got 'x'"):
        BaselineConfig(learning_rate="x")
    with pytest.raises(InputError, match="threshold"):
        BaselineConfig(threshold=2.0)
    for name in ("p", "q", "learning_rate", "threshold"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match=name):
                BaselineConfig(**{name: value})
    cfg = from_json_object(BaselineConfig, {"d": 16, "epochs": 2}, "baseline config")
    assert cfg.d == 16 and cfg.epochs == 2
    with pytest.raises(InputError, match="unknown baseline"):
        from_json_object(BaselineConfig, {"walks": 3}, "baseline config")
