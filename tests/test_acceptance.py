"""End-to-end behavior checks, one per promised contract.

Every test prints a PASS/FAIL line naming the measured value, the
tolerance it was held to, and the wall-clock budget. Run with ``-s`` to
see the lines as they happen; on failure the assertion repeats them.
"""
import time

import numpy as np

from qakge import (
    BaselineConfig,
    GeneratorConfig,
    Hyperparams,
    aggregate_ranks,
    baseline_plan,
    build_radiation_scenario,
    compare_plans,
    context_to_triples,
    embed_graph,
    evaluate,
    generate_plan,
    generate_synthetic_graph,
    load_checkpoint,
    load_triples_csv,
    save_checkpoint,
    save_triples_csv,
    split_train_test,
    train,
    triples_to_context,
)
from qakge.model import init_model
from qakge.objective import TrainingBatch
from qakge.triples import TripleGraph, WeightedTriple

from .helpers import (
    dense_gradients,
    fd_gradients,
    max_relative_error,
    modulated,
    oracle_rank,
    random_batch,
    random_model,
    toy_graph,
)


def _check(label: str, ok: bool, detail: str, started: float, budget: float) -> None:
    took = time.time() - started
    ok = ok and took <= budget
    print(f"{'PASS' if ok else 'FAIL'}: {label} -- {detail} [{took:.1f}s of {budget:.0f}s budget]")
    assert ok, f"{label}: {detail} ({took:.1f}s of {budget:.0f}s budget)"


def test_analytic_gradients_match_finite_differences():
    started = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    trials = 0
    for trial in range(21):
        beta = (0.0, 0.3, 1.0)[trial % 3]
        n_ent = int(rng.integers(4, 21))
        n_rel = int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        model = random_model(n_ent, n_rel, k=k, seed=100 + trial)
        batch = random_batch(n_ent, n_rel, rng, n_pos=int(rng.integers(2, 7)),
                             eta=int(rng.integers(1, 4)), beta=beta)
        hp = Hyperparams(k=k, margin=float(rng.uniform(0.1, 1.0)),
                         reg_p=4, reg_lambda=float(rng.uniform(0.0, 1e-2)))
        analytic = dense_gradients(model, batch, hp)
        worst = max(worst, max_relative_error(analytic, fd_gradients(model, batch, hp)))
        trials += 1
    _check("analytic gradient vs central differences", worst <= 1e-4,
           f"worst relative error {worst:.2e} <= 1e-4 over {trials} random instances",
           started, budget=10.0)


def test_ranking_agrees_with_exhaustive_oracle():
    started = time.time()
    graph = toy_graph(n_entities=45, n_relations=3, n_triples=180, seed=9)
    model = init_model(graph.vocab, k=4, seed=1)
    e_idx, r_idx = graph.vocab.entity_index, graph.vocab.relation_index
    known_idx = {(e_idx[s], r_idx[p], e_idx[o]) for s, p, o in graph.keys()}
    checked = 0
    for mode in ("raw", "filtered"):
        metrics = evaluate(model, graph, graph, protocol=mode)
        for side, offset in (("object", 0), ("subject", 1)):
            for record, t in zip(metrics.ranks[offset::2], graph.triples):
                idx_triple = (e_idx[t.source], r_idx[t.relation], e_idx[t.target])
                assert record.rank == oracle_rank(model, idx_triple, side, known_idx, mode), (
                    t.key, side, mode)
                checked += 1
    _check("ranking vs brute-force oracle", True,
           f"{checked} ranks equal exactly (raw and filtered, both sides)",
           started, budget=10.0)


def test_small_graph_is_memorized():
    started = time.time()
    graph = toy_graph()  # 50 triples over 20 entities
    hp = Hyperparams(k=16, learning_rate=1e-3, epochs=1000, seed=0)
    model, _ = train(graph, hp)
    metrics = evaluate(model, graph, graph, protocol="filtered", hp=hp)
    _check("recall of a small training graph", metrics.hits[1] >= 0.9,
           f"filtered Hits@1 {metrics.hits[1]:.3f} >= 0.9",
           started, budget=60.0)


def test_held_out_edges_of_synthetic_corpus_are_predicted():
    started = time.time()
    graph, _ = generate_synthetic_graph(GeneratorConfig())
    assert 4500 <= len(graph) <= 7000
    train_graph, test_graph = split_train_test(graph, 0.2, seed=7)
    # lr raised from the reference 1e-5 so 800 epochs converge at desk scale.
    # reg_lambda 1.5 keeps hub-entity norms bounded; the slow beta schedule
    # (quarter of the span) keeps corruptions of weight-1.0 structural edges
    # under hinge pressure to the end. Both knobs sit outside the pinned
    # k/eta/batch/margin/corruption/reg_p operating point, which is default.
    hp = Hyperparams(learning_rate=1e-4, epochs=800, seed=7,
                     reg_lambda=1.5, beta_decay_epochs=3200)
    model, _ = train(train_graph, hp)
    metrics = evaluate(model, test_graph, graph, protocol="filtered")
    _check("generalization on the 41-context corpus",
           metrics.hits[10] >= 0.45 and metrics.mrr >= 0.10,
           f"filtered Hits@10 {metrics.hits[10]:.3f} >= 0.45, MRR {metrics.mrr:.3f} >= 0.10 "
           f"({len(graph)} triples, 80/20 split)",
           started, budget=1800.0)


def test_weight_modulation_contract():
    started = time.time()
    # 1. modulated scores can never go negative
    raw = np.linspace(-40.0, 40.0, 2001)
    floor = min(float(modulated(raw, w, b, pos).min())
                for w in (0.0, 0.3, 1.0) for b in (0.0, 0.5, 1.0) for pos in (True, False))

    # 2. with beta pinned at 1 the first-epoch trajectory ignores weights
    graph = toy_graph(seed=5)
    reweighted = TripleGraph.from_triples(
        [WeightedTriple(t.source, t.relation, t.target, 0.7) for t in graph.triples])
    hp1 = Hyperparams(k=6, learning_rate=1e-2, epochs=1, seed=4)  # beta(0) = 1 exactly
    m_a, _ = train(graph, hp1)
    m_b, _ = train(reweighted, hp1)
    identical = all(np.array_equal(a, b) for a, b in zip(m_a.arrays(), m_b.arrays()))
    hp_flat = Hyperparams(k=6, learning_rate=1e-2, epochs=4, seed=4, focuse=False)
    m_c, _ = train(graph, hp_flat)
    m_d, _ = train(reweighted, hp_flat)
    identical = identical and all(
        np.array_equal(a, b) for a, b in zip(m_c.arrays(), m_d.arrays()))

    # 3. beta=0 with weight 0 silences the positive term completely
    model = random_model(6, 1, k=4, seed=8)
    batch = TrainingBatch(
        pos=np.array([[0, 0, 1]], dtype=np.int64),
        pos_weights=np.array([0.0]),
        neg=np.array([[2, 0, 1], [3, 0, 1]], dtype=np.int64),  # entity 0 only in the positive
        eta=2,
        beta=0.0,
    )
    from qakge.model import score_triples
    g_pos = modulated(score_triples(model, batch.pos), 0.0, 0.0, True)
    grads = dense_gradients(model, batch, Hyperparams(k=4, reg_lambda=0.0))
    silent = (float(np.abs(g_pos).max()) == 0.0
              and np.all(grads["ent_re"][0] == 0.0) and np.all(grads["ent_im"][0] == 0.0)
              and any(np.abs(arr).max() > 0.0 for arr in grads.values()))

    _check("score modulation contract",
           floor >= 0.0 and identical and silent,
           f"min modulated score {floor:.2e} >= 0; beta=1 runs bit-identical under "
           f"re-weighting; beta=0/w=0 positive contributes zero gradient",
           started, budget=10.0)


def test_plan_generation_outcovers_nearest_context_retrieval():
    started = time.time()
    scenario = build_radiation_scenario()
    query = scenario.input_context
    hp = Hyperparams(learning_rate=1e-4, epochs=300, seed=0)
    kge_plan, _ = generate_plan(scenario.graph, query, hp, tau=0.5, top_m=3)

    with_query = scenario.graph.extended(context_to_triples(query))
    embeddings = embed_graph(with_query, BaselineConfig(), seed=0)
    walk_plan = baseline_plan(with_query, embeddings, query, threshold=0.7)

    cmp = compare_plans(kge_plan, walk_plan, query)
    stored_names = {a.name for a in scenario.stored_context.attributes}
    ok = (len(cmp.coverage_a.covered) == 5
          and set(cmp.coverage_b.covered) == stored_names
          and cmp.coverage_a.total == 5 and cmp.coverage_b.total == 5)
    _check("predicted plan vs retrieval coverage", ok,
           f"trained planner covers {len(cmp.coverage_a.covered)}/5 attributes, "
           f"retrieval covers {sorted(cmp.coverage_b.covered)} (the 3 stored ones)",
           started, budget=600.0)


def test_duplicate_context_query_returns_stored_plan_verbatim():
    started = time.time()
    import dataclasses
    cfg = GeneratorConfig(n_contexts=6, seed=3, attrs_per_context=(3, 8))
    graph, plans = generate_synthetic_graph(cfg)
    target = plans[2]
    stored = triples_to_context(graph, target.context_id)
    twin = dataclasses.replace(stored, context_id="twin_" + stored.context_id)
    with_twin = graph.extended(context_to_triples(twin))
    small = BaselineConfig(walks_per_node=6, walk_length=50, d=32, window=4, epochs=3)
    embeddings = embed_graph(with_twin, small, seed=0)
    plan = baseline_plan(with_twin, embeddings, twin, threshold=0.7)
    ok = (set(plan.rule_edges) == set(target.rule_edges)
          and set(plan.dimension_edges) == set(target.dimension_edges))
    _check("self-retrieval of a duplicated context", ok,
           f"retrieved plan for {twin.context_id!r} equals the stored plan edge-for-edge "
           f"({len(plan.rule_edges)} rule edges, weights included)",
           started, budget=60.0)


def test_fixed_seeds_reproduce_artifacts_bit_for_bit(tmp_path):
    started = time.time()
    graph = toy_graph()
    hp = Hyperparams(k=8, learning_rate=1e-3, epochs=30, seed=6)

    model_a, _ = train(graph, hp)
    model_b, _ = train(graph, hp)
    save_checkpoint(model_a, tmp_path / "a.qkge")
    save_checkpoint(model_b, tmp_path / "b.qkge")
    same_ckpt = (tmp_path / "a.qkge").read_bytes() == (tmp_path / "b.qkge").read_bytes()

    reloaded = load_checkpoint(tmp_path / "a.qkge")
    ckpt_identity = (reloaded.vocab == model_a.vocab
                     and all(np.array_equal(x, y)
                             for x, y in zip(reloaded.arrays(), model_a.arrays())))

    synth, _ = generate_synthetic_graph(GeneratorConfig(n_contexts=4, seed=2))
    save_triples_csv(synth, tmp_path / "g.csv")
    csv_identity = load_triples_csv(tmp_path / "g.csv").triples == synth.triples

    scenario = build_radiation_scenario(n_background=6, seed=11)
    plan_hp = Hyperparams(k=8, learning_rate=1e-2, epochs=10, seed=5)
    plan_a, _ = generate_plan(scenario.graph, scenario.input_context, plan_hp)
    plan_b, _ = generate_plan(scenario.graph, scenario.input_context, plan_hp)

    ctx = scenario.stored_context
    roundtrip = triples_to_context(
        TripleGraph.from_triples(context_to_triples(ctx)), ctx.context_id) == ctx

    ok = same_ckpt and ckpt_identity and csv_identity and plan_a == plan_b and roundtrip
    _check("seeded reproducibility and round-trips", ok,
           "checkpoints byte-identical across reruns; checkpoint, CSV and context "
           "round-trips are identity; repeated plan generation yields equal plans",
           started, budget=60.0)


def test_rank_aggregation_matches_hand_computation():
    started = time.time()
    out = aggregate_ranks([1, 2, 4])
    ok = (abs(out["mrr"] - 7.0 / 12.0) <= 1e-12
          and abs(out["mr"] - 7.0 / 3.0) <= 1e-12
          and abs(out["hits"][1] - 1.0 / 3.0) <= 1e-12
          and abs(out["hits"][3] - 2.0 / 3.0) <= 1e-12
          and out["hits"][10] == 1.0)
    _check("rank aggregation arithmetic", ok,
           f"ranks [1,2,4] -> MRR {out['mrr']:.14f} (7/12 within 1e-12), "
           f"MR {out['mr']:.14f}, Hits@1/3/10 exact",
           started, budget=1.0)
