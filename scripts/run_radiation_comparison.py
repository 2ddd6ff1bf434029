#!/usr/bin/env python3
"""Head-to-head plan generation on the radiation monitoring scenario.

A stored radiation context carries a 3-attribute plan. An incoming
5-attribute field-survey context is planned twice: by the trained link
predictor (covers every attribute) and by walk-based nearest-context
retrieval (can only replay the stored 3-attribute plan).
"""
import argparse
import time

from qakge import (
    BaselineConfig,
    Hyperparams,
    baseline_plan,
    build_radiation_scenario,
    compare_plans,
    comparison_report,
    context_to_triples,
    embed_graph,
    generate_plan,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--lr", type=float, default=1e-4)
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--top-m", type=int, default=3)
    ap.add_argument("--threshold", type=float, default=0.7, help="retrieval cosine cutoff")
    args = ap.parse_args()

    scenario = build_radiation_scenario()
    query = scenario.input_context
    print(f"corpus: {len(scenario.graph)} triples; query context "
          f"{query.context_id!r} with {len(query.attributes)} attributes")

    hp = Hyperparams(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    t0 = time.time()
    kge_plan, prov = generate_plan(scenario.graph, query, hp, tau=args.tau, top_m=args.top_m)
    print(f"link predictor: {len(kge_plan.rule_edges)} rule edges in {time.time() - t0:.0f}s")

    t0 = time.time()
    with_query = scenario.graph.extended(context_to_triples(query))
    embeddings = embed_graph(with_query, BaselineConfig(), seed=args.seed)
    walk_plan = baseline_plan(with_query, embeddings, query, threshold=args.threshold)
    print(f"walk retrieval: {len(walk_plan.rule_edges)} rule edges in {time.time() - t0:.0f}s")

    cmp = compare_plans(kge_plan, walk_plan, query)
    print()
    print(comparison_report(cmp, "link predictor", "walk retrieval"))


if __name__ == "__main__":
    main()
