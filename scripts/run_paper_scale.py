#!/usr/bin/env python3
"""Train and score the link predictor on the 41-context synthetic corpus.

The default settings reproduce the slow reference protocol (lr 1e-5,
5000 epochs, roughly half an hour); --fast switches to the higher
learning rate that reaches comparable metrics in a few minutes.
"""
import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from qakge import (
    GeneratorConfig,
    Hyperparams,
    evaluate,
    generate_synthetic_graph,
    save_checkpoint,
    split_train_test,
    train,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--contexts", type=int, default=41)
    ap.add_argument("--seed", type=int, default=7, help="generator, split and training seed")
    ap.add_argument("--epochs", type=int, default=5000)
    ap.add_argument("--lr", type=float, default=1e-5)
    ap.add_argument("--fast", action="store_true",
                    help="lr 1e-4, 800 epochs, reg_lambda 1.5, slow beta decay")
    ap.add_argument("--test-fraction", type=float, default=0.2)
    ap.add_argument("--out-dir", type=Path, default=None, help="write checkpoint + metrics here")
    args = ap.parse_args()

    graph, _ = generate_synthetic_graph(GeneratorConfig(n_contexts=args.contexts, seed=args.seed))
    train_graph, test_graph = split_train_test(graph, args.test_fraction, seed=args.seed)
    print(f"graph: {len(graph)} triples, {len(graph.vocab.entities)} entities "
          f"-> train {len(train_graph)} / test {len(test_graph)}")

    hp = Hyperparams(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    if args.fast:
        hp = replace(hp, learning_rate=1e-4, epochs=800,
                     reg_lambda=1.5, beta_decay_epochs=3200)
    print(f"training: k={hp.k} lr={hp.learning_rate} epochs={hp.epochs} "
          f"eta={hp.eta} margin={hp.margin}")

    t0 = time.time()
    model, report = train(train_graph, hp)
    train_seconds = time.time() - t0
    print(f"trained in {train_seconds:.0f}s, final loss {report.losses[-1]:.4f}")

    metrics = evaluate(model, test_graph, graph, protocol="filtered", hp=hp)
    print(f"filtered: MRR {metrics.mrr:.3f}  MR {metrics.mr:.0f}  "
          + "  ".join(f"Hits@{n} {v:.3f}" for n, v in sorted(metrics.hits.items())))

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, args.out_dir / "model.qkge")
        payload = metrics.to_dict() | {"train_seconds": round(train_seconds, 1)}
        (args.out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out_dir}/model.qkge and metrics.json")


if __name__ == "__main__":
    main()
