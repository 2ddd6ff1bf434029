"""Weighted triple graphs: CSV ingestion, vocabulary, train/test splitting.

A graph is an ordered collection of ``(source, relation, target, weight)``
facts with weights in [0, 1]. Identity of a fact is the name triple alone;
re-ingesting a key keeps its first position but takes the last weight seen.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CsvFormatError, InputError, check_integer, is_number, parse_number

logger = logging.getLogger(__name__)

CSV_HEADER = ("source", "relation", "target", "weight")

# splits below this size are statistically meaningless and break corruption sampling
MIN_SPLIT_TRIPLES = 5


@dataclass(frozen=True, slots=True)
class WeightedTriple:
    """One weighted fact. Weight defaults to 1.0 (a structural, certain edge)."""

    source: str
    relation: str
    target: str
    weight: float = 1.0

    def __post_init__(self):
        if not self.source or not self.relation or not self.target:
            raise InputError(
                f"triple fields must be non-empty: "
                f"({self.source!r}, {self.relation!r}, {self.target!r})"
            )
        if not (0.0 <= self.weight <= 1.0) or math.isnan(self.weight):
            raise InputError(
                f"weight {self.weight} outside [0, 1] for "
                f"({self.source}, {self.relation}, {self.target})"
            )

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.source, self.relation, self.target)


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Bijection between symbol names and contiguous integer ids.

    Entities and relations live in separate id spaces, each ordered
    lexicographically so that construction is deterministic.
    """

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    entity_index: dict[str, int] = field(repr=False)
    relation_index: dict[str, int] = field(repr=False)

    @classmethod
    def from_names(cls, entities: Iterable[str], relations: Iterable[str]) -> "Vocabulary":
        ents = tuple(sorted(set(entities)))
        rels = tuple(sorted(set(relations)))
        return cls(
            entities=ents,
            relations=rels,
            entity_index={name: i for i, name in enumerate(ents)},
            relation_index={name: i for i, name in enumerate(rels)},
        )

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def fingerprint(self) -> str:
        """Stable 128-bit hex digest of the full symbol table."""
        h = blake2b(digest_size=16)
        for name in self.entities:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        h.update(b"\x01")
        for name in self.relations:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.entities == other.entities and self.relations == other.relations


@dataclass(frozen=True, eq=False)
class TripleGraph:
    """Immutable weighted graph plus its vocabulary.

    ``triples`` preserves first-ingestion order; duplicate keys were collapsed
    to the last weight at construction time.
    """

    triples: tuple[WeightedTriple, ...]
    vocab: Vocabulary
    _by_key: dict[tuple[str, str, str], WeightedTriple] = field(repr=False)

    @classmethod
    def from_triples(cls, triples: Iterable[WeightedTriple]) -> "TripleGraph":
        merged: dict[tuple[str, str, str], WeightedTriple] = {}
        for t in triples:
            merged[t.key] = t  # dict keeps first position, last value
        seq = tuple(merged.values())
        vocab = Vocabulary.from_names(
            {t.source for t in seq} | {t.target for t in seq}, {t.relation for t in seq})
        return cls(triples=seq, vocab=vocab, _by_key=merged)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[WeightedTriple]:
        return iter(self.triples)

    def keys(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self._by_key)

    def extended(self, extra: Iterable[WeightedTriple]) -> "TripleGraph":
        """New graph with ``extra`` ingested after the current triples."""
        return TripleGraph.from_triples(self.triples + tuple(extra))

    def index_arrays(self, vocab: Vocabulary | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Triples as an (N, 3) int64 id array plus (N,) float64 weights.

        A foreign ``vocab`` may be passed to express this graph in another
        model's id space; unknown symbols raise :class:`InputError`.
        """
        voc = vocab if vocab is not None else self.vocab
        try:
            idx = np.array(
                [
                    (voc.entity_index[t.source], voc.relation_index[t.relation], voc.entity_index[t.target])
                    for t in self.triples
                ],
                dtype=np.int64,
            ).reshape(len(self.triples), 3)
        except KeyError as exc:
            raise InputError(f"symbol not in vocabulary: {exc.args[0]!r}") from exc
        w = np.array([t.weight for t in self.triples], dtype=np.float64)
        return idx, w


def load_triples_csv(path: str | Path, *, percent: bool = False) -> TripleGraph:
    """Read a ``source,relation,target,weight`` CSV into a graph.

    Empty weight cells default to 1.0. With ``percent=True`` non-empty
    weights are divided by 100 before the [0, 1] range check, so plan edges
    exported as percentages ingest cleanly.
    """
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    rows: list[WeightedTriple] = []
    try:
        with open(p, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_HEADER:
                raise CsvFormatError(
                    f"{p}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue  # tolerate stray blank lines
                if len(row) != 4:
                    raise CsvFormatError(f"{p}:{lineno}: expected 4 columns, got {len(row)}")
                source, relation, target, raw_w = row
                if raw_w.strip() == "":
                    weight = 1.0
                else:
                    try:
                        weight = parse_number(raw_w)
                    except ValueError:
                        raise CsvFormatError(f"{p}:{lineno}: weight not a number: {raw_w!r}") from None
                    if percent:
                        weight /= 100.0
                try:
                    rows.append(WeightedTriple(source, relation, target, weight))
                except InputError as exc:
                    raise CsvFormatError(f"{p}:{lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise CsvFormatError(f"{p}: not UTF-8 text") from None
    return TripleGraph.from_triples(rows)


def save_triples_csv(graph: TripleGraph, path: str | Path) -> None:
    """Write the graph in ingestion order; weights keep full float precision."""
    p = Path(path)
    try:
        with open(p, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            for t in graph.triples:
                writer.writerow([t.source, t.relation, t.target, repr(t.weight)])
    except OSError as exc:
        raise InputError(f"cannot write {p}: {exc}") from exc


def split_train_test(
    graph: TripleGraph, test_fraction: float, seed: int
) -> tuple[TripleGraph, TripleGraph]:
    """Deterministic split with unseen-symbol repair.

    Initially ``floor(N * test_fraction)`` triples are drawn into the test
    side by a seeded shuffle. Any test triple mentioning an entity or
    relation absent from the train side is then moved back to train, in draw
    order, so every test symbol is trainable. The returned graphs partition
    the input: disjoint keys, union equal to the original.
    """
    if not (is_number(test_fraction) and 0 < test_fraction < 1):
        raise InputError(f"test_fraction must be in (0, 1), got {test_fraction!r}")
    check_integer("seed", seed, 0)
    n = len(graph)
    if n < MIN_SPLIT_TRIPLES:
        raise InputError(f"graph too small to split: {n} < {MIN_SPLIT_TRIPLES} triples")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(math.floor(n * test_fraction))
    test_draw = [int(i) for i in perm[:n_test]]
    in_test = set(test_draw)

    train_entities: set[str] = set()
    train_relations: set[str] = set()
    for i, t in enumerate(graph.triples):
        if i not in in_test:
            train_entities.add(t.source)
            train_entities.add(t.target)
            train_relations.add(t.relation)

    moved = 0
    for i in test_draw:  # draw order keeps the repair deterministic
        t = graph.triples[i]
        if (
            t.source not in train_entities
            or t.target not in train_entities
            or t.relation not in train_relations
        ):
            in_test.discard(i)
            train_entities.add(t.source)
            train_entities.add(t.target)
            train_relations.add(t.relation)
            moved += 1
    if moved:
        logger.info("split repair moved %d test triples back to train", moved)

    train = TripleGraph.from_triples(t for i, t in enumerate(graph.triples) if i not in in_test)
    test = TripleGraph.from_triples(t for i, t in enumerate(graph.triples) if i in in_test)
    return train, test
