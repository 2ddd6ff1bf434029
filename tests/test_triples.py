import itertools

import pytest

from qakge.errors import CsvFormatError, InputError
from qakge.triples import (
    TripleGraph,
    Vocabulary,
    WeightedTriple,
    load_triples_csv,
    save_triples_csv,
    split_train_test,
)

from .helpers import toy_graph


def test_triple_validation():
    with pytest.raises(InputError):
        WeightedTriple("", "r", "b", 0.5)
    with pytest.raises(InputError):
        WeightedTriple("a", "r", "", 0.5)
    with pytest.raises(InputError):
        WeightedTriple("a", "", "b", 0.5)
    with pytest.raises(InputError):
        WeightedTriple("a", "r", "b", 1.5)
    with pytest.raises(InputError):
        WeightedTriple("a", "r", "b", -0.1)
    t = WeightedTriple("a", "r", "b", 1.0)
    assert t.key == ("a", "r", "b")


def test_vocabulary_sorted_and_indexed():
    v = Vocabulary.from_names(["zebra", "ant", "moose"], ["rel_b", "rel_a"])
    assert v.entities == ("ant", "moose", "zebra")
    assert v.relations == ("rel_a", "rel_b")
    assert v.entity_index["moose"] == 1
    assert v.relation_index["rel_b"] == 1


def test_vocabulary_fingerprint_changes_with_content():
    a = Vocabulary.from_names(["x", "y"], ["r"])
    b = Vocabulary.from_names(["x", "y"], ["r"])
    c = Vocabulary.from_names(["x", "y", "z"], ["r"])
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a == b and a != c


def test_graph_dedup_keeps_first_position_last_weight():
    g = TripleGraph.from_triples([
        WeightedTriple("a", "r", "b", 0.2),
        WeightedTriple("c", "r", "d", 0.9),
        WeightedTriple("a", "r", "b", 0.7),
    ])
    assert len(g) == 2
    assert g.triples[0].key == ("a", "r", "b")
    assert g.triples[0].weight == 0.7
    assert {t.key: t.weight for t in g}[("c", "r", "d")] == 0.9


def test_index_arrays_foreign_vocab_rejected(graph50):
    other = Vocabulary.from_names(["only", "these"], ["r"])
    with pytest.raises(InputError):
        graph50.index_arrays(other)


def test_csv_round_trip_identity(tmp_path, graph50):
    path = tmp_path / "g.csv"
    save_triples_csv(graph50, path)
    back = load_triples_csv(path)
    assert back.keys() == graph50.keys()
    weights = {t.key: t.weight for t in back}
    for t in graph50:
        assert weights[t.key] == t.weight
    # a second save is byte-identical
    path2 = tmp_path / "g2.csv"
    save_triples_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_missing_weight_defaults_to_one(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("source,relation,target,weight\na,r,b,\nc,r,d,0.25\n")
    weights = {t.key: t.weight for t in load_triples_csv(p)}
    assert weights[("a", "r", "b")] == 1.0
    assert weights[("c", "r", "d")] == 0.25


def test_csv_percent_mode(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("source,relation,target,weight\na,r,b,85\nc,r,d,\n")
    weights = {t.key: t.weight for t in load_triples_csv(p, percent=True)}
    assert weights[("a", "r", "b")] == pytest.approx(0.85)
    assert weights[("c", "r", "d")] == 1.0  # absent weight is not scaled


def test_csv_reads_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    p = tmp_path / "g.csv"
    p.write_bytes(b"\xef\xbb\xbfsource,relation,target,weight\na,r,b,0.5\n")
    assert [(t.key, t.weight) for t in load_triples_csv(p)] == [(("a", "r", "b"), 0.5)]


@pytest.mark.parametrize("weight", ["5_0", "1_00", "0.2_5"])
def test_csv_weight_with_a_digit_separator_is_not_a_number(tmp_path, weight):
    # float("5_0") is 50.0, which --percent would read as 0.5
    p = tmp_path / "g.csv"
    p.write_text(f"source,relation,target,weight\na,r,b,{weight}\n")
    with pytest.raises(CsvFormatError, match=r"g\.csv:2: weight not a number"):
        load_triples_csv(p, percent=True)


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("s,p,o,w\na,r,b,0.5\n")
    with pytest.raises(CsvFormatError, match="header"):
        load_triples_csv(bad_header)

    bad_arity = tmp_path / "a.csv"
    bad_arity.write_text("source,relation,target,weight\na,r,b,0.5\na,r\n")
    with pytest.raises(CsvFormatError, match=r"a\.csv:3"):
        load_triples_csv(bad_arity)

    bad_weight = tmp_path / "w.csv"
    bad_weight.write_text("source,relation,target,weight\na,r,b,1.7\n")
    with pytest.raises(CsvFormatError, match=r"w\.csv:2"):
        load_triples_csv(bad_weight)

    with pytest.raises(InputError):
        load_triples_csv(tmp_path / "missing.csv")


def _dense_graph(n_triples: int, n_entities: int = 80) -> TripleGraph:
    """First n_triples of the ordered-pair enumeration; every entity is common."""
    entities = [f"n{i:03d}" for i in range(n_entities)]
    pairs = itertools.permutations(entities, 2)
    triples = [WeightedTriple(s, "linked", o, 1.0)
               for s, o in itertools.islice(pairs, n_triples)]
    return TripleGraph.from_triples(triples)


def test_csv_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"source,relation,target,weight\ncaf\xe9,r,b,1\n")
    with pytest.raises(CsvFormatError, match=r"latin\.csv: not UTF-8"):
        load_triples_csv(p)


def test_split_floor_arithmetic_on_large_graph():
    g = _dense_graph(5877)
    train, test = split_train_test(g, 0.2, seed=0)
    # floor(5877 * 0.2) = 1175 drawn; with 80 well-connected entities the
    # repair pass has nothing to move for this seed
    assert len(test) == 1175
    assert len(train) == 5877 - 1175
    assert train.keys() | test.keys() == g.keys()
    assert not (train.keys() & test.keys())


def test_split_repair_returns_rare_symbols_to_train():
    g = toy_graph(n_entities=6, n_relations=2, n_triples=20, seed=5)
    rare = WeightedTriple("only_here", "rare_rel", "e00", 1.0)
    g2 = g.extended([rare])
    for seed in range(20):
        train, test = split_train_test(g2, 0.4, seed)
        # a symbol that appears exactly once can never be tested
        assert rare.key in train.keys()
        assert train.keys() | test.keys() == g2.keys()
        # every test symbol is trainable
        train_entities = {n for t in train for n in (t.source, t.target)}
        train_relations = {t.relation for t in train}
        for t in test:
            assert t.source in train_entities and t.target in train_entities
            assert t.relation in train_relations


def test_split_determinism_and_bounds(graph50):
    a = split_train_test(graph50, 0.2, seed=3)
    b = split_train_test(graph50, 0.2, seed=3)
    assert a[1].keys() == b[1].keys()
    assert len(a[1]) <= int(50 * 0.2)  # repair only shrinks the test side
    with pytest.raises(InputError):
        split_train_test(graph50, 0.0, seed=1)
    with pytest.raises(InputError):
        split_train_test(graph50, 1.0, seed=1)
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        split_train_test(graph50, 0.2, seed=-1)
    with pytest.raises(InputError, match=r"test_fraction must be in \(0, 1\), got '0.2'"):
        split_train_test(graph50, "0.2", seed=0)
    for seed in (True, 1.5):
        with pytest.raises(InputError, match=f"seed must be an integer, got {seed}"):
            split_train_test(graph50, 0.2, seed=seed)


def test_split_rejects_tiny_graphs():
    g = TripleGraph.from_triples([WeightedTriple("a", "r", "b", 1.0)])
    with pytest.raises(InputError):
        split_train_test(g, 0.5, seed=0)
