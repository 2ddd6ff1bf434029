import numpy as np
import pytest

from qakge.errors import InputError
from qakge.model import (
    ModelParams,
    complex_score,
    init_model,
    score_all_objects,
    score_all_subjects,
    score_triples,
)

from qakge.checkpoint import load_checkpoint, save_checkpoint
from qakge.training import Hyperparams, train
from qakge.triples import Vocabulary

from .helpers import random_model, score_py, small_vocab, toy_graph


def test_init_shapes_bounds_determinism():
    vocab = small_vocab(10, 4)
    k = 9
    m = init_model(vocab, k, seed=5)
    assert m.ent_re.shape == (10, 9) and m.rel_im.shape == (4, 9)
    bound = np.sqrt(3.0 / k)  # sqrt(6 / (2k))
    for arr in m.arrays():
        assert np.all(np.abs(arr) <= bound)
        assert arr.dtype == np.float64
    m2 = init_model(vocab, k, seed=5)
    for a, b in zip(m.arrays(), m2.arrays()):
        assert np.array_equal(a, b)
    m3 = init_model(vocab, k, seed=6)
    assert not np.array_equal(m.ent_re, m3.ent_re)
    with pytest.raises(InputError):
        init_model(vocab, 0, seed=0)


def test_params_shape_validation():
    vocab = small_vocab(3, 2)
    good = init_model(vocab, 4, 0)
    with pytest.raises(InputError, match="shape"):
        ModelParams(good.block[:4], vocab)
    with pytest.raises(InputError, match="complex128"):
        ModelParams(good.block.real.copy(), vocab)
    with pytest.raises(InputError, match="complex128"):
        ModelParams(good.block[:, ::2], vocab)  # strided, no float view


def test_entity_and_relation_rows_are_views_of_one_block(tmp_path):
    graph = toy_graph()
    sub = Vocabulary.from_names(graph.vocab.entities[2:], graph.vocab.relations[1:])
    base = init_model(sub, 4, seed=1)
    save_checkpoint(base, tmp_path / "base.qkge")
    folded, _ = train(graph, Hyperparams(k=4, epochs=1, seed=2), base=base)
    for model in (base, load_checkpoint(tmp_path / "base.qkge"), folded):
        n, m = model.vocab.n_entities, model.vocab.n_relations
        assert model.block.dtype == np.complex128 and model.block.shape == (n + m, 4)
        assert model.block.flags.c_contiguous
        assert model.ent.flags.c_contiguous and model.rel.flags.c_contiguous
        model.ent_re[n - 1, 0] = 7.0
        model.rel_im[0, 3] = -3.0
        assert model.block[n - 1, 0] == model.ent[n - 1, 0] == 7.0 + 1j * model.ent_im[n - 1, 0]
        assert model.block[n, 3] == model.rel[0, 3] == model.rel_re[0, 3] - 3.0j


def test_score_matches_python_complex_arithmetic(model8):
    for s, p, o in [(0, 0, 1), (3, 2, 7), (5, 1, 5)]:
        assert complex_score(model8, (s, p, o)) == pytest.approx(
            score_py(model8, s, p, o), rel=1e-12
        )


def test_score_hand_computed_single_component():
    vocab = small_vocab(2, 1)
    m = init_model(vocab, 1, 0)
    m.ent_re[0, 0], m.ent_im[0, 0] = 2.0, 3.0     # e_s = 2 + 3i
    m.rel_re[0, 0], m.rel_im[0, 0] = 0.5, -1.0    # w_p = 0.5 - i
    m.ent_re[1, 0], m.ent_im[1, 0] = -1.0, 4.0    # e_o = -1 + 4i
    # (2+3i)(0.5-i) = 4 - 0.5i; (4-0.5i) * conj(-1+4i) = -6 - 15.5i; Re = -6
    assert complex_score(m, (0, 0, 1)) == pytest.approx(-6.0, abs=1e-12)


def test_score_asymmetric_in_general(model8):
    # complex relation embeddings make direction matter
    assert complex_score(model8, (0, 0, 1)) != pytest.approx(
        complex_score(model8, (1, 0, 0)), abs=1e-9
    )


def test_symmetric_when_relation_imaginary_zero():
    m = random_model(6, 2, k=5, seed=2)
    m.rel_im[0][:] = 0.0  # purely real relation scores symmetrically
    assert complex_score(m, (2, 0, 4)) == pytest.approx(
        complex_score(m, (4, 0, 2)), rel=1e-12
    )


def test_vectorized_scoring_agrees_with_scalar(model8):
    rng = np.random.default_rng(0)
    idx = np.stack([rng.integers(0, 8, 30), rng.integers(0, 3, 30),
                    rng.integers(0, 8, 30)], axis=1)
    vec = score_triples(model8, idx)
    for row, expected in zip(idx, vec):
        assert complex_score(model8, tuple(row)) == pytest.approx(expected, rel=1e-12)


def test_score_all_sides_agree_with_loops(model8):
    n = model8.vocab.n_entities
    objs = score_all_objects(model8, 2, 1)
    subs = score_all_subjects(model8, 1, 3)
    for e in range(n):
        assert objs[e] == pytest.approx(score_py(model8, 2, 1, e), rel=1e-12)
        assert subs[e] == pytest.approx(score_py(model8, e, 1, 3), rel=1e-12)


def test_score_index_bounds(model8):
    with pytest.raises(InputError):
        complex_score(model8, (99, 0, 0))
    with pytest.raises(InputError):
        complex_score(model8, (0, 99, 0))
