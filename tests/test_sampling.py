import logging

import numpy as np
import pytest

from qakge.errors import InputError
from qakge.sampling import sample_corruptions

from .helpers import small_vocab


def _positives(rng, n, n_entities=8, n_relations=3):
    return np.stack([
        rng.integers(0, n_entities, n),
        rng.integers(0, n_relations, n),
        rng.integers(0, n_entities, n),
    ], axis=1).astype(np.int64)


def test_shapes_and_grouping():
    rng = np.random.default_rng(0)
    vocab = small_vocab(8, 3)
    batch = _positives(rng, 5)
    eta = 4
    neg = sample_corruptions(batch, eta, vocab, rng)
    assert neg.shape == (20, 3)
    for i in range(5):
        group = neg[i * eta : (i + 1) * eta]
        for row in group:
            # exactly one side changed, relation untouched
            assert row[1] == batch[i, 1]
            changed_s = row[0] != batch[i, 0]
            changed_o = row[2] != batch[i, 2]
            assert changed_s != changed_o  # xor: one side only
            # no corruption reproduces its own positive
            assert not np.array_equal(row, batch[i])


def test_determinism():
    vocab = small_vocab(8, 3)
    batch = _positives(np.random.default_rng(2), 6)
    a = sample_corruptions(batch, 3, vocab, np.random.default_rng(7))
    b = sample_corruptions(batch, 3, vocab, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_tiny_pool_rejected():
    vocab = small_vocab(1, 1)
    batch = np.array([[0, 0, 0]], dtype=np.int64)
    with pytest.raises(InputError):
        sample_corruptions(batch, 2, vocab, np.random.default_rng(0))


def test_invalid_args():
    vocab = small_vocab(5, 2)
    batch = np.array([[0, 0, 1]], dtype=np.int64)
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        sample_corruptions(batch, 0, vocab, rng)


def test_resolvable_collisions_resolve_silently(caplog):
    # real generator, tiny pool: collisions happen but always resolve
    vocab = small_vocab(2, 1)
    batch = np.array([[0, 0, 1]], dtype=np.int64)
    with caplog.at_level(logging.WARNING):
        neg = sample_corruptions(batch, 50, vocab, np.random.default_rng(3))
    for row in neg:
        assert not np.array_equal(row, batch[0])
    assert not caplog.records
