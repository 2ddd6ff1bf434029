import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qakge.errors import InputError
from qakge.model import init_model
from qakge.objective import (
    Arena,
    Gradients,
    TrainingBatch,
    block_slots,
    hinge_part,
    int_power,
    regularizer_part,
    scatter_rows,
    sigmoid,
    softplus,
)
from qakge.training import Hyperparams, loss_and_grad

from .helpers import arena_for, modulated, random_batch, small_vocab


def _zero_model(n_entities: int, k: int):
    model = init_model(small_vocab(n_entities, 1), k, seed=0)
    for arr in model.arrays():
        arr[:] = 0.0
    return model


def _softplus_inverse(g: float) -> float:
    """Raw score whose softplus is g; 0 maps to -1000, whose softplus is exactly 0."""
    return math.log(math.expm1(g)) if g > 0.0 else -1000.0


def _hinge(g_pos, g_neg, margin: float) -> float:
    """hinge_part at beta=1 over positives and grouped corruptions whose
    modulated scores are g_pos and g_neg.

    In the hand-set k=1 model entity 0 and relation 0 are 1 and every other
    component is 0, so triple (0, 0, j) scores entity j's value, which holds
    the raw score of one modulated score. Equal g give bit-equal scores.
    """
    g = [*g_pos, *g_neg]
    model = _zero_model(len(g) + 1, 1)
    model.ent_re[0, 0] = model.rel_re[0, 0] = 1.0
    model.ent_re[1:, 0] = [_softplus_inverse(x) for x in g]
    triples = np.array([[0, 0, j] for j in range(1, len(g) + 1)], dtype=np.int64)
    b = len(g_pos)
    batch = TrainingBatch(triples[:b], np.ones(b), triples[b:], len(g_neg) // b, 1.0)
    return hinge_part(model, batch, margin, block_slots(batch, model.vocab), arena_for(model, batch))


def _penalty(row, p: int, lam: float) -> float:
    """regularizer_part with entity row 0 and relation row 0 (block row 2)
    touched; the four matrices hold ``row`` = (ent_re, ent_im, rel_re,
    rel_im) there, and the untouched entity row 1 holds 100 everywhere."""
    k = len(row[0])
    model = _zero_model(2, k)
    for arr, values in zip(model.arrays(), row):
        arr[0] = values
    model.ent_re[1] = model.ent_im[1] = 100.0
    return regularizer_part(model, np.array([0]), np.array([2]), p, lam, arena_for(model))


def test_softplus_values_and_stability():
    assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert softplus(1.0) == pytest.approx(math.log(1.0 + math.e), rel=1e-12)
    assert softplus(1000.0) == pytest.approx(1000.0, rel=1e-12)  # no overflow
    assert softplus(-1000.0) == 0.0  # underflows to exactly zero, fine
    assert np.isfinite(softplus(np.array([-1e8, 0.0, 1e8]))).all()


def test_sigmoid_stability():
    assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sigmoid(1000.0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_is_the_two_branch_formula_bit_for_bit():
    # one division of where(x >= 0, 1, z) by 1 + z divides the operands of
    # the two-branch form, so every bit agrees, subnormal and zero results too
    x = np.array([sign * v for v in (0.0, 1e-300, 1.0, 745.0, 1000.0) for sign in (1.0, -1.0)])
    z = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    got = sigmoid(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_modulation_worked_examples():
    # full structural influence: weights invisible, g = softplus(f)
    assert modulated(0.0, 0.3, 1.0, True) == pytest.approx(math.log(2.0), abs=1e-15)
    assert modulated(0.0, 0.9, 1.0, False) == pytest.approx(math.log(2.0), abs=1e-15)
    # fully annealed, zero-weight positive contributes exactly nothing
    assert modulated(5.0, 0.0, 0.0, True) == 0.0
    # ... while its corruptions keep full influence
    assert modulated(5.0, 0.0, 0.0, False) == pytest.approx(softplus(5.0), rel=1e-12)
    # mixed: alpha = 0.9 + 0.1 * 0 = 0.9 for a zero-weight positive
    assert modulated(1.0, 0.0, 0.9, True) == pytest.approx(
        0.9 * math.log(1.0 + math.e), rel=1e-12
    )


def test_modulation_validates_domains():
    pos = np.array([[0, 0, 1]], dtype=np.int64)
    with pytest.raises(InputError, match="weights"):
        TrainingBatch(np.repeat(pos, 2, axis=0), np.array([0.5, 1.5]), np.repeat(pos, 2, axis=0), 1, 0.5)
    with pytest.raises(InputError, match="weights"):
        TrainingBatch(pos, np.array([-0.1]), pos, 1, 0.5)
    with pytest.raises(InputError, match="beta"):
        TrainingBatch(pos, np.array([0.5]), pos, 1, -0.1)


@given(
    raw=st.floats(-50, 50),
    w=st.floats(0, 1),
    beta=st.floats(0, 1),
    positive=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_modulated_scores_never_negative(raw, w, beta, positive):
    assert modulated(raw, w, beta, positive) >= 0.0


@given(
    raw=st.floats(-20, 20),
    beta=st.floats(0, 1, exclude_max=True),
    w_low=st.floats(0, 1),
    w_high=st.floats(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_modulation_monotone_in_weight(raw, beta, w_low, w_high):
    lo, hi = sorted((w_low, w_high))
    # heavier positives score at least as high, heavier negatives at most
    assert modulated(raw, hi, beta, True) >= modulated(raw, lo, beta, True)
    assert modulated(raw, hi, beta, False) <= modulated(raw, lo, beta, False)


def test_pairwise_hinge_worked_example():
    # violations: max(0, 0.5 + 0.8 - 1.0) = 0.3 and max(0, 0.5 + 0.9 - 0.5) = 0.9
    assert _hinge([1.0, 0.5], [0.8, 0.9], 0.5) == pytest.approx(1.2, abs=1e-12)
    # satisfied pairs contribute zero
    assert _hinge([5.0], [1.0], 0.5) == 0.0
    # the exact kink counts as satisfied
    assert _hinge([1.5], [1.5], 0.0) == 0.0


def test_pairwise_hinge_grouping():
    # eta=2: negatives [n11, n12, n21, n22] pair with positives [p1, p1, p2, p2]
    # margin 0.0: violations 0.0, 0.0, 0.5, 0.0
    assert _hinge([1.0, 2.0], [1.0, 0.0, 2.5, 0.0], 0.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InputError):
        _hinge([1.0, 2.0], [1.0, 2.0, 3.0], 0.5)


def test_regularizer_part_worked_examples():
    assert _penalty(([2.0], [0.0], [0.0], [0.0]), 4, 1.0) == pytest.approx(16.0, abs=1e-12)
    assert _penalty(([1.0], [0.0], [0.0], [-1.0]), 4, 1e-4) == pytest.approx(2e-4, abs=1e-18)
    assert _penalty(([3.0, -4.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]), 2, 0.5) == pytest.approx(
        12.5, abs=1e-12)
    assert _penalty(([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]), 4, 1.0) == 0.0


def test_regularizer_part_low_powers_at_zero_and_negative_values():
    # entity row 0 is (-2, 0) + i (0.5, -1), relation row 0 is zero; lam = 0.5
    lam = 0.5
    row = ([-2.0, 0.0], [0.5, -1.0], [0.0, 0.0], [0.0, 0.0])
    expected = {  # p: (loss, d/d ent_re, d/d ent_im), d = lam * p * |x|^(p-1) * sign(x)
        1: (lam * 3.5, [-0.5, 0.0], [0.5, -0.5]),
        2: (lam * 5.25, [-2.0, 0.0], [0.5, -1.0]),
        3: (lam * 9.125, [-6.0, 0.0], [0.375, -1.5]),
    }
    for p, (loss, d_re, d_im) in expected.items():
        assert _penalty(row, p, lam) == loss, p
        model = _zero_model(2, 2)
        for arr, values in zip(model.arrays(), row):
            arr[0] = values
        # the corruption is the positive, so at margin 0 the hinge is slack
        # and the step's gradient is the penalty's alone
        pos = np.array([[0, 0, 0]], dtype=np.int64)
        batch = TrainingBatch(pos, np.ones(1), pos, 1, 1.0)
        arena = arena_for(model)
        grads = Gradients.for_batch(batch, model)
        assert hinge_part(model, batch, 0.0, grads.slots, arena, grads) == 0.0
        assert regularizer_part(model, np.array([0]), np.array([2]), p, lam, arena, grads) == loss, p
        assert grads.values[:1].real.tolist() == [d_re], p
        assert grads.values[:1].imag.tolist() == [d_im], p
        assert (grads.values[1:] == 0.0).all(), p


def test_int_power_worked_examples():
    a = np.array([0.0, 1.0, -1.5, 3.0])
    assert int_power(a, 0).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert int_power(a, 1).tolist() == a.tolist() and int_power(a, 1) is not a
    assert int_power(a, 3).tolist() == [0.0, 1.0, -3.375, 27.0]
    assert int_power(a, 4).tolist() == [0.0, 1.0, 5.0625, 81.0]
    assert int_power(a, 7).tolist() == [0.0, 1.0, -17.0859375, 2187.0]


@given(st.floats(-30, 30), st.floats(-30, 30), st.floats(0, 5))
@settings(max_examples=100, deadline=None)
def test_pairwise_hinge_nonnegative(p, n, margin):
    assert _hinge([float(softplus(p))], [float(softplus(n))], margin) >= 0.0


def test_training_batch_validation():
    pos = np.array([[0, 0, 1]], dtype=np.int64)
    with pytest.raises(InputError):  # neg rows must be pos rows * eta
        TrainingBatch(pos, np.array([0.5]), np.zeros((3, 3), dtype=np.int64), 2, 0.5)
    with pytest.raises(InputError):  # weight shape mismatch
        TrainingBatch(pos, np.array([0.5, 0.5]), np.zeros((2, 3), dtype=np.int64), 2, 0.5)
    b = TrainingBatch(pos, np.array([0.5]), np.array([[0, 0, 2], [3, 0, 1]], dtype=np.int64), 2, 0.5)
    model = init_model(small_vocab(4, 1), 2, seed=0)
    grads = Gradients.for_batch(b, model)
    assert grads.slots.tolist() == [0, 0, 3, 4, 4, 4, 1, 2, 1]  # subjects, relations, objects
    assert grads.rows.tolist() == [0, 1, 2, 3, 4] and grads.n_ent == 4  # relation 0 is block row 4
    assert grads.at.tolist() == grads.slots.tolist() and grads.trained is None
    assert grads.values is None


def test_out_of_range_ids_raise_index_error(model8):
    # 8 entities and 3 relations: entity 8 would be the first relation's
    # block row, relation 3 one past the block
    good_pos, good_neg = [[0, 0, 1]], [[2, 0, 1]]
    cases = [(bad, good_neg) for bad in ([[0, 0, 8]], [[-1, 0, 1]], [[0, 3, 1]], [[0, -1, 1]])]
    cases += [(good_pos, bad) for bad in ([[8, 0, 1]], [[2, 0, -1]], [[2, 3, 1]])]
    for pos, neg in cases:
        batch = TrainingBatch(np.array(pos), np.ones(1), np.array(neg), 1, 0.5)
        arena = arena_for(model8, batch)
        with pytest.raises(IndexError):
            Gradients.for_batch(batch, model8)
        for lam in (1e-3, 0.0):  # the loss alone, with and without the penalty
            with pytest.raises(IndexError):
                loss_and_grad(model8, batch, Hyperparams(k=4, reg_lambda=lam), arena)


def test_loss_and_grad_is_finite_and_deterministic(model8):
    rng = np.random.default_rng(5)
    batch = random_batch(8, 3, rng)
    hp = Hyperparams(k=4, reg_lambda=1e-3)
    arena = arena_for(model8, batch)
    a = loss_and_grad(model8, batch, hp, arena)
    b = loss_and_grad(model8, batch, hp, arena)
    assert a == b
    assert np.isfinite(a) and a >= 0.0


def test_loss_is_the_same_with_and_without_gradients(model8):
    rng = np.random.default_rng(6)
    for beta in (0.0, 0.3, 1.0):
        batch = random_batch(8, 3, rng, beta=beta)
        arena = arena_for(model8, batch)
        for hp in (Hyperparams(k=4, reg_lambda=1e-3), Hyperparams(k=4, reg_lambda=0.0)):
            grads = Gradients.for_batch(batch, model8)
            with_grads = loss_and_grad(model8, batch, hp, arena, grads)
            assert with_grads == loss_and_grad(model8, batch, hp, arena)
            assert np.abs(grads.values).max() > 0.0


def test_scatter_rows_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(3)
    arena = Arena(64, 3, 20)  # a table of 20 rows of 6 floats
    for n_rows, size in ((20, 64), (11, 200), (1, 5), (7, 0)):
        at = rng.integers(0, n_rows, size)
        values = rng.standard_normal((size, 6)) * 10.0 ** rng.integers(-8, 8, (size, 1))
        want = np.zeros((n_rows, 6))
        np.add.at(want, at, values)
        for table, cells in ((arena.table, None), (arena.table, np.empty((size, 6), np.int64)),
                             (np.arange(n_rows * 6).reshape(n_rows, 6), None)):
            got = scatter_rows(at, values, n_rows, table, cells)
            assert got.shape == (n_rows, 6) and np.array_equal(got, want)


def test_scatter_rows_of_nothing_is_float_zeros():
    table = np.arange(4 * 6).reshape(4, 6)
    for n_rows in (3, 0):
        got = scatter_rows(np.zeros(0, np.int64), np.zeros((0, 6)), n_rows, table)
        assert got.dtype == np.float64 and got.shape == (n_rows, 6) and not got.any()


def test_an_all_slack_batch_has_zero_float_gradients():
    # each corruption is its positive, so at margin 0 every pair is slack
    # and the hinge scatters no term
    model = init_model(small_vocab(4, 2), 3, seed=0)
    pos = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int64)
    batch = TrainingBatch(pos, np.array([0.5, 1.0]), pos.repeat(2, axis=0), 2, 0.5)
    grads = Gradients.for_batch(batch, model)
    assert hinge_part(model, batch, 0.0, grads.slots, arena_for(model, batch), grads) == 0.0
    assert grads.values.dtype == np.complex128 and grads.values.shape == (len(grads.rows), 3)
    assert grads.values.base.dtype == np.float64  # the memory under the complex view
    assert not grads.values.any()


def test_scatter_rows_rejects_targets_outside_its_rows():
    table = np.arange(5 * 2).reshape(5, 2)
    values = np.ones((2, 2))
    for n_rows, bad in ((4, -1), (4, 4), (4, 7), (8, 5)):  # the last is past the table
        with pytest.raises(IndexError):
            scatter_rows(np.array([0, bad]), values, n_rows, table)
