import numpy as np

from qakge.model import init_model
from qakge.training import Hyperparams, loss_and_grad

from .helpers import (
    GRAD_NAMES,
    add_at_gradients,
    arena_for,
    dense_gradients,
    fd_gradients,
    gradient_parts,
    max_relative_error,
    one_step,
    random_model,
    random_step,
    small_vocab,
    touched_ids,
)


def test_analytic_matches_finite_differences_across_betas():
    rng = np.random.default_rng(11)
    for trial in range(24):
        n_ent = int(rng.integers(4, 21))
        n_rel = int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        beta = [0.0, 0.3, 1.0][trial % 3]
        model = random_model(n_ent, n_rel, k=k, seed=trial)
        batch = random_step(model, rng, n_pos=int(rng.integers(2, 7)),
                            eta=int(rng.integers(1, 4)), beta=beta)
        hp = Hyperparams(k=k, margin=float(rng.uniform(0.1, 1.0)),
                         reg_lambda=float(rng.uniform(0.0, 1e-2)))
        analytic = dense_gradients(model, batch, hp)
        numeric = fd_gradients(model, batch, hp)
        err = max_relative_error(analytic, numeric)
        assert err <= 1e-4, f"trial {trial}: rel err {err:.2e} (beta={beta})"


def test_compact_gradients_equal_add_at_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(18):
        n_ent = int(rng.integers(3, 9))  # few rows, so batches repeat them
        n_rel = int(rng.integers(1, 3))
        k = int(rng.integers(2, 7))
        n_pos = int(rng.integers(3, 9))
        beta = [0.0, 0.4, 1.0][trial % 3]
        # a zero weight at beta 0 zeroes its positive's coefficient
        weights = rng.choice([0.0, 0.5, 1.0], size=n_pos)
        model = random_model(n_ent, n_rel, k=k, seed=trial)
        batch = random_step(model, rng, n_pos=n_pos, eta=int(rng.integers(1, 4)),
                            beta=beta, weights=weights)
        hp = Hyperparams(k=k, margin=float(rng.uniform(0.0, 1.0)),
                         reg_lambda=[0.0, 1e-2][trial % 2])
        cases.append((model, batch, hp))
    # all-slack hinge: at beta 1 and margin 0 a corruption equal to its
    # positive violates by exactly 0, so only the penalty is left
    model = random_model(6, 2, k=3, seed=99)
    pos = random_step(model, rng, n_pos=5, eta=1).pos
    slack = one_step(model, pos, np.full(5, 0.7), np.repeat(pos, 2, axis=0), 2, 1.0)
    cases.append((model, slack, Hyperparams(k=3, margin=0.0, reg_lambda=1e-2)))
    assert any(b.beta == 0.0 and (b.pos_weights == 0.0).any() for _, b, _ in cases)

    for model, batch, hp in cases:
        loss_and_grad(model, batch, hp, arena_for(model, batch))
        oracle = add_at_gradients(model, batch, hp)
        ent_rows, rel_rows = touched_ids(batch)
        assert np.array_equal(batch.ent_rows, ent_rows)
        assert np.array_equal(batch.rel_rows, rel_rows + model.vocab.n_entities)
        for name, (rows, g) in zip(GRAD_NAMES, gradient_parts(model, batch)):
            assert (g == oracle[name][rows]).all(), name
            outside = np.ones(len(oracle[name]), dtype=bool)
            outside[rows] = False
            assert (oracle[name][outside] == 0.0).all(), name


def test_gradients_zero_outside_touched_rows(model8):
    rng = np.random.default_rng(2)
    batch = one_step(
        model8,
        pos=np.array([[0, 0, 1]], dtype=np.int64),
        pos_weights=np.array([0.8]),
        neg=np.array([[0, 0, 2], [3, 0, 1]], dtype=np.int64),
        eta=2,
        beta=0.5,
    )
    g = dense_gradients(model8, batch, Hyperparams(k=4, reg_lambda=1e-3))
    untouched_entities = [4, 5, 6, 7]
    for row in untouched_entities:
        assert np.all(g["ent_re"][row] == 0.0)
        assert np.all(g["ent_im"][row] == 0.0)
    assert np.all(g["rel_re"][1:] == 0.0)  # relations 1, 2 unused


def test_inactive_hinge_gives_pure_regularizer_gradient():
    # make the positive hugely outscore its corruption so the hinge is slack
    vocab = small_vocab(3, 1)
    model = init_model(vocab, 2, seed=0)
    model.ent_re[:] = 0.0
    model.ent_im[:] = 0.0
    model.rel_re[:] = 0.0
    model.rel_im[:] = 0.0
    model.ent_re[0, 0], model.rel_re[0, 0], model.ent_re[1, 0] = 3.0, 3.0, 3.0  # f(pos) = 27
    batch = one_step(
        model,
        pos=np.array([[0, 0, 1]], dtype=np.int64),
        pos_weights=np.array([1.0]),
        neg=np.array([[0, 0, 2]], dtype=np.int64),  # f(neg) = 0
        eta=1,
        beta=1.0,
    )
    lam = 1e-3
    g = dense_gradients(model, batch, Hyperparams(k=2, margin=0.5, reg_lambda=lam))
    # every touched component's gradient is exactly 4 * lam * x^3
    for name, arr in zip(("ent_re", "ent_im", "rel_re", "rel_im"),
                         (model.ent_re, model.ent_im, model.rel_re, model.rel_im)):
        expected = 4 * lam * arr**3
        got = g[name]
        rows = [0, 1, 2] if name.startswith("ent") else [0]
        assert np.allclose(got[rows], expected[rows], atol=1e-15), name


def test_exact_kink_contributes_zero():
    # f(pos) = f(neg) = 0 and margin = 0: violation sits exactly at the kink
    vocab = small_vocab(3, 1)
    model = init_model(vocab, 2, seed=0)
    for arr in model.arrays():
        arr[:] = 0.0
    batch = one_step(
        model,
        pos=np.array([[0, 0, 1]], dtype=np.int64),
        pos_weights=np.array([1.0]),
        neg=np.array([[0, 0, 2]], dtype=np.int64),
        eta=1,
        beta=1.0,
    )
    g = dense_gradients(model, batch, Hyperparams(k=2, margin=0.0, reg_lambda=0.0))
    for arr in g.values():
        assert np.all(arr == 0.0)


def test_beta_one_gradients_ignore_weights(model8):
    rng = np.random.default_rng(9)
    base = random_step(model8, rng, n_pos=5, eta=2, beta=1.0)
    hp = Hyperparams(k=4, reg_lambda=1e-3)
    g1 = dense_gradients(model8, base, hp)
    reweighted = one_step(model8, base.pos, np.full(5, 0.123), base.neg, base.eta, 1.0)
    g2 = dense_gradients(model8, reweighted, hp)
    for a, b in zip(g1.values(), g2.values()):
        assert np.array_equal(a, b)  # bit identical, not just close


def test_beta_zero_weights_change_gradients(model8):
    rng = np.random.default_rng(10)
    pos = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int64)
    neg = np.array([[0, 0, 4], [5, 1, 3]], dtype=np.int64)
    heavy = one_step(model8, pos, np.array([1.0, 1.0]), neg, 1, 0.0)
    light = one_step(model8, pos, np.array([0.0, 0.0]), neg, 1, 0.0)
    hp = Hyperparams(k=4, reg_lambda=0.0)
    g_heavy = dense_gradients(model8, heavy, hp)
    g_light = dense_gradients(model8, light, hp)
    assert any(not np.array_equal(a, b)
               for a, b in zip(g_heavy.values(), g_light.values()))
