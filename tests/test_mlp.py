"""Network training: gradients, determinism, overfit capacity, both heads."""

import threading
import tracemalloc
import warnings
from contextlib import closing

import numpy as np
import pytest

from riskdecode import mlp
from riskdecode.mlp import (VAR_FLOOR, MlpConfig, MlpWeights, Prediction,
                            TrainingDiverged, TrainReport, gradient_check,
                            mlp_forward, mlp_init, mlp_predict, mlp_train)


def overfit_problem():
    """Small noiseless linear task the network should drive to ~zero error."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(32, 5))
    w = np.array([0.8, -0.6, 0.5, 0.3, -0.4])
    y = np.clip(x @ w + 5.0, 0.0, 10.0)
    return x, y


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, hidden=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, dropout_rate=0.0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=4, dropout_rate=1.0)


@pytest.mark.parametrize("field,value,message", [
    ("epochs", 0, "epochs must be at least 1"),
    ("learning_rate", 0.0, "learning_rate must be positive"),
    ("learning_rate", -1.0, "learning_rate must be positive"),
    # float32 training would round these to nan or inf
    ("learning_rate", float("nan"), "learning_rate must be positive"),
    ("learning_rate", float("inf"), "learning_rate must be positive"),
    ("learning_rate", 1e39, "learning_rate must be positive"),
])
def test_config_rejects_empty_or_ascending_training(field, value, message):
    with pytest.raises(ValueError, match=message):
        MlpConfig(input_dim=4, **{field: value})


def test_weights_validation():
    with pytest.raises(ValueError):
        MlpWeights(np.full((3, 8), np.nan), np.zeros(8),
                   np.zeros((8, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        MlpWeights(np.zeros((3, 8)), np.zeros(8),
                   np.zeros((7, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        MlpWeights(np.zeros(8), np.zeros(8), np.zeros((8, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        MlpWeights(np.zeros((3, 8)), np.zeros(8), np.zeros((8, 2)), np.zeros(3))


def test_init_is_seeded_and_scaled():
    cfg = MlpConfig(input_dim=6, hidden=400, seed=12)
    a = mlp_init(cfg)
    b = mlp_init(cfg)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert a.w1.shape == (6, 400) and a.w2.shape == (400, 2)
    # He scaling: empirical std tracks sqrt(2/fan_in)
    assert a.w1.std() == pytest.approx(np.sqrt(2.0 / 6), rel=0.1)
    assert a.w2.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.1)
    assert np.all(a.b1 == 0.0) and a.b2[0] == 0.0
    # variance bias starts the softplus head at roughly unit variance
    _, variance = mlp_forward(a, np.zeros((1, 6)))
    assert variance[0] == pytest.approx(1.0, abs=1e-3)


def test_forward_shapes_and_determinism():
    cfg = MlpConfig(input_dim=4, hidden=16, seed=1)
    weights = mlp_init(cfg)
    x = np.random.default_rng(0).normal(size=(10, 4))
    mean, variance = mlp_forward(weights, x)
    assert mean.shape == variance.shape == (10,)
    assert np.all(variance > VAR_FLOOR / 2)
    # the forward pass draws no dropout, so it repeats exactly
    again, _ = mlp_forward(weights, x)
    assert np.array_equal(mean, again)
    with pytest.raises(ValueError):
        mlp_forward(weights, np.zeros((3, 5)))


def gradient_problem():
    """Criterion 7's down-scaled network and batch for ``gradient_check``."""
    rng = np.random.default_rng(9)
    weights = mlp_init(MlpConfig(input_dim=3, hidden=8, seed=4))
    x = rng.normal(size=(12, 3))
    y = np.clip(rng.normal(5.0, 1.0, size=12), 0.0, 10.0)
    return weights, x, y


def test_gradients_match_finite_differences():
    assert gradient_check(*gradient_problem()) < 1e-6


def test_gradient_check_hands_back_the_weights_bit_for_bit():
    weights, x, y = gradient_problem()
    given = [a.copy() for a in (weights.w1, weights.b1, weights.w2, weights.b2)]
    gradient_check(weights, x, y)
    after = (weights.w1, weights.b1, weights.w2, weights.b2)
    assert [a.tobytes() for a in after] == [a.tobytes() for a in given]


def test_gradient_check_sees_a_mean_gradient_without_the_dropout_scale(monkeypatch):
    mean_grads = mlp._mean_grads

    def unscaled(weights, x, h, y, mask, scale):
        loss, (dw1, db1, dw2, db2) = mean_grads(weights, x, h, y, mask, scale)
        return loss, (dw1 / scale, db1 / scale, dw2, db2)

    monkeypatch.setattr(mlp, "_mean_grads", unscaled)
    assert gradient_check(*gradient_problem()) > 1e-4


def test_gradient_check_sees_a_variance_gradient_off_by_a_thousandth(monkeypatch):
    variance_grads = mlp._variance_grads

    def skewed(h, w, b, resid2):
        loss, (dw, db) = variance_grads(h, w, b, resid2)
        return loss, (dw * 1.001, db)

    monkeypatch.setattr(mlp, "_variance_grads", skewed)
    assert gradient_check(*gradient_problem()) > 1e-4


def test_overfits_small_noiseless_problem():
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, epochs=2000, seed=11,
                    dropout_rate=1e-6, learning_rate=0.005)
    _, report = mlp_train(x, y, cfg)
    assert report.final_train_rmse < 0.02
    assert len(report.train_rmse) == len(report.val_rmse) == 2000


def test_training_is_bit_reproducible():
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, hidden=32, epochs=40, seed=5)
    w1, r1 = mlp_train(x, y, cfg)
    w2, r2 = mlp_train(x, y, cfg)
    assert np.array_equal(w1.w1, w2.w1) and np.array_equal(w1.b1, w2.b1)
    assert np.array_equal(w1.w2, w2.w2) and np.array_equal(w1.b2, w2.b2)
    assert np.array_equal(r1.train_rmse, r2.train_rmse)
    assert np.array_equal(r1.val_rmse, r2.val_rmse)


def test_variance_head_tracks_residual_spread():
    # constant mean 5, noise sd 0.5: the second phase should pull the
    # variance output toward the residual variance of 0.25
    rng = np.random.default_rng(5)
    x = rng.normal(size=(400, 4))
    y = np.clip(5.0 + 0.5 * rng.normal(size=400), 0.0, 10.0)
    cfg = MlpConfig(input_dim=4, hidden=64, epochs=800, seed=2,
                    dropout_rate=1e-6, learning_rate=0.01)
    weights, report = mlp_train(x, y, cfg)
    pred = mlp_predict(weights, x)
    assert 0.15 < pred.variance.mean() < 0.45
    # the mean head fits the signal, not the noise
    assert 0.3 < report.final_train_rmse < 0.7


def test_the_variance_phase_moves_only_the_variance_column(monkeypatch):
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, hidden=16, epochs=5, seed=2)
    counts = []
    draw = mlp._dropout_masks
    monkeypatch.setattr(mlp, "_dropout_masks",
                        lambda *args: counts.append(args[-1]) or draw(*args))
    weights, report = mlp_train(x, y, cfg)
    monkeypatch.setattr(mlp, "_fit_variance", lambda *args: (0.0, 0.0))
    mean_only, mean_report = mlp_train(x, y, cfg)
    # the mean phase alone draws dropout masks, one per epoch
    assert counts == [cfg.epochs, cfg.epochs]
    for name in ("w1", "b1"):
        assert getattr(weights, name).tobytes() == getattr(mean_only, name).tobytes()
    assert weights.w2[:, 0].tobytes() == mean_only.w2[:, 0].tobytes()
    assert weights.b2[0] == mean_only.b2[0] and weights.b2[1] != mean_only.b2[1]
    assert report.val_rmse.tobytes() == mean_report.val_rmse.tobytes()


def test_the_variance_column_starts_at_the_constant_residual_variance():
    # at a rate of nearly 0 the column stays at its start: weights of 0, and the
    # softplus bias that gives the mean squared train residual
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, hidden=16, epochs=3, seed=2, learning_rate=1e-30)
    weights, report = mlp_train(x, y, cfg)
    assert np.abs(weights.w2[:, 1]).max() < 1e-25
    _, variance = mlp_forward(weights, x)
    assert variance == pytest.approx(report.final_train_rmse ** 2 + VAR_FLOOR, rel=1e-5)
    assert report.val_nll == pytest.approx(report.val_nll_constant, abs=1e-6)


@pytest.mark.parametrize("epochs", [50, 200, 800])
def test_an_overfitted_variance_column_gives_way_to_its_constant_start(epochs):
    # 26 train rows and 500 free weights: the fitted column loses to the constant on
    # validation, so the head keeps the constant variance it started from
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, epochs=epochs, seed=0, learning_rate=0.005)
    weights, report = mlp_train(x, y, cfg)
    assert report.val_nll == report.val_nll_constant
    assert not weights.w2[:, 1].any()
    _, variance = mlp_forward(weights, x)
    assert np.ptp(variance) == 0.0
    ref, _, _ = reference_train(x, y, cfg)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(weights, name).tobytes() == getattr(ref, name).tobytes(), name


def test_the_rehearsal_variances_beat_a_constant_and_lie_on_the_rating_scale(rehearsal):
    from riskdecode.pipeline import NETWORK_GROUPS, read_csv
    train = rehearsal.train
    assert sorted(train) == sorted(NETWORK_GROUPS)
    for group, entry in train.items():
        assert entry["val_nll"] < entry["val_nll_constant"], group
    # a rating on 0..10 has a variance of at most 25 (Popoviciu's inequality)
    variance = read_csv(rehearsal.out / "predictions.csv")["variance"]
    assert variance.min() > 0.0 and variance.max() <= 25.0


def test_train_input_validation():
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5)
    with pytest.raises(ValueError):
        mlp_train(x[:10], y, cfg)
    with pytest.raises(ValueError):
        mlp_train(x[:, :4], y, cfg)
    with pytest.raises(ValueError):
        mlp_train(x, y + 20.0, cfg)
    # two samples round to an all-train split
    with pytest.raises(ValueError):
        mlp_train(x[:2], y[:2], cfg)


def test_divergent_training_raises():
    x, y = overfit_problem()
    cfg = MlpConfig(input_dim=5, epochs=50, seed=0, learning_rate=1e9)
    with pytest.raises(RuntimeError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            mlp_train(x, y, cfg)


def test_mask_helper_stops_when_training_diverges():
    x, y = overfit_problem()
    before = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as caught:
            mlp_train(x, y, MlpConfig(input_dim=5, epochs=50, learning_rate=1e9))
    # checked while the traceback still holds mlp_train's frame and its locals
    assert caught.traceback and threading.active_count() == before


def frozen_mean_fit(monkeypatch):
    """Targets that the initial network fits, and a mean phase that keeps it there.

    The variance column then starts at the floor, where its gradient is about a
    quarter of the hidden layer's mean (up to about 4 here): one step at a rate
    near the largest float32 overflows it.
    """
    fit_mean = mlp._fit_mean
    monkeypatch.setattr(mlp, "_fit_mean",
                        lambda *args: fit_mean(*args[:6], np.float32(0.0), *args[7:]))
    x = 10.0 * np.random.default_rng(4).normal(size=(400, 5))
    mean, _ = mlp_forward(mlp_init(MlpConfig(input_dim=5)).astype(np.float32), x)
    fits = (mean >= 0.0) & (mean <= 10.0)
    return x[fits], mean[fits]


def test_divergence_names_its_phase(monkeypatch):
    x, y = overfit_problem()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 1 of the mean phase"):
            mlp_train(x, y, MlpConfig(input_dim=5, epochs=5, learning_rate=1e9))
    # the first variance step overflows the column, and the second loss sees it
    x, y = frozen_mean_fit(monkeypatch)
    with pytest.raises(TrainingDiverged, match="epoch 1 of the variance phase"):
        mlp_train(x, y, MlpConfig(input_dim=5, epochs=2, learning_rate=3e38))


def test_divergence_is_reported_without_a_numpy_warning():
    # float32 epoch products overflow at this rate; the divergence report is the one
    # sign of it, not a RuntimeWarning
    x, y = overfit_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="epoch 2 of the mean phase"):
            mlp_train(x, y, MlpConfig(input_dim=5, epochs=3, learning_rate=1e6))


def test_divergence_at_the_last_variance_epoch_is_reported(monkeypatch):
    # one variance update that overflows, which no later loss sees
    x, y = frozen_mean_fit(monkeypatch)
    with pytest.raises(TrainingDiverged,
                       match="variance weights became non-finite at epoch 0 of the variance"):
        mlp_train(x, y, MlpConfig(input_dim=5, epochs=1, learning_rate=3e38))


def test_divergence_at_the_last_mean_epoch_is_reported():
    # the one update overflows the train RMSE and no mean loss follows it, so the RMSE
    # check reports it, before the variance phase starts on an overflowed layer
    x, y = overfit_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged,
                           match="RMSE became non-finite at epoch 0 of the mean phase"):
            mlp_train(x, y, MlpConfig(input_dim=5, epochs=1, learning_rate=1e20))


def test_weights_share_one_float_dtype():
    arrays = np.zeros((3, 8)), np.zeros(8), np.zeros((8, 2)), np.zeros(2)
    for i in range(4):
        mixed = [a.astype(np.float32) if j == i else a for j, a in enumerate(arrays)]
        with pytest.raises(ValueError, match="weights must share one float dtype"):
            MlpWeights(*mixed)
    with pytest.raises(ValueError, match="weights must share one float dtype"):
        MlpWeights(*(a.astype(int) for a in arrays))


def test_a_trained_network_runs_in_float32():
    x, y = overfit_problem()
    weights, _ = mlp_train(x, y, MlpConfig(input_dim=5, hidden=16, epochs=3, seed=2))
    assert {a.dtype for a in (weights.w1, weights.b1, weights.w2, weights.b2)} == {
        np.dtype(np.float32)}
    pred = mlp_predict(weights, x)
    assert pred.mean.dtype == pred.variance.dtype == np.float32
    # a network's dtype is its weights': mlp_init's stay float64
    init = mlp_init(MlpConfig(input_dim=5, hidden=16, seed=2))
    assert mlp_predict(init, x).mean.dtype == np.float64


def test_predict_clamps_mean_but_keeps_raw():
    weights = MlpWeights(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 2)),
                         np.array([15.0, 0.0]))
    pred = mlp_predict(weights, np.zeros((3, 2)))
    assert isinstance(pred, Prediction)
    assert np.all(pred.mean == 10.0)
    # the raw head, which explain attributes, stays unclamped
    assert np.all(mlp_forward(weights, np.zeros((3, 2)))[0] == 15.0)


def test_report_validation():
    with pytest.raises(ValueError):
        TrainReport(np.array([0.5, -0.1]), np.array([0.5, 0.4]), 0.0, 0.0)


# ---------------------------------------------------------------------------
# bit-exactness oracle: the straightforward training loop in float32, on the data
# and He weights rounded to it, as mlp_train trains. The mean phase makes one full
# forward and backward pass per epoch, with a one-column head, plus fresh RMSE
# forwards; the variance phase starts its column at the constant variance of the
# train residuals, steps it on the unmasked hidden layer, and goes back to the start
# if the start's validation NLL is lower


def reference_forward(weights, x, variance=True):
    """Out of place, block by block of ``FORWARD_ROWS`` rows, as ``mlp_forward``."""
    means, variances = [np.empty(0, x.dtype)], [np.empty(0, x.dtype)]
    for start in range(0, x.shape[0], mlp.FORWARD_ROWS):
        h = np.maximum(x[start:start + mlp.FORWARD_ROWS] @ weights.w1 + weights.b1, 0.0)
        if variance:
            z = h @ weights.w2 + weights.b2
            means.append(z[:, 0])
            variances.append(np.logaddexp(0.0, z[:, 1]) + VAR_FLOOR)
        else:
            means.append(h @ weights.w2[:, 0] + weights.b2[0])
    return np.concatenate(means), np.concatenate(variances) if variance else None


def reference_mse_and_grads(weights, x, y, mask):
    z1 = x @ weights.w1 + weights.b1
    hd = np.maximum(z1, 0.0) * mask
    resid = hd @ weights.w2[:, 0] + weights.b2[0] - y
    grad = 2.0 * resid / x.shape[0]
    dz2 = np.zeros((x.shape[0], 2), dtype=x.dtype)
    dz2[:, 0] = grad
    dw2 = np.zeros_like(weights.w2)
    dw2[:, 0] = hd.T @ grad
    dz1 = (dz2 @ weights.w2.T) * mask * (z1 > 0.0)
    return float(np.mean(resid ** 2)), (x.T @ dz1, dz1.sum(axis=0), dw2, dz2.sum(axis=0))


def reference_rmse(mean, y):
    return float(np.sqrt(np.mean((mean - y) ** 2)))


def reference_mean_phase(weights, x_tr, y_tr, x_va, y_va, cfg, rng):
    keep = 1.0 - cfg.dropout_rate
    lr = np.float32(cfg.learning_rate)
    hist = []
    for _ in range(cfg.epochs):
        mask = (rng.random((x_tr.shape[0], cfg.hidden)) < keep) * np.float32(1.0 / keep)
        loss, (dw1, db1, dw2, db2) = reference_mse_and_grads(weights, x_tr, y_tr, mask)
        assert np.isfinite(loss)
        weights.w1 -= lr * dw1
        weights.b1 -= lr * db1
        weights.w2 -= lr * dw2
        weights.b2 -= lr * db2
        # the train RMSE reads the whole train hidden layer, the validation RMSE a forward
        h = np.maximum(x_tr @ weights.w1 + weights.b1, 0.0)
        hist.append((reference_rmse(h @ weights.w2[:, 0] + weights.b2[0], y_tr),
                     reference_rmse(reference_forward(weights, x_va, False)[0], y_va)))
    return np.array(hist)


def reference_val_nll(weights, x_va, y_va):
    mean, variance = reference_forward(weights, x_va)
    return float(np.mean(0.5 * (np.log(variance) + (mean - y_va) ** 2 / variance)))


def reference_variance_phase(weights, x_tr, y_tr, x_va, y_va, cfg):
    lr = np.float32(cfg.learning_rate)
    h = np.maximum(x_tr @ weights.w1 + weights.b1, 0.0)
    resid2 = (h @ weights.w2[:, 0] + weights.b2[0] - y_tr) ** 2
    m = max(float(resid2.mean()), VAR_FLOOR)
    weights.w2[:, 1] = 0.0
    weights.b2[1] = m + np.log(-np.expm1(-m))  # softplus(b2[1]) == m
    start, constant = weights.b2[1], reference_val_nll(weights, x_va, y_va)
    for _ in range(cfg.epochs):
        s = h @ weights.w2[:, 1] + weights.b2[1]
        v = np.logaddexp(0.0, s) + VAR_FLOOR
        assert np.isfinite(np.mean(0.5 * (np.log(v) + resid2 / v)))
        sig = -np.expm1(-np.logaddexp(0.0, s))  # 1 - 1 / (1 + exp(s))
        ds = 0.5 * (1.0 / v - resid2 / v ** 2) / h.shape[0] * sig
        weights.w2[:, 1] -= lr * (h.T @ ds)
        weights.b2[1] -= lr * ds.sum()
    if reference_val_nll(weights, x_va, y_va) > constant:  # keep the constant start
        weights.w2[:, 1], weights.b2[1] = 0.0, start


def reference_train(x, y, cfg):
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(x.shape[0])
    n_train = int(round(0.8 * x.shape[0]))
    tr, va = order[:n_train], order[n_train:]
    x, y = x.astype(np.float32), y.astype(np.float32)
    weights = mlp_init(cfg).astype(np.float32)
    hist = reference_mean_phase(weights, x[tr], y[tr], x[va], y[va], cfg, rng)
    reference_variance_phase(weights, x[tr], y[tr], x[va], y[va], cfg)
    return weights, hist[:, 0], hist[:, 1]


def test_training_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(300, 7))
    y = np.clip(5.0 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.normal(size=300), 0.0, 10.0)
    cfg = MlpConfig(input_dim=7, hidden=48, epochs=4, seed=3, dropout_rate=0.2,
                    learning_rate=0.05)
    weights, report = mlp_train(x, y, cfg)
    ref, train_hist, val_hist = reference_train(x, y, cfg)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(weights, name).tobytes() == getattr(ref, name).tobytes(), name
    assert report.train_rmse.tobytes() == train_hist.tobytes()
    assert report.val_rmse.tobytes() == val_hist.tobytes()


@pytest.mark.parametrize("rows,dtype", [
    pytest.param(rows, dtype, id=f"{rows}{'' if dtype is np.float64 else '-float32'}")
    for rows in (0, 1, 511, 512, 513, 2048) for dtype in (np.float64, np.float32)])
def test_forward_matches_out_of_place_reference(rows, dtype):
    # FORWARD_ROWS = 512: no block, one short block, one full, one and a row, four
    weights = mlp_init(MlpConfig(input_dim=11, seed=8)).astype(dtype)
    x = np.random.default_rng(rows).normal(size=(rows, 11))
    # mlp_forward casts the float64 batch to the weights' dtype
    mean, variance = mlp_forward(weights, x)
    ref_mean, ref_variance = reference_forward(weights, x.astype(dtype))
    assert mean.dtype == variance.dtype == dtype and mean.shape == (rows,)
    assert mean.tobytes() == ref_mean.tobytes()
    assert variance.tobytes() == ref_variance.tobytes()
    # the mean column alone: a matrix-vector product, which rounds apart from the
    # two-column one by the dtype's rounding of the sum of its terms' magnitudes
    alone, none = mlp_forward(weights, x, variance=False)
    assert none is None
    assert alone.tobytes() == reference_forward(weights, x.astype(dtype), False)[0].tobytes()
    h = np.maximum(x.astype(dtype) @ weights.w1 + weights.b1, 0.0)
    terms = np.abs(h) @ np.abs(weights.w2[:, 0]) + abs(weights.b2[0])
    assert np.all(np.abs(alone - mean) <= 4 * np.finfo(dtype).eps * terms)


def test_a_forward_pass_holds_one_block_of_the_hidden_layer():
    # 20,000 rows at H = 500 would be a 40 MB float32 hidden layer; blocked, the pass
    # holds its two outputs, one FORWARD_ROWS x H block and small change
    weights = mlp_init(MlpConfig(input_dim=11, seed=8)).astype(np.float32)
    x = np.random.default_rng(24).normal(size=(20_000, 11)).astype(np.float32)
    tracemalloc.start()
    try:
        mlp_forward(weights, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs, block = 2 * 4 * x.shape[0], 4 * mlp.FORWARD_ROWS * weights.b1.size
    assert peak <= outputs + block + 2 ** 20


def test_chunked_mask_draws_match_the_reference_loop(monkeypatch):
    # 1000 uniforms per call: each 240 x 48 mask takes 12 calls, the last one short
    monkeypatch.setattr(mlp, "DRAW_CHUNK", 1000)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(300, 7))
    y = np.clip(5.0 + x[:, 0] + 0.3 * rng.normal(size=300), 0.0, 10.0)
    cfg = MlpConfig(input_dim=7, hidden=48, epochs=3, seed=4, dropout_rate=0.3,
                    learning_rate=0.05)
    weights, report = mlp_train(x, y, cfg)
    ref, train_hist, _ = reference_train(x, y, cfg)
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(weights, name).tobytes() == getattr(ref, name).tobytes(), name
    assert report.train_rmse.tobytes() == train_hist.tobytes()


def test_a_consumer_may_overwrite_each_mask():
    # training writes its gate into the mask it was handed; the helper must draw each
    # next mask into the other buffer, whole
    shape, keep = (37, 29), 0.7
    masks = mlp._dropout_masks(np.random.default_rng(6), shape, keep, 5)
    ref = np.random.default_rng(6)
    with closing(masks):
        for mask in masks:
            assert np.array_equal(mask, ref.random(shape) < keep)
            mask ^= True
            mask[::3] = True


def test_training_holds_one_float_buffer_per_hidden_layer():
    # one n x H float32 buffer (4 bytes an element), two bool masks (2) and the
    # validation forward over a quarter as many rows (1): at most 8 bytes an element
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4000, 21))
    y = np.clip(5.0 + x[:, 0] + 0.3 * rng.normal(size=4000), 0.0, 10.0)
    cfg = MlpConfig(input_dim=21, hidden=500, epochs=2, seed=1)
    n_train = int(round(mlp.TRAIN_FRACTION * x.shape[0]))
    tracemalloc.start()
    try:
        mlp_train(x, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_train * cfg.hidden + 2 ** 20
