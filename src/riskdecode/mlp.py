"""Per-scenario feed-forward surrogate: features in, (mean, variance) out.

One hidden rectifier layer, a two-unit linear head whose second output is
mapped through softplus so the variance stays positive, inverted dropout on
the hidden activations during training only. Plain full-batch gradient
descent; everything is seeded and deterministic.

Two loss modes. The default trains the mean head on MSE against the average
rating curve, then freezes everything except the variance column and fits it
by Gaussian negative log-likelihood around the frozen mean. The joint mode
trains both heads at once on the NLL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VAR_FLOOR = 1e-6
VAR_BIAS_INIT = 0.5413  # softplus(0.5413) ~ 1.0: unit initial variance
LOSS_MODES = ("mse_mean", "gaussian_nll")


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden: int = 500
    dropout_rate: float = 0.1
    epochs: int = 200
    learning_rate: float = 0.001
    train_fraction: float = 0.8
    seed: int = 0
    loss_mode: str = "mse_mean"

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden < 1:
            raise ValueError("layer sizes must be positive")
        if not 0.0 < self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in (0, 1)")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class MlpWeights:
    w1: np.ndarray  # D x H
    b1: np.ndarray  # H
    w2: np.ndarray  # H x 2
    b2: np.ndarray  # 2
    seed: int

    def __post_init__(self):
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("weights must be finite")
        if self.w1.shape[1] != self.b1.size or self.w2.shape != (self.b1.size, 2):
            raise ValueError("inconsistent layer shapes")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "MlpWeights":
        return MlpWeights(self.w1.copy(), self.b1.copy(),
                          self.w2.copy(), self.b2.copy(), self.seed)


@dataclass(frozen=True)
class TrainReport:
    train_rmse: np.ndarray  # per epoch, mean head
    val_rmse: np.ndarray

    def __post_init__(self):
        if np.any(self.train_rmse < 0) or np.any(self.val_rmse < 0):
            raise ValueError("RMSE cannot be negative")

    @property
    def final_train_rmse(self) -> float:
        return float(self.train_rmse[-1])

    @property
    def final_val_rmse(self) -> float:
        return float(self.val_rmse[-1])


def mlp_init(config: MlpConfig) -> MlpWeights:
    """He-scaled normal initialization, deterministic in the seed."""
    rng = np.random.default_rng(config.seed)
    d, h = config.input_dim, config.hidden
    w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h))
    w2 = rng.normal(0.0, np.sqrt(2.0 / h), size=(h, 2))
    b2 = np.array([0.0, VAR_BIAS_INIT])
    return MlpWeights(w1, np.zeros(h), w2, b2, config.seed)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _check_input(weights: MlpWeights, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != weights.input_dim:
        raise ValueError(
            f"expected {weights.input_dim} features, got {x.shape[1]}")
    return x


def mlp_forward(weights: MlpWeights, x, train_mode: bool = False,
                dropout_rate: float = 0.1, rng=None):
    """(mean, variance) for a batch; dropout only acts in train mode."""
    x = _check_input(weights, x)
    h = np.maximum(x @ weights.w1 + weights.b1, 0.0)
    if train_mode:
        if rng is None:
            rng = np.random.default_rng(weights.seed)
        keep = 1.0 - dropout_rate
        h = h * (rng.random(h.shape) < keep) / keep
    z = h @ weights.w2 + weights.b2
    return z[:, 0], _softplus(z[:, 1]) + VAR_FLOOR


def _forward_cache(weights, x, mask=None):
    z1 = x @ weights.w1 + weights.b1
    h = np.maximum(z1, 0.0)
    hd = h if mask is None else h * mask
    z2 = hd @ weights.w2 + weights.b2
    return z1, hd, z2


def _loss_and_grads(weights, x, y, loss_mode, mask=None):
    """Loss plus gradients for every parameter (shared backprop path)."""
    n = x.shape[0]
    z1, hd, z2 = _forward_cache(weights, x, mask)
    mean = z2[:, 0]
    v = _softplus(z2[:, 1]) + VAR_FLOOR
    resid = mean - y
    dz2 = np.zeros_like(z2)
    if loss_mode == "mse_mean":
        loss = float(np.mean(resid ** 2))
        dz2[:, 0] = 2.0 * resid / n
    else:
        loss = float(np.mean(0.5 * (np.log(v) + resid ** 2 / v)))
        dz2[:, 0] = resid / v / n
        dv = 0.5 * (1.0 / v - resid ** 2 / v ** 2) / n
        dz2[:, 1] = dv * _sigmoid(z2[:, 1])
    dw2 = hd.T @ dz2
    db2 = dz2.sum(axis=0)
    dh = dz2 @ weights.w2.T
    if mask is not None:
        dh = dh * mask
    dz1 = dh * (z1 > 0.0)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _gd_epochs(weights, x_train, y_train, x_val, y_val, epochs, lr, dropout,
               loss_mode, rng, var_only=False):
    keep = 1.0 - dropout
    train_hist = np.empty(epochs)
    val_hist = np.empty(epochs)
    for epoch in range(epochs):
        mask = (rng.random((x_train.shape[0], weights.b1.size)) < keep) / keep
        loss, (dw1, db1, dw2, db2) = _loss_and_grads(
            weights, x_train, y_train, loss_mode, mask)
        if not np.isfinite(loss):
            raise RuntimeError(f"training loss became non-finite at epoch {epoch}")
        if var_only:
            weights.w2[:, 1] -= lr * dw2[:, 1]
            weights.b2[1] -= lr * db2[1]
        else:
            weights.w1 -= lr * dw1
            weights.b1 -= lr * db1
            weights.w2 -= lr * dw2
            weights.b2 -= lr * db2
        train_hist[epoch] = _rmse_of_mean(weights, x_train, y_train)
        val_hist[epoch] = _rmse_of_mean(weights, x_val, y_val)
    return train_hist, val_hist


def _rmse_of_mean(weights, x, y):
    mean, _ = mlp_forward(weights, x, train_mode=False)
    return float(np.sqrt(np.mean((mean - y) ** 2)))


def mlp_train(features, targets, config: MlpConfig):
    """Fit on a seeded point-wise 80/20 split; returns weights and report.

    The split shuffles individual samples, not events, so every event is
    represented on both sides.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must have matching rows")
    if x.shape[1] != config.input_dim:
        raise ValueError("feature dimension does not match config")
    if np.any(y < 0.0) or np.any(y > 10.0):
        raise ValueError("targets must lie on the 0-10 rating scale")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(x.shape[0])
    n_train = int(round(config.train_fraction * x.shape[0]))
    if n_train < 1 or n_train >= x.shape[0]:
        raise ValueError("split leaves an empty train or validation set")
    tr, va = order[:n_train], order[n_train:]
    x_tr, y_tr = x[tr], y[tr]
    x_va, y_va = x[va], y[va]

    weights = mlp_init(config)
    train_hist, val_hist = _gd_epochs(
        weights, x_tr, y_tr, x_va, y_va, config.epochs,
        config.learning_rate, config.dropout_rate, config.loss_mode, rng)
    if config.loss_mode == "mse_mean":
        # second phase: variance column only, mean head frozen
        _gd_epochs(weights, x_tr, y_tr, x_va, y_va, config.epochs,
                   config.learning_rate, config.dropout_rate, "gaussian_nll",
                   rng, var_only=True)
    return weights, TrainReport(train_hist, val_hist)


def gradient_check(weights: MlpWeights, x, y, step: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference NLL gradients.

    Dropout is disabled; the NLL loss exercises both output heads. Meant for
    a down-scaled network where the finite-difference sweep is cheap.
    """
    x = _check_input(weights, x)
    y = np.asarray(y, dtype=float)
    _, grads = _loss_and_grads(weights, x, y, "gaussian_nll")
    arrays = (weights.w1, weights.b1, weights.w2, weights.b2)
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up, _ = _loss_and_grads(weights, x, y, "gaussian_nll")
            flat[i] = keep - step
            down, _ = _loss_and_grads(weights, x, y, "gaussian_nll")
            flat[i] = keep
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric), abs(gflat[i]), 1e-12)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


@dataclass(frozen=True)
class Prediction:
    mean: np.ndarray  # clamped to the rating scale
    raw_mean: np.ndarray
    variance: np.ndarray


def mlp_predict(weights: MlpWeights, features) -> Prediction:
    """Eval-mode prediction; mean reported on the 0-10 scale, raw kept."""
    mean, variance = mlp_forward(weights, features, train_mode=False)
    return Prediction(np.clip(mean, 0.0, 10.0), mean, variance)
