"""Per-scenario feed-forward surrogate: features in, (mean, variance) out.

One hidden rectifier layer, a two-unit linear head whose second output is
mapped through softplus so the variance stays positive, inverted dropout on
the hidden activations during training only. Plain full-batch gradient
descent; everything is seeded and deterministic.

Training has two phases on one seeded point-wise 80/20 split. The mean
phase trains every parameter on MSE against the average rating curve, with
dropout. The variance phase then freezes everything except the variance
column and fits it by Gaussian negative log-likelihood around the frozen mean
(the two-step mean-variance scheme of Nix & Weigend, 1994). The variance is
that of the network's mean around the reconstructed mean curve. The column
starts as the constant variance of the train residuals (zero weights, and
softplus^-1 of their mean square as bias), so its first steps are small, and
each epoch is one step on the unmasked hidden layer that the mean phase left.
A fitted column whose validation NLL is higher than that of the constant start
gives way to the start, so the head never does worse on validation than a
constant variance. ``TrainReport`` records the validation NLL of the column
kept and of that constant start.

Each epoch does its work once. The hidden layer after a mean update serves
both that epoch's train RMSE and the next epoch's forward pass. The mean phase
never reads the variance column, so its loss forward, its ``dw2`` and the train
RMSE are one-column products; only ``dz1 = dz2 @ w2.T`` stays two columns wide,
as it is faster so. The variance phase rebuilds nothing: it computes the mean
head's squared residuals once, and each epoch makes two one-column products on
the frozen hidden layer.

Buffers: training holds one n x H float buffer and, in the mean phase, two
n x H bool dropout masks. A mean epoch masks and scales the hidden layer
``h`` in place, as ``h * mask * (1 / keep)``, writes the gate ``hd > 0`` of
that masked layer ``hd``, which equals ``(h > 0) & mask``, into the mask it
was handed, and the hidden gradient into the float buffer; the hidden layer
after the update is built there again, and the variance phase reads it. The
results are bit-identical to a plain loop that recomputes every pass
(tests/test_mlp.py keeps that loop). ``mlp_forward`` (predict, explain and the
mean phase's validation RMSE) runs its batch in blocks of ``FORWARD_ROWS`` rows,
each cast to the weights' dtype on its own, through one block-sized hidden
buffer into one preallocated head output: at H = 500 in float32 a pass holds
1 MB of hidden layer and no cast copy of its batch, whatever the batch's size.

Precision: ``mlp_train`` draws the split, the He weights and every dropout
uniform in float64, then rounds the data, the targets and the initial weights
to float32 and trains in float32, so it returns float32 weights. A network's
dtype is the dtype of its weights: ``mlp_forward`` and ``mlp_predict`` cast
their input to it, so a trained network predicts in float32 while
``mlp_init`` weights, which ``gradient_check`` and the tests' fixtures use,
run in float64. ``gradient_check`` differences the two losses that training
descends, the mean phase's masked MSE and the variance column's NLL. float32
rounding (about 1e-7 relative) sits far inside the model's error;
``weights_<group>.json`` stores the float32 values exactly.
A forward row's bits depend on its input, the weights, its place in its block
of ``FORWARD_ROWS`` rows and the size of that block, and on whether the
variance is asked for: the mean column alone is a matrix-vector product, which
rounds apart from the two-column product.

Threads: ``mlp_train`` runs on the calling thread, plus one helper thread that
draws each mean epoch's dropout mask from the seeded generator while the
previous epoch runs. The helper makes the draws in the loop's order and stops
before the variance phase starts, or before ``mlp_train`` raises. The pipeline
holds BLAS at one thread (``blas.one_thread``), so the weights do not depend on
the core count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-6
VAR_BIAS_INIT = 0.5413  # softplus(0.5413) ~ 1.0: unit initial variance
TRAIN_FRACTION = 0.8
DRAW_CHUNK = 1 << 16  # uniforms drawn per call when filling a dropout mask
FORWARD_ROWS = 512  # rows per block of a forward pass


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden: int = 500
    dropout_rate: float = 0.1
    epochs: int = 200
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden < 1:
            raise ValueError("layer sizes must be positive")
        if not 0.0 < self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        # float32 training rounds a larger rate to inf
        if not 0.0 < self.learning_rate <= float(np.finfo(np.float32).max):
            raise ValueError("learning_rate must be positive and at most the largest "
                             f"float32, 3.4e38 (was {self.learning_rate})")


@dataclass
class MlpWeights:
    w1: np.ndarray  # D x H
    b1: np.ndarray  # H
    w2: np.ndarray  # H x 2
    b2: np.ndarray  # 2

    def __post_init__(self):
        arrays = (self.w1, self.b1, self.w2, self.b2)
        if len({arr.dtype for arr in arrays}) != 1 or self.w1.dtype.kind != "f":
            raise ValueError("weights must share one float dtype")
        for arr in arrays:
            if not np.all(np.isfinite(arr)):
                raise ValueError("weights must be finite")
        if (self.w1.ndim != 2 or self.w1.shape[1] != self.b1.size
                or self.w2.shape != (self.b1.size, 2) or self.b2.shape != (2,)):
            raise ValueError("inconsistent layer shapes")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def astype(self, dtype) -> "MlpWeights":
        return MlpWeights(*(a.astype(dtype) for a in (self.w1, self.b1, self.w2, self.b2)))


@dataclass(frozen=True)
class TrainReport:
    train_rmse: np.ndarray  # per epoch, mean head
    val_rmse: np.ndarray
    val_nll: float  # Gaussian NLL of the variance head kept, on the validation split
    val_nll_constant: float  # the same for the constant variance it starts from

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
    return MlpWeights(w1, np.zeros(h), w2, b2)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _check_input(weights: MlpWeights, x) -> np.ndarray:
    """``x`` as a 2-D batch, not yet in the weights' dtype."""
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != weights.input_dim:
        raise ValueError(
            f"expected {weights.input_dim} features, got {x.shape[1]}")
    return x


def _hidden(weights: MlpWeights, x: np.ndarray, out=None) -> np.ndarray:
    """relu(x @ w1 + b1), built in the product's buffer (``out`` if given)."""
    h = np.matmul(x, weights.w1, out=out)
    h += weights.b1
    np.maximum(h, 0.0, out=h)
    return h


def mlp_forward(weights: MlpWeights, x, variance: bool = True):
    """(mean, variance) for a batch, without dropout; variance None if not asked for.

    The batch runs in blocks of ``FORWARD_ROWS`` rows, each cast to the weights' dtype
    and passed through one hidden-layer buffer, into one preallocated head output.
    Without the variance, the head is the mean column alone."""
    x, dtype = _check_input(weights, x), weights.w1.dtype
    w2, b2 = (weights.w2, weights.b2) if variance else (weights.w2[:, 0], weights.b2[0])
    z = np.empty((len(x), *w2.shape[1:]), dtype=dtype)
    h = np.empty((min(len(x), FORWARD_ROWS), weights.b1.size), dtype=dtype)
    for start in range(0, len(x), FORWARD_ROWS):
        xb = x[start:start + FORWARD_ROWS].astype(dtype, copy=False)
        z[start:start + len(xb)] = _hidden(weights, xb, out=h[:len(xb)]) @ w2 + b2
    if not variance:
        return z, None
    return z[:, 0], _softplus(z[:, 1]) + VAR_FLOOR


def _nll(z, resid2):
    """Mean Gaussian NLL, without its constant, of the variance logits ``z`` at the
    squared residuals ``resid2``, and its gradient in ``z``.

    The gradient's sigmoid(z) is 1 - exp(-softplus(z)), accurate in both tails."""
    softplus = _softplus(z)
    v = softplus + VAR_FLOOR
    loss = float(np.mean(0.5 * (np.log(v) + resid2 / v)))
    return loss, 0.5 * (1.0 / v - resid2 / v ** 2) / z.size * -np.expm1(-softplus)


def _mean_grads(weights, x, h, y, mask, scale):
    """The mean column's MSE under dropout, and its gradients in every parameter (the
    variance column's are 0), given ``h = _hidden(weights, x)``.

    Consumes ``h``: it holds ``h * mask * scale``, then the hidden gradient. The bool
    dropout ``mask`` then holds the gate ``h * mask * scale > 0``, which equals
    ``(h > 0) & mask`` as ``scale > 0``.
    """
    h *= mask
    h *= scale
    gate = np.greater(h, 0.0, out=mask)
    dz2 = np.zeros((len(h), 2), dtype=h.dtype)
    resid = h @ weights.w2[:, 0] + weights.b2[0] - y
    loss = float(np.mean(resid ** 2))
    dz2[:, 0] = grad = 2.0 * resid / len(h)
    dw2 = np.zeros_like(weights.w2)
    dw2[:, 0] = h.T @ grad
    db2 = dz2.sum(axis=0)
    dz1 = np.matmul(dz2, weights.w2.T, out=h)
    # a gate multiply, not a masked store: a negative gradient becomes -0.0
    dz1 *= gate
    dz1 *= scale
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def _variance_grads(h, w, b, resid2):
    """``_nll`` of the variance column ``h @ w + b`` at ``resid2``, and its gradients in
    ``w`` and ``b``; ``h`` is the frozen hidden layer."""
    loss, dz = _nll(h @ w + b, resid2)
    return loss, (h.T @ dz, dz.sum())


def _dropout_masks(rng, shape, keep, count):
    """``count`` bool masks, the draws of ``rng.random(shape) < keep`` in turn.

    A helper thread draws each mask into one of two buffers while the one before
    it is in use in the other. The caller may overwrite the mask it was handed,
    until it requests the next; the helper draws only into the other buffer.
    Closing the generator waits for the helper's pending draw and stops the
    helper.
    """
    masks = np.empty((2, *shape), dtype=bool)
    scratch = np.empty(min(masks[0].size, DRAW_CHUNK))

    def draw(mask):
        flat = mask.reshape(-1)
        for start in range(0, flat.size, scratch.size):
            part = scratch[:flat.size - start]
            rng.random(out=part)
            np.less(part, keep, out=flat[start:start + part.size])
        return mask

    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, masks[0])
        for i in range(1, count + 1):
            mask = pending.result()
            if i < count:
                pending = helper.submit(draw, masks[i % 2])
            yield mask


def _rmse(mean, y):
    return float(np.sqrt(np.mean((mean - y) ** 2)))


class TrainingDiverged(RuntimeError):
    """The training loss stopped being finite (learning rate too large)."""


def _check_finite(value, phase, epoch, what="training loss"):
    if not np.isfinite(value).all():
        raise TrainingDiverged(
            f"{what} became non-finite at epoch {epoch} of the {phase} phase")


def _fit_mean(weights, x_train, y_train, x_val, y_val, epochs, lr, scale, masks):
    """Full-batch MSE descent on every parameter; returns the final hidden layer.

    The post-update hidden layer serves the epoch's train RMSE and the next
    epoch's forward pass.
    """
    train_hist = np.empty(epochs)
    val_hist = np.empty(epochs)
    h = _hidden(weights, x_train)
    for epoch in range(epochs):
        loss, (dw1, db1, dw2, db2) = _mean_grads(weights, x_train, h, y_train,
                                                 next(masks), scale)
        _check_finite(loss, "mean", epoch)
        weights.w1 -= lr * dw1
        weights.b1 -= lr * db1
        weights.w2 -= lr * dw2
        weights.b2 -= lr * db2
        _hidden(weights, x_train, out=h)
        train_hist[epoch] = _rmse(h @ weights.w2[:, 0] + weights.b2[0], y_train)
        val_hist[epoch] = _rmse(mlp_forward(weights, x_val, variance=False)[0], y_val)
    # no loss follows the last update, which can overflow the RMSE
    _check_finite(train_hist[-1], "mean", epochs - 1, "training RMSE")
    return h, train_hist, val_hist


def _fit_variance(weights, h, y_train, h_val, y_val, epochs, lr):
    """NLL descent on the variance column alone, on the frozen hidden layer ``h``.

    The column starts as the constant variance of the mean head's train residuals,
    and goes back to it when the fitted column's NLL on the validation split's hidden
    layer ``h_val`` is higher.  Returns the validation NLL of the column kept and of
    that start.
    """
    w, b = weights.w2[:, 1], weights.b2[1:]
    resid2, val2 = ((layer @ weights.w2[:, 0] + weights.b2[0] - target) ** 2
                    for layer, target in ((h, y_train), (h_val, y_val)))
    m = max(float(resid2.mean()), VAR_FLOOR)
    start = m + np.log(-np.expm1(-m))  # softplus(start) == m
    w[:], b[:] = 0.0, start
    constant = _nll(np.full_like(val2, b[0]), val2)[0]
    for epoch in range(epochs):
        loss, (dw, db) = _variance_grads(h, w, b, resid2)
        _check_finite(loss, "variance", epoch)
        w -= lr * dw
        b -= lr * db
    # no loss follows the last update either
    _check_finite(np.append(w, b), "variance", epochs - 1, "variance weights")
    fitted = _nll(h_val @ w + b, val2)[0]
    if fitted > constant:  # the column overfitted the train split
        w[:], b[:] = 0.0, start
    return min(fitted, constant), constant


def mlp_train(features, targets, config: MlpConfig):
    """Fit on a seeded point-wise 80/20 split; returns weights and report.

    The split shuffles individual samples, not events, so every event is
    represented on both sides.  A loss that stops being finite raises
    ``TrainingDiverged`` naming the phase and epoch. The weights are float32
    (see the module docstring).
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
    n_train = int(round(TRAIN_FRACTION * x.shape[0]))
    if n_train < 1 or n_train >= x.shape[0]:
        raise ValueError("split leaves an empty train or validation set")
    tr, va = order[:n_train], order[n_train:]
    x_tr, y_tr, x_va, y_va = (a.astype(np.float32) for a in (x[tr], y[tr], x[va], y[va]))

    weights = mlp_init(config).astype(np.float32)
    keep = 1.0 - config.dropout_rate
    lr, scale = np.float32(config.learning_rate), np.float32(1.0 / keep)
    masks = _dropout_masks(rng, (n_train, config.hidden), keep, config.epochs)
    # a diverging fit overflows in the epoch products; the finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        with closing(masks):  # freed before the validation layer is built
            h, train_hist, val_hist = _fit_mean(weights, x_tr, y_tr, x_va, y_va,
                                                config.epochs, lr, scale, masks)
        val_nlls = _fit_variance(weights, h, y_tr, _hidden(weights, x_va), y_va,
                                 config.epochs, lr)
    return weights, TrainReport(train_hist, val_hist, *val_nlls)


def gradient_check(weights: MlpWeights, x, y, step: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients of training's
    two losses; the weights come back bit for bit.

    The mean phase's masked MSE is checked in every parameter under one fixed seeded
    dropout mask at the default rate, the variance phase's NLL in the variance column
    on the unmasked hidden layer. Meant for a down-scaled network.
    """
    x = _check_input(weights, x).astype(weights.w1.dtype, copy=False)
    y = np.asarray(y, dtype=float)
    keep = 1.0 - MlpConfig.dropout_rate
    mask = np.random.default_rng(0).random((len(x), weights.b1.size)) < keep
    h = _hidden(weights, x)
    resid2 = (h @ weights.w2[:, 0] + weights.b2[0] - y) ** 2
    w, b = weights.w2[:, 1], weights.b2[1:]
    checks = ((lambda: _mean_grads(weights, x, _hidden(weights, x), y, mask.copy(), 1 / keep),
               (weights.w1, weights.b1, weights.w2, weights.b2)),
              (lambda: _variance_grads(h, w, b, resid2), (w, b)))
    worst = 0.0
    for loss_and_grads, arrays in checks:
        _, grads = loss_and_grads()
        for arr, grad in zip(arrays, grads):
            gflat = np.ravel(grad)
            for i in range(arr.size):
                value = arr.flat[i]  # arr may be a strided view, such as w2[:, 1]
                arr.flat[i] = value + step
                up, _ = loss_and_grads()
                arr.flat[i] = value - step
                down, _ = loss_and_grads()
                arr.flat[i] = value
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(numeric), abs(gflat[i]), 1e-12)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


@dataclass(frozen=True)
class Prediction:
    mean: np.ndarray  # clamped to the rating scale
    variance: np.ndarray


def mlp_predict(weights: MlpWeights, features) -> Prediction:
    """Eval-mode prediction; mean reported on the 0-10 scale."""
    mean, variance = mlp_forward(weights, features)
    return Prediction(np.clip(mean, 0.0, 10.0), variance)
