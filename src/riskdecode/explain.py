"""Shapley attribution of network risk predictions.

Feature independence is assumed, so the value of a feature subset is the
mean head evaluated on a composite input: subset features from the frame,
the rest from a single baseline of training-set means.  Small manifests
are attributed by full subset enumeration; larger ones by seeded
permutation sampling with antithetic pairing.

Attribution targets the raw mean head (before the [0, 10] clamp) so the
additivity identity phi0 + sum(phi) = f(x) holds per frame, up to the
rounding of the model's dtype: a trained network runs in float32, and its
rows may round apart by batch.

Threads: ``explain_frames`` holds BLAS at one thread and attributes its frames
on a pool of one thread per usable core, in chunks of ``FRAME_CHUNK`` frames.
Frames are independent and each sampled frame keeps its own seed, so the
attributions do not depend on the number of threads. With another BLAS than
numpy's bundled OpenBLAS, every frame runs on the calling thread. A frame's
composites go through ``mlp_forward`` in one call, which runs them in blocks
of ``mlp.FORWARD_ROWS`` rows, so each pool thread holds one block of hidden
layer (1 MB at H = 500 in float32), not one frame's whole batch.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blas
from .mlp import MlpWeights, mlp_forward

MAX_EXACT_DIM = 15
FRAME_CHUNK = 8  # frames per pool task

ModelFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Baseline:
    """Single reference input; by convention the training-set feature means."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("baseline must be a nonempty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("baseline values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_training(cls, features) -> "Baseline":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("training features must be a 2-D matrix")
        return cls(features.mean(axis=0))

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ShapResult:
    """Per-frame attribution rows plus the curve they decompose."""

    base_value: float
    attributions: np.ndarray
    predicted: np.ndarray
    std_errors: np.ndarray | None = None


def mean_head(weights: MlpWeights) -> ModelFn:
    """Batch callable (N, D) -> (N,) for the raw mean output, in the weights' dtype."""

    def model(x: np.ndarray) -> np.ndarray:
        mean, _ = mlp_forward(weights, x, variance=False)
        return mean

    return model


def _check_frame(x, baseline: Baseline) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (baseline.dim,):
        raise ValueError(f"frame shape {x.shape} does not match baseline ({baseline.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("frame features must be finite")
    return x


@functools.lru_cache(maxsize=None)
def _subsets(d: int) -> tuple:
    """The (2^D, D) subset matrix, row m marking the features of bit mask m, and the
    (2^D, D) Shapley coefficients: feature i's value is ``values @ coef[:, i]``.

    A subset S that holds i enters phi_i as +w(|S| - 1) and one without it as
    -w(|S|), where w(s) = s! (D - s - 1)! / D!.  Both are read-only: frames on
    several threads share them."""
    bits = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    total = math.factorial(d)
    # w(s) for s = 0 .. D; w(D) is never read, w(-1) indexes it for the empty subset
    w = np.array([math.factorial(s) * math.factorial(d - s - 1) / total
                  for s in range(d)] + [0.0])
    coef = np.where(bits, w[sizes - 1, None], -w[sizes, None])
    bits.flags.writeable = coef.flags.writeable = False
    return bits, coef


def shap_exact(model: ModelFn, x, baseline: Baseline) -> np.ndarray:
    """Attribution row by full subset enumeration; needs D <= 15."""
    x = _check_frame(x, baseline)
    d = baseline.dim
    if d > MAX_EXACT_DIM:
        raise ValueError(f"exact enumeration supports D <= {MAX_EXACT_DIM}; use shap_sampled")
    bits, coef = _subsets(d)
    values = np.asarray(model(np.where(bits, x, baseline.values)), dtype=float)
    return values @ coef


def shap_sampled(model: ModelFn, x, baseline: Baseline, n_permutations: int, seed):
    """Permutation-sampling attribution with antithetic pairing.

    Each drawn permutation is walked together with its reverse; the
    estimate is the mean over pair means and the standard error is taken
    across pairs (zero when only one pair is drawn).
    """
    x = _check_frame(x, baseline)
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    d = baseline.dim
    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(d) for _ in range(n_permutations)])
    walks = np.concatenate([perms, perms[:, ::-1]])

    # mask[j, k, f] marks feature f as revealed after k steps of walk j
    positions = np.argsort(walks, axis=1)
    revealed = positions[:, None, :] < np.arange(d + 1)[None, :, None]
    composites = np.where(revealed, x, baseline.values)
    values = np.asarray(model(composites.reshape(-1, d)), dtype=float)
    values = values.reshape(walks.shape[0], d + 1)

    contrib = np.empty((walks.shape[0], d))
    np.put_along_axis(contrib, walks, np.diff(values, axis=1), axis=1)
    pair_means = 0.5 * (contrib[:n_permutations] + contrib[n_permutations:])
    phi = pair_means.mean(axis=0)
    if n_permutations > 1:
        std_err = pair_means.std(axis=0, ddof=1) / math.sqrt(n_permutations)
    else:
        std_err = np.zeros(d)
    return phi, std_err


_FRAME_FUNCTIONS = (shap_exact, shap_sampled)


def _workers() -> int:
    """Threads ``explain_frames`` may use: one per core this process can run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def explain_frames(model: ModelFn, features, baseline: Baseline,
                   n_permutations: int = 200, seed: int = 0) -> ShapResult:
    """Attribute every row of a (T, D) feature matrix independently.

    Frames are attributed exactly when D <= ``MAX_EXACT_DIM``; wider ones are
    sampled with ``n_permutations`` antithetic pairs, frame k seeded by the
    k-th child of ``seed``, and carry standard errors. ``model`` is called
    from pool threads (see the module docstring), one frame's batch per call.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != baseline.dim:
        raise ValueError(f"feature matrix must be (T, {baseline.dim})")

    n_frames = features.shape[0]
    attributions = np.empty((n_frames, baseline.dim))
    exact = baseline.dim <= MAX_EXACT_DIM
    std_errors = None if exact else np.empty_like(attributions)
    children = None if exact else np.random.SeedSequence(seed).spawn(n_frames)

    def attribute(frames: range) -> None:
        for k in frames:
            if exact:
                attributions[k] = shap_exact(model, features[k], baseline)
            else:
                attributions[k], std_errors[k] = shap_sampled(
                    model, features[k], baseline, n_permutations, children[k])

    chunks = [range(k, min(k + FRAME_CHUNK, n_frames))
              for k in range(0, n_frames, FRAME_CHUNK)]
    with blas.one_thread() as pinned:
        base_value = float(model(baseline.values[None, :])[0])
        predicted = np.asarray(model(features), dtype=float)
        # frame functions replaced from outside (a call recorder, say) need not be
        # thread-safe, so they run here in frame order
        native = (shap_exact, shap_sampled) == _FRAME_FUNCTIONS
        workers = min(_workers(), len(chunks)) if pinned and native else 1
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(attribute, chunks))
        else:
            attribute(range(n_frames))
    return ShapResult(base_value, attributions, predicted, std_errors)


def global_importance(attributions, names: Sequence[str]):
    """Features ranked by mean |phi| over all attributed frames, descending.

    Ties keep manifest order, so a feature with phi identically zero
    always lands at the bottom.
    """
    attributions = np.asarray(attributions, dtype=float)
    if attributions.ndim != 2 or attributions.shape[0] == 0:
        raise ValueError("need a nonempty (N, D) attribution matrix")
    if attributions.shape[1] != len(names):
        raise ValueError("attribution width does not match feature names")
    scores = np.abs(attributions).mean(axis=0)
    order = np.argsort(-scores, kind="stable")
    return [(names[i], float(scores[i])) for i in order]
