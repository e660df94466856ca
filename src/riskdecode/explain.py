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

Threads: ``explain_jobs`` attributes the frames of every (network, event) job
of a stage under one scheduler, with BLAS held at one thread. A frame whose
model batch fills at least one forward block (``mlp.FORWARD_ROWS`` rows; 2^D
exact, 2P(D + 1) sampled) spends most of its time in BLAS and numpy loops,
which release the GIL: those frames go onto one queue, in chunks of
``FRAME_CHUNK`` frames, that the calling thread and one helper thread per
further usable core drain. Smaller frames hold the GIL for much of their time,
so the calling thread runs them afterwards, alone: beside another thread they
would contend for the GIL and cost CPU time without saving wall time. Frames
are independent and each sampled frame keeps its own seed, so the attributions
do not depend on the number of threads. With one usable core, with another
BLAS than numpy's bundled OpenBLAS, or with a frame function replaced from
outside, every frame runs on the calling thread in job order. A frame's
composites go through ``mlp_forward`` in one call, which runs them in blocks of
``mlp.FORWARD_ROWS`` rows, so each thread holds one block of hidden layer
(1 MB at H = 500 in float32), not one frame's whole batch.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blas
from .mlp import FORWARD_ROWS, MlpWeights, mlp_forward

MAX_EXACT_DIM = 15
FRAME_CHUNK = 8  # frames per queued task

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


Job = tuple[ModelFn, np.ndarray, Baseline]  # a model, its (T, D) frames and its baseline


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
    # one call draws what n_permutations rng.permutation(d) calls would, in their order
    perms = rng.permuted(np.arange(d)[None].repeat(n_permutations, axis=0), axis=1)
    walks = np.concatenate([perms, perms[:, ::-1]])

    # mask[j, k, f] marks feature f as revealed after k steps of walk j
    positions = walks.argsort(axis=1)
    revealed = positions[:, None, :] < np.arange(d + 1)[None, :, None]
    composites = np.where(revealed, x, baseline.values)
    values = np.asarray(model(composites.reshape(-1, d)), dtype=float)
    values = values.reshape(walks.shape[0], d + 1)

    contrib = np.empty(walks.shape)
    contrib[np.arange(walks.shape[0])[:, None], walks] = values[:, 1:] - values[:, :-1]
    # pair means, their mean and their std(ddof=1), in numpy's own order of operations
    pairs = contrib[:n_permutations]
    pairs += contrib[n_permutations:]
    pairs *= 0.5
    phi = pairs.sum(axis=0)
    phi /= n_permutations
    if n_permutations == 1:
        return phi, np.zeros(d)
    pairs -= phi
    pairs *= pairs
    variance = pairs.sum(axis=0)
    variance /= n_permutations - 1
    return phi, np.sqrt(variance) / math.sqrt(n_permutations)


_FRAME_FUNCTIONS = (shap_exact, shap_sampled)


def _workers() -> int:
    """Threads ``explain_jobs`` may use: one per core this process can run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _frame_rows(d: int, n_permutations: int) -> int:
    """Model rows one frame evaluates: 2^D exact, 2P(D + 1) sampled."""
    return 2 ** d if d <= MAX_EXACT_DIM else 2 * n_permutations * (d + 1)


def explain_jobs(jobs: Sequence[Job], n_permutations: int = 200,
                 seed: int = 0) -> list[ShapResult]:
    """Attribute every row of each job's (T, D) feature matrix independently; one
    ``ShapResult`` per ``(model, features, baseline)`` job, in job order.

    Frames are attributed exactly when D <= ``MAX_EXACT_DIM``; wider ones are
    sampled with ``n_permutations`` antithetic pairs, frame k of every job seeded
    by the k-th child of ``seed``, and carry standard errors. ``model`` may be
    called from helper threads (see the module docstring), one frame's batch per
    call.
    """
    checked = []
    for model, features, baseline in jobs:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != baseline.dim:
            raise ValueError(f"feature matrix must be (T, {baseline.dim})")
        checked.append((model, features, baseline))
    attributions = [np.empty(features.shape) for _, features, _ in checked]
    std_errors = [None if baseline.dim <= MAX_EXACT_DIM else np.empty(features.shape)
                  for _, features, baseline in checked]

    def attribute(job: int, frames: range) -> None:
        model, features, baseline = checked[job]
        for k in frames:
            if std_errors[job] is None:
                attributions[job][k] = shap_exact(model, features[k], baseline)
            else:
                attributions[job][k], std_errors[job][k] = shap_sampled(
                    model, features[k], baseline, n_permutations,
                    np.random.SeedSequence(seed, spawn_key=(k,)))

    def drain() -> None:
        try:
            while True:
                try:
                    job, frames = chunks.popleft()
                except IndexError:
                    return
                attribute(job, frames)
        except BaseException:
            chunks.clear()  # the other threads stop after their current chunk
            raise

    with blas.one_thread() as pinned:
        # frame functions replaced from outside (a call recorder, say) need not be
        # thread-safe, so they run here in job and frame order
        native = (shap_exact, shap_sampled) == _FRAME_FUNCTIONS
        helpers = _workers() - 1 if pinned and native else 0
        queued = [job for job, (_, _, baseline) in enumerate(checked) if helpers
                  and _frame_rows(baseline.dim, n_permutations) >= FORWARD_ROWS]
        chunks = collections.deque(
            (job, range(k, min(k + FRAME_CHUNK, len(checked[job][1]))))
            for job in queued for k in range(0, len(checked[job][1]), FRAME_CHUNK))
        helpers = min(helpers, len(chunks))
        if helpers:
            with ThreadPoolExecutor(max_workers=helpers) as pool:
                running = [pool.submit(drain) for _ in range(helpers)]
                drain()
                for future in running:
                    future.result()
        # the smaller frames run here alone, once the queue is empty (module docstring)
        results = []
        for job, (model, features, baseline) in enumerate(checked):
            results.append((float(model(baseline.values[None, :])[0]),
                            np.asarray(model(features), dtype=float)))
            if job not in queued:
                attribute(job, range(len(features)))
    return [ShapResult(base_value, attributions[job], predicted, std_errors[job])
            for job, (base_value, predicted) in enumerate(results)]


def explain_frames(model: ModelFn, features, baseline: Baseline,
                   n_permutations: int = 200, seed: int = 0) -> ShapResult:
    """Attribute every row of a (T, D) feature matrix: ``explain_jobs`` with one job."""
    return explain_jobs([(model, features, baseline)], n_permutations, seed)[0]


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
