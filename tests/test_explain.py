"""Shapley attribution: additivity, linear exactness, sampling behaviour."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from riskdecode import blas, explain
from riskdecode.explain import (MAX_EXACT_DIM, Baseline, ShapResult,
                                explain_frames, explain_jobs, global_importance,
                                mean_head, shap_exact,
                                shap_sampled)
from riskdecode.mlp import FORWARD_ROWS, MlpConfig, mlp_init, mlp_train

LIN_W = np.array([0.5, -1.0, 2.0, 0.0, 0.25, -0.75, 1.5, -0.1])


def linear_model(x):
    return np.asarray(x) @ LIN_W + 3.0


@pytest.fixture(scope="module")
def net_model():
    return mean_head(mlp_init(MlpConfig(input_dim=8, hidden=32, seed=6)))


@pytest.fixture(scope="module")
def frame_and_baseline():
    rng = np.random.default_rng(42)
    return rng.normal(size=8), Baseline(rng.normal(size=8) * 0.1)


def test_baseline_validation():
    with pytest.raises(ValueError):
        Baseline(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Baseline(np.array([]))
    with pytest.raises(ValueError):
        Baseline(np.array([1.0, np.nan]))
    base = Baseline.from_training(np.array([[1.0, 3.0], [3.0, 5.0]]))
    assert np.allclose(base.values, [2.0, 4.0])
    assert base.dim == 2


def test_exact_additivity(net_model, frame_and_baseline):
    x, base = frame_and_baseline
    phi = shap_exact(net_model, x, base)
    base_value = float(net_model(base.values[None, :])[0])
    predicted = float(net_model(x[None, :])[0])
    assert abs(base_value + phi.sum() - predicted) <= 1e-9


def test_exact_matches_linear_coefficients(frame_and_baseline):
    x, base = frame_and_baseline
    phi = shap_exact(linear_model, x, base)
    assert np.allclose(phi, LIN_W * (x - base.values), atol=1e-12)
    # the zero-coefficient feature gets exactly zero credit
    assert phi[3] == pytest.approx(0.0, abs=1e-12)


def shap_exact_loop(model, x, baseline):
    """Exact Shapley values feature by feature: phi_i sums w(|S|) (v(S + i) - v(S)) over
    the subsets S without i, w(s) = s! (D - s - 1)! / D!."""
    d = baseline.dim
    masks = np.arange(2 ** d)
    bits = (masks[:, None] >> np.arange(d)) & 1
    values = np.asarray(model(np.where(bits == 1, x, baseline.values)), dtype=float)
    sizes = bits.sum(axis=1)
    w = np.array([math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d)
                  for s in range(d)])
    phi = np.empty(d)
    for i in range(d):
        without = masks[bits[:, i] == 0]
        phi[i] = np.sum(w[sizes[without]] * (values[without + (1 << i)] - values[without]))
    return phi


@pytest.mark.parametrize("d", range(1, 13))
def test_exact_matches_the_per_feature_loop(d):
    model = mean_head(mlp_init(MlpConfig(input_dim=d, hidden=32, seed=d)))
    rng = np.random.default_rng(d)
    x, base = rng.normal(size=d), Baseline(rng.normal(size=d))
    assert np.max(np.abs(shap_exact(model, x, base) - shap_exact_loop(model, x, base))) <= 1e-12


def test_an_exact_frame_holds_one_block_of_the_hidden_layer():
    # 2^12 composites at H = 500 would be an 8 MB float32 hidden layer; the forward
    # pass's blocks keep an exact frame, its subset tables included, within 3 MB
    d = 12
    model = mean_head(mlp_init(MlpConfig(input_dim=d, seed=3)).astype(np.float32))
    rng = np.random.default_rng(3)
    x, base = rng.normal(size=d), Baseline(rng.normal(size=d))
    explain._subsets.cache_clear()
    tracemalloc.start()
    try:
        shap_exact(model, x, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_exact_dimension_cap():
    base = Baseline(np.zeros(MAX_EXACT_DIM + 1))
    with pytest.raises(ValueError, match="shap_sampled"):
        shap_exact(linear_model, np.zeros(MAX_EXACT_DIM + 1), base)


def test_sampled_tracks_exact(net_model, frame_and_baseline):
    x, base = frame_and_baseline
    phi = shap_exact(net_model, x, base)
    sampled, std_err = shap_sampled(net_model, x, base, 2000, 0)
    scale = np.max(np.abs(phi))
    assert np.max(np.abs(sampled - phi)) < 0.05 * scale
    assert np.all(std_err > 0.0)


def test_sampled_is_unbiased_over_seeds(net_model, frame_and_baseline):
    x, base = frame_and_baseline
    phi = shap_exact(net_model, x, base)
    acc = np.zeros_like(phi)
    for seed in range(50):
        estimate, _ = shap_sampled(net_model, x, base, 8, seed)
        acc += estimate
    acc /= 50
    assert np.max(np.abs(acc - phi)) < 0.03 * np.max(np.abs(phi))


def test_sampled_collapses_on_linear_models(frame_and_baseline):
    # marginal contributions are position-independent for a linear model,
    # so even a tiny sample is exact and the pair spread vanishes
    x, base = frame_and_baseline
    sampled, std_err = shap_sampled(linear_model, x, base, 4, 123)
    assert np.allclose(sampled, LIN_W * (x - base.values), atol=1e-12)
    assert np.max(std_err) <= 1e-12
    _, single = shap_sampled(linear_model, x, base, 1, 0)
    assert np.all(single == 0.0)
    with pytest.raises(ValueError):
        shap_sampled(linear_model, x, base, 0, 0)


def test_explain_frames_exact_mode(net_model, frame_and_baseline):
    _, base = frame_and_baseline
    rng = np.random.default_rng(7)
    features = rng.normal(size=(6, 8))
    result = explain_frames(net_model, features, base)
    assert isinstance(result, ShapResult)
    assert result.attributions.shape == (6, 8)
    assert result.std_errors is None
    totals = result.base_value + result.attributions.sum(axis=1)
    assert np.max(np.abs(totals - result.predicted)) <= 1e-9


def test_explain_frames_sampled_mode():
    d = MAX_EXACT_DIM + 1  # one past the exact cap, so frames are sampled
    model = mean_head(mlp_init(MlpConfig(input_dim=d, hidden=32, seed=6)))
    rng = np.random.default_rng(7)
    base = Baseline(rng.normal(size=d) * 0.1)
    features = rng.normal(size=(3, d))
    result = explain_frames(model, features, base, n_permutations=50, seed=1)
    assert result.std_errors is not None
    assert result.std_errors.shape == (3, d)
    rerun = explain_frames(model, features, base, n_permutations=50, seed=1)
    assert np.array_equal(result.attributions, rerun.attributions)
    with pytest.raises(ValueError):
        explain_frames(model, features[:, :5], base)


@pytest.mark.parametrize("d", [8, MAX_EXACT_DIM + 1])
def test_a_trained_float32_network_stays_additive(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(400, d))
    y = np.clip(5.0 + x[:, 0] - 0.5 * x[:, 1] * x[:, 2] + 0.3 * rng.normal(size=400), 0.0, 10.0)
    weights, _ = mlp_train(x, y, MlpConfig(input_dim=d, hidden=64, epochs=30, seed=1,
                                           learning_rate=0.01))
    model = mean_head(weights)
    assert model(x[:2]).dtype == np.float32
    result = explain_frames(model, x[:20], Baseline.from_training(x), n_permutations=16,
                            seed=3)
    # each frame's value comes from the batch that attributes it and again from the
    # batch of all frames, whose float32 rows may round apart: the bound is two
    # float32 steps at the largest prediction, about 1.9e-6 here (1e-9 in float64)
    bound = 2 * np.spacing(np.float32(np.abs(result.predicted).max()))
    gap = result.base_value + result.attributions.sum(axis=1) - result.predicted
    assert np.abs(gap).max() <= bound


def shap_sampled_loop(model, x, baseline, n_permutations, seed):
    """The sampled frame as a loop of ``rng.permutation`` draws, ``put_along_axis`` and
    numpy's ``mean`` and ``std``."""
    d = baseline.dim
    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(d) for _ in range(n_permutations)])
    walks = np.concatenate([perms, perms[:, ::-1]])
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


@pytest.mark.parametrize("d", [16, 21, 32])
@pytest.mark.parametrize("n_permutations", [1, 2, 6, 200])
def test_sampled_matches_the_permutation_loop_bit_for_bit(d, n_permutations):
    model = mean_head(mlp_init(MlpConfig(input_dim=d, hidden=32, seed=d)).astype(np.float32))
    rng = np.random.default_rng(d)
    x, base = rng.normal(size=d), Baseline(rng.normal(size=d))
    # a Generator given as the seed is used as it is, so both leave it where they stop
    lean, loop = np.random.default_rng(n_permutations), np.random.default_rng(n_permutations)
    phi, std_err = shap_sampled(model, x, base, n_permutations, lean)
    want_phi, want_std_err = shap_sampled_loop(model, x, base, n_permutations, loop)
    assert phi.tobytes() == want_phi.tobytes()
    assert std_err.tobytes() == want_std_err.tobytes()
    assert lean.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("d,frames", [(11, 20), (MAX_EXACT_DIM + 1, 19)])
def test_explain_frames_do_not_depend_on_the_worker_count(d, frames, monkeypatch):
    model = mean_head(mlp_init(MlpConfig(input_dim=d, hidden=32, seed=6)))
    rng = np.random.default_rng(d)
    base = Baseline(rng.normal(size=d) * 0.1)
    features = rng.normal(size=(frames, d))
    # an exact D = 11 frame (2,048 rows) fills a forward block; a sampled D = 16
    # frame at 6 permutations (204 rows) does not, so it stays on the calling thread
    blocked = explain._frame_rows(d, 6) >= FORWARD_ROWS
    assert blocked == (d == 11)
    results, callers = [], set()

    def recorded(x):
        callers.add(threading.get_ident())
        return model(x)

    for workers in (1, 3):
        monkeypatch.setattr(explain, "_workers", lambda: workers)
        callers.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the chunks interleave
        try:
            results.append(explain_frames(recorded, features, base, n_permutations=6, seed=2))
        finally:
            sys.setswitchinterval(interval)
        if blas._openblas() is not None:
            # block-sized frames reach pool threads only when there is more than one worker
            assert (len(callers) > 1) == (blocked and workers > 1)
    serial, pooled = results
    assert serial.attributions.tobytes() == pooled.attributions.tobytes()
    if d > MAX_EXACT_DIM:
        assert serial.std_errors.tobytes() == pooled.std_errors.tobytes()
    else:
        assert serial.std_errors is None and pooled.std_errors is None


def test_explain_jobs_do_not_depend_on_the_worker_count(monkeypatch):
    # at 8 permutations, an exact D = 11 frame (2,048 rows) and a sampled D = 32 frame
    # (528 rows) fill a forward block; a sampled D = 21 frame (352 rows) does not
    frames, n_permutations = 20, 8
    jobs, blocked = [], []
    for d in (11, 21, 32):
        model = mean_head(mlp_init(MlpConfig(input_dim=d, hidden=32, seed=d)))
        rng = np.random.default_rng(d)
        jobs.append((model, rng.normal(size=(frames, d)), Baseline(rng.normal(size=d) * 0.1)))
        blocked.append(explain._frame_rows(d, n_permutations) >= FORWARD_ROWS)
    assert blocked == [True, False, True]
    main = threading.get_ident()
    calls = [[] for _ in jobs]

    def recorded(job):
        model = jobs[job][0]

        def record(x):
            if len(x) == explain._frame_rows(jobs[job][2].dim, n_permutations):
                calls[job].append(threading.get_ident())
            return model(x)
        return record

    watched = [(recorded(job), features, base) for job, (_, features, base) in enumerate(jobs)]
    bad = [list(job) for job in watched]
    bad[2][1] = bad[2][1].copy()
    bad[2][1][13, 4] = np.nan
    pinned = blas._openblas() is not None
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(explain, "_workers", lambda: workers)
        for made in calls:
            made.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the chunks interleave
        try:
            results.append(explain_jobs(watched, n_permutations, seed=2))
            before = blas._openblas()[0]() if pinned else None
            # a frame that fails on a helper thread raises here, BLAS restored
            with pytest.raises(ValueError, match="finite"):
                explain_jobs(bad, n_permutations, seed=2)
            assert not pinned or blas._openblas()[0]() == before
        finally:
            sys.setswitchinterval(interval)
        on_helpers = [any(ident != main for ident in made) for made in calls]
        # block-sized frames reach a helper when there is one; smaller ones never do
        assert not on_helpers[1]
        assert (on_helpers[0] or on_helpers[2]) == (pinned and workers > 1)
    for result in results:
        for job, want in enumerate(results[0]):
            assert result[job].base_value == want.base_value
            assert result[job].predicted.tobytes() == want.predicted.tobytes()
            assert result[job].attributions.tobytes() == want.attributions.tobytes()
            if job == 0:
                assert result[job].std_errors is None
            else:
                assert result[job].std_errors.tobytes() == want.std_errors.tobytes()
    # one job at a time gives the same bytes as all jobs under one scheduler
    for (model, features, base), want in zip(jobs, results[0]):
        alone = explain_frames(model, features, base, n_permutations, seed=2)
        assert alone.attributions.tobytes() == want.attributions.tobytes()


def test_explain_frames_restore_the_blas_thread_count(monkeypatch):
    lib = blas._openblas()
    if lib is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    get, set_ = lib
    model = mean_head(mlp_init(MlpConfig(input_dim=11, hidden=32, seed=6)))
    seen = set()

    def recorded(x):
        seen.add(get())
        return model(x)

    rng = np.random.default_rng(3)
    base = Baseline(rng.normal(size=11) * 0.1)
    features = rng.normal(size=(20, 11))
    bad = features.copy()
    bad[13, 4] = np.nan
    monkeypatch.setattr(explain, "_workers", lambda: 2)
    original = get()
    set_(2)
    try:
        before = get()
        explain_frames(recorded, features, base)
        assert get() == before
        with pytest.raises(ValueError, match="finite"):
            explain_frames(recorded, bad, base)
        assert get() == before
    finally:
        set_(original)
    assert seen == {1}


def test_global_importance_ranking():
    attributions = np.array([
        [0.1, -2.0, 0.0, 0.5],
        [-0.3, 1.0, 0.0, 0.5],
    ])
    ranked = global_importance(attributions, ["a", "b", "c", "d"])
    assert [name for name, _ in ranked] == ["b", "d", "a", "c"]
    assert ranked[0][1] == pytest.approx(1.5)
    # ties keep manifest order
    tied = global_importance(np.array([[1.0, 1.0]]), ["x", "y"])
    assert [name for name, _ in tied] == ["x", "y"]
    with pytest.raises(ValueError):
        global_importance(np.empty((0, 2)), ["x", "y"])
    with pytest.raises(ValueError):
        global_importance(attributions, ["a", "b"])
