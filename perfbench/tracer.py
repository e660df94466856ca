"""Span tracing of the riskdecode layers from outside the package.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds each module attribute (and module-level dict entry) that holds the
same function object, so calls made through ``from .x import f`` imports are
traced too.  Spans (name, start, end, parent) stay in memory; ``metrics``
reduces them to the per-layer figures once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("scenarios", "synthetic", "reconstruction", "features", "risk_models",
          "calibration", "mlp", "explain", "pipeline")
# Modules that hold bindings to layer functions (the package re-exports some).
BINDING_MODULES = ("riskdecode",) + tuple(f"riskdecode.{m}" for m in LAYERS)
STAGE_FUNCTIONS = ("run_generate", "write_synthetic_ratings", "run_ingest", "run_reconstruct",
                   "run_features", "run_train", "run_predict", "run_calibrate", "run_explain",
                   "run_report")

# (metric name, unit), in report order.  ``trace_overhead`` is added by the
# orchestrator, which sees both traced and untraced passes.
PER_LAYER = [
    *[(f"scenarios.{f}.{k}", u) for f in ("enumerate_events", "event_by_id", "simulate_event")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("scenarios.resim_ratio", "ratio"),
    ("features.build_features.calls", "count"), ("features.build_features.self_s", "s"),
    ("features.frames", "count"), ("features.zscore_apply.self_s", "s"),
    ("synthetic.planted_truth.busy_s", "s"), ("synthetic.synthetic_ratings.busy_s", "s"),
    *[(f"reconstruction.{f}.{k}", u)
      for f in ("load_alignment_table", "filter_ratings", "reconstruct_participant",
                "aggregate_curves")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("reconstruction.kept_ratio", "ratio"),
    *[(f"risk_models.{f}.{k}", u) for f in ("pcad_risk_series", "drf_risk_series")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("risk_models.frames", "count"),
    ("calibration.calibrate.busy_s", "s"), ("calibration.calibrate.self_s", "s"),
    ("calibration.draw_ms", "ms"), ("calibration.degenerate_ratio", "ratio"),
    ("calibration.compare_models.self_s", "s"),
    ("mlp.mlp_train.busy_s", "s"), ("mlp.mlp_train.self_s", "s"),
    ("mlp.mlp_forward.calls", "count"), ("mlp.mlp_forward.rows", "count"),
    ("mlp.mlp_forward.self_s", "s"), ("mlp.flops", "count"), ("mlp.mlp_predict.self_s", "s"),
    ("explain.explain_frames.busy_s", "s"),
    *[(f"explain.{f}.{k}", u) for f in ("shap_exact", "shap_sampled")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("explain.exact_frame_ms", "ms"), ("explain.sampled_frame_ms", "ms"),
    ("explain.model_rows", "count"),
    *[(f"pipeline.{f}.busy_s", "s") for f in STAGE_FUNCTIONS],
    *[(f"pipeline.{f}.{k}", u) for f in ("read_csv", "write_csv", "write_json")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("pipeline.bytes_written", "bytes"),
    ("pipeline.probe_failed", "count"),
]


def _arg(bound: inspect.BoundArguments, name: str):
    return bound.arguments[name]


class Tracer:
    """Wraps the layer functions of one process and records their spans."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, start, end, parent span, facts]
        self._stack: list = []
        self._patched: list = []
        self._catalog: dict = {}
        self._observers = {
            "scenarios.simulate_event": lambda b, r: {"event": _arg(b, "spec").event_id},
            "features.build_features": lambda b, r: {"frames": r.shape[0]},
            "reconstruction.filter_ratings": lambda b, r: {"in": len(_arg(b, "records")),
                                                           "kept": len(r)},
            "risk_models.pcad_risk_series": lambda b, r: {"frames": r.size},
            "risk_models.drf_risk_series": lambda b, r: {"frames": r.size},
            "calibration.calibrate": self._observe_calibrate,
            "mlp.mlp_forward": self._observe_forward,
            "explain.shap_exact": lambda b, r: {"expected_rows": 2 ** _arg(b, "baseline").dim},
            "explain.shap_sampled": lambda b, r: {
                "expected_rows": 2 * _arg(b, "n_permutations") * (_arg(b, "baseline").dim + 1)},
            "pipeline.write_csv": lambda b, r: {"bytes": Path(r).stat().st_size},
            "pipeline.write_json": lambda b, r: {"bytes": Path(r).stat().st_size},
        }

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        scenarios = importlib.import_module("riskdecode.scenarios")
        self._catalog = {s.event_id: (s.family, s.n_frames) for s in scenarios.enumerate_events()}
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"riskdecode.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname in BINDING_MODULES:
            module = importlib.import_module(modname)
            for key, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._rebind(value, k, v, wrappers, dict.__setitem__)
                else:
                    self._rebind(module, key, value, wrappers, setattr)

    def _rebind(self, holder, key, value, wrappers, setter) -> None:
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            setter(holder, key, hit[1])
            self._patched.append((holder, key, value, setter))

    def uninstall(self) -> None:
        for holder, key, value, setter in reversed(self._patched):
            setter(holder, key, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        observer = self._observers.get(name)
        signature = inspect.signature(fn) if observer else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            slot = len(spans)
            spans.append(span)
            stack.append(slot)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observer is not None:
                span[4] = observer(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _observe_calibrate(self, bound, result) -> dict:
        job = _arg(bound, "job")
        families = {self._catalog[eid][0] for eid in job.targets}
        per_draw = sum(n for fam, n in self._catalog.values() if fam in families)
        degenerate = sum(1 for row in result.trace if math.isinf(row["rmse"]))
        return {"draws": job.draws, "degenerate": degenerate, "expected_frames": per_draw}

    @staticmethod
    def _observe_forward(bound, result) -> dict:
        weights = _arg(bound, "weights")
        rows = len(result[0])
        d, h = weights.w1.shape
        return {"rows": rows, "flops": 2 * rows * (d * h + h * weights.w2.shape[1])}

    # -- reduction ----------------------------------------------------------

    def _ancestor(self, slot: int, name: str) -> int:
        """Nearest enclosing span of function ``name``, or -1."""
        target = self._index.get(name)
        parent = self.spans[slot][3] if target is not None else -1
        while parent >= 0 and self.spans[parent][0] != target:
            parent = self.spans[parent][3]
        return parent

    def metrics(self) -> tuple:
        """(per-layer metrics, self-check results) from the recorded spans."""
        spans, names = self.spans, self.names
        self._index = {name: i for i, name in enumerate(names)}
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        busy_s: dict = defaultdict(float)
        facts: dict = defaultdict(list)
        for slot, (index, start, end, parent, fact) in enumerate(spans):
            name = names[index]
            calls[name] += 1
            self_s[name] += end - start - child_time[slot]
            total_s[name] += end - start
            if self._ancestor(slot, name) < 0:
                busy_s[name] += end - start
            if fact is not None:
                facts[name].append((slot, fact))

        def total(name, key):
            return sum(f[key] for _, f in facts[name])

        # model rows evaluated under each Shapley frame, and risk-model frames
        # evaluated under each calibration call
        frame_rows: dict = defaultdict(int)
        for slot, fact in facts["mlp.mlp_forward"]:
            for frame_fn in ("explain.shap_exact", "explain.shap_sampled"):
                owner = self._ancestor(slot, frame_fn)
                if owner >= 0:
                    frame_rows[owner] += fact["rows"]
        calib_frames: dict = defaultdict(int)
        for fn in ("risk_models.pcad_risk_series", "risk_models.drf_risk_series"):
            for slot, fact in facts[fn]:
                owner = self._ancestor(slot, "calibration.calibrate")
                if owner >= 0:
                    calib_frames[owner] += fact["frames"]

        bad_frames = [slot for fn in ("explain.shap_exact", "explain.shap_sampled")
                      for slot, fact in facts[fn] if frame_rows[slot] != fact["expected_rows"]]
        bad_draws = [slot for slot, fact in facts["calibration.calibrate"]
                     if calib_frames[slot] != fact["draws"] * fact["expected_frames"]]
        n_frames = calls["explain.shap_exact"] + calls["explain.shap_sampled"]
        checks = [
            ("model_rows_per_frame", not bad_frames,
             f"{len(bad_frames)} of {n_frames} Shapley frames off 2^D / 2P(D+1)"),
            ("risk_frames_per_draw", not bad_draws,
             f"{len(bad_draws)} of {calls['calibration.calibrate']} calibrations off "
             "the catalog frame total per draw"),
        ]

        def ratio(a, b):
            return a / b if b else 0.0

        draws = total("calibration.calibrate", "draws")
        derived = {
            "scenarios.resim_ratio": ratio(
                calls["scenarios.simulate_event"],
                len({f["event"] for _, f in facts["scenarios.simulate_event"]})),
            "features.frames": total("features.build_features", "frames"),
            "reconstruction.kept_ratio": ratio(total("reconstruction.filter_ratings", "kept"),
                                               total("reconstruction.filter_ratings", "in")),
            "risk_models.frames": total("risk_models.pcad_risk_series", "frames")
            + total("risk_models.drf_risk_series", "frames"),
            "calibration.draw_ms": 1e3 * ratio(busy_s["calibration.calibrate"], draws),
            "calibration.degenerate_ratio": ratio(total("calibration.calibrate", "degenerate"),
                                                  draws),
            "mlp.mlp_forward.rows": total("mlp.mlp_forward", "rows"),
            "mlp.flops": total("mlp.mlp_forward", "flops"),
            "explain.exact_frame_ms": 1e3 * ratio(total_s["explain.shap_exact"],
                                                  calls["explain.shap_exact"]),
            "explain.sampled_frame_ms": 1e3 * ratio(total_s["explain.shap_sampled"],
                                                    calls["explain.shap_sampled"]),
            "explain.model_rows": sum(frame_rows.values()),
            "pipeline.bytes_written": total("pipeline.write_csv", "bytes")
            + total("pipeline.write_json", "bytes"),
        }
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            fn, _, kind = metric.rpartition(".")
            source = {"calls": calls, "self_s": self_s, "busy_s": busy_s}.get(kind)
            if source is not None:
                out[metric] = source[fn]
        return out, checks

    def dump(self, path: Path) -> None:
        """Write the spans once, as offsets from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {"names": self.names,
                   "spans": [[s[0], round(s[1] - origin, 7), round(s[2] - s[1], 7), s[3]]
                             for s in self.spans]}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
