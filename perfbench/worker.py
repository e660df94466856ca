"""One benchmark pass in a fresh interpreter.

The orchestrator (run.py) starts this script once per pass, because every
``riskdecode`` command pays for interpreter start-up, imports, catalog
construction and loading the alignment table.  The pass runs the workload's
set-up stages untimed, times its stages, then checks the artifacts and
writes one JSON result file.

    python3 perfbench/worker.py --workload NAME --seed N --run-dir DIR \
        --result FILE --spawn-ns NS [--traced | --setup]

``--spawn-ns`` is the ``time.monotonic_ns()`` reading the orchestrator took
just before starting this process; set-up time is measured from it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import (STAGE_CHECKS, digests, input_sizes, probe_inputs, probe_outcome,
                    quality)
from workloads import WORKLOADS, run_stage

ROOT = Path(__file__).resolve().parent.parent


def _import_pipeline():
    sys.path.insert(0, str(ROOT / "src"))
    from riskdecode import pipeline

    source = Path(pipeline.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"riskdecode imported from {source}, not from {ROOT / 'src'}")
    return pipeline


def blas_info() -> dict:
    """BLAS name and version from numpy.show_config, plus its thread count."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "numpy": numpy.__version__}


def judge(out: Path, w, stages: list) -> list:
    """Run the output checks of every stage that completed; a stage whose
    check fails is marked failed."""
    checks = []
    for entry in stages:
        if entry["ok"] and entry["stage"] in STAGE_CHECKS:
            try:
                results = STAGE_CHECKS[entry["stage"]](out, w)
            except (OSError, KeyError, ValueError) as exc:
                results = [(f"{entry['stage']}_artifacts", False, f"{type(exc).__name__}: {exc}")]
            checks += [{"stage": entry["stage"], "check": n, "ok": ok, "detail": d}
                       for n, ok, d in results]
            entry["ok"] = all(ok for _, ok, _ in results)
    return checks


def run_pass(args) -> dict:
    pipeline = _import_pipeline()
    w = WORKLOADS[args.workload]
    out = Path(args.run_dir)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []

    def call(stage) -> bool:
        start = time.perf_counter()
        try:
            run_stage(pipeline, stage, out, args.seed, w)
        except Exception as exc:  # a failing stage is a measured outcome
            stages.append({"stage": stage, "ok": False, "error": f"{type(exc).__name__}: {exc}",
                           "trace": traceback.format_exc()})
            return False
        stages.append({"stage": stage, "ok": True, "wall_s": time.perf_counter() - start})
        return True

    plan = w.setup if args.setup else w.setup + w.timed
    ok = all(call(stage) for stage in w.setup)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    cpu0, wall0 = time.process_time(), time.perf_counter()
    ok = ok and all(call(stage) for stage in plan[len(w.setup):])
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = trace_checks = None
    if tracer is not None:
        tracer.uninstall()
        trace, trace_checks = tracer.metrics()
        tracer.dump(Path(f"{out}-spans.json"))

    # untimed known-defect probes on three-event slices of the ratings file
    probes = []
    if w.probes and ok and not args.setup:
        for name, path in probe_inputs(out / "ratings.csv", args.seed,
                                       Path(f"{out}-probes")).items():
            try:
                pipeline.run_ingest(path.parent / name, path, args.seed)
                error = probe_outcome(path.parent / name, path)
            except ValueError as exc:
                error = str(exc)
            probes.append({"probe": name, "ok": error is None, "error": error})
    if trace is not None:
        trace["pipeline.probe_failed"] = sum(1 for p in probes if not p["ok"])

    full = ok and not args.setup
    return {
        "workload": w.name, "seed": args.seed, "traced": bool(args.traced),
        "setup_only": bool(args.setup),
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "stages": stages, "not_run": list(plan[len(stages):]),
        "checks": judge(out, w, stages), "probes": probes,
        "quality": quality(out, plan) if full else {},
        "inputs": input_sizes(out) if full else {},
        "digests": digests(out) if not args.setup else {},
        "trace": trace,
        "trace_checks": [{"check": n, "ok": good, "detail": d}
                         for n, good, d in trace_checks or ()],
        "blas": blas_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true", help="trace the layer functions")
    mode.add_argument("--setup", action="store_true", help="stop after the set-up stages")
    args = parser.parse_args(argv)
    result = run_pass(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
