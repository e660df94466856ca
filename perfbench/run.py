"""riskdecode pipeline benchmark.

    python3 perfbench/run.py --workload {rehearsal,ratings_scale,model_fit,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each pass is a fresh interpreter
(perfbench/worker.py) that builds its inputs from the seed, runs the
workload's set-up stages untimed, times its stages and checks the outputs.
Full passes repeat until ``--seconds`` have elapsed, set-up-only passes
then bring the set-up samples to MIN_SETUPS, and every metric is the median
over passes.  With ``--trace 1`` every second full pass is traced and the
per-layer metrics come from the traced passes; the others give the untraced
wall time the tracing overhead is measured against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.  A per-workload table of every metric,
the output checks and the provenance go to the lines before it, and the
full record goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import KNOWN_DEFECTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_SETUPS = 2
RUN_LIMIT_S = 170.0  # no pass starts that could end after this
TABLE_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
               "fail_ratio": "ratio", "val_rmse": "rating pts", "pcad_rmse": "rating pts",
               "drf_rmse": "rating pts", "shap_std_err": "phi units"}
COUNT_UNITS = ("count", "ratio", "bytes")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, crashed pass)."""


def source_digest() -> str:
    """sha256 over the package sources and the benchmark's code."""
    h = hashlib.sha256()
    files = [p for p in sorted((ROOT / "src").rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    for p in files + sorted(HERE.glob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def spawn(args: list, log: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass exceeded {timeout:.0f} s; see {log}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return proc


def one_pass(name: str, seed: int, index: int, mode: str, deadline: float) -> dict:
    """Run one worker; ``mode`` is ``plain``, ``traced`` or ``setup`` (set-up only)."""
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-pass{index}"
    run_dir, result, log = runs / tag, runs / f"{tag}.json", runs / f"{tag}.log"
    result.unlink(missing_ok=True)
    argv = ["--workload", name, "--seed", str(seed), "--run-dir", str(run_dir),
            "--result", str(result)]
    if mode != "plain":
        argv.append(f"--{mode}")
    start = time.monotonic()
    proc = spawn(argv + ["--spawn-ns", str(time.monotonic_ns())], log, deadline - start)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"pass {index} of {name} exited with {proc.returncode}; see {log}")
    outcome = json.loads(result.read_text(encoding="utf-8"))
    outcome["pass_s"] = time.monotonic() - start
    return outcome


def run_passes(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Full passes until ``seconds`` have elapsed and the workload's least
    number of untraced passes ran (with ``trace``, alternately untraced and
    traced, one of each at least), then set-up-only passes until set-up has
    been measured MIN_SETUPS times."""
    shutil.rmtree(OUT / "runs", ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 5

    def room_for(seconds_needed: float) -> bool:
        return time.monotonic() - start + seconds_needed <= RUN_LIMIT_S

    full, setups = [], []
    while True:
        mode = "traced" if trace and len(full) % 2 else "plain"
        full.append(one_pass(name, seed, len(full), mode, deadline))
        plain = sum(1 for p in full if not p["traced"])
        least = 1 if trace else WORKLOADS[name].passes
        done = (plain >= least and len(full) - plain >= trace
                and time.monotonic() - start >= seconds)
        if done or not room_for(max(p["pass_s"] for p in full)):
            break
    while sum(1 for p in full + setups if not p["traced"]) < MIN_SETUPS:
        if not room_for(1.0 + max(p["setup_s"] for p in full + setups)):
            break
        setups.append(one_pass(name, seed, len(full) + len(setups), "setup", deadline))
        shutil.rmtree(OUT / "runs" / f"{name}-seed{seed}-pass{len(full) + len(setups) - 1}")
    return full, setups


def compare_record(key: str, record: dict) -> list:
    """Match this run against the stored record of the same workload, seed and
    source; store the record when there is none yet."""
    path = OUT / "records" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems = [f"{field} differ from the previous run with this seed"
                for field, value in record.items()
                if value is not None and old.get(field) is not None and old[field] != value]
    merged = {**old, **{k: v for k, v in record.items() if v is not None}}
    path.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    return problems


def summarize(name: str, seed: int, trace: bool, full: list, setups: list, spec: dict) -> dict:
    w = WORKLOADS[name]
    plain = [p for p in full if not p["traced"]]
    traced = [p for p in full if p["traced"]]
    every = full + setups
    problems = []

    attempted = sum(len(p["stages"]) + len(p["not_run"]) for p in every)
    failed = sum(sum(1 for s in p["stages"] if not s["ok"]) + len(p["not_run"]) for p in every)
    for p in every:
        problems += [f"stage {s['stage']}: {s['error']}" for s in p["stages"] if s.get("error")]
        problems += [f"check {c['check']}: {c['detail']}" for c in p["checks"] if not c["ok"]]
        problems += [f"counter {c['check']}: {c['detail']}" for c in p["trace_checks"]
                     if not c["ok"]]
    probes = [pr for p in full for pr in p["probes"]]
    probes_failed = sum(1 for pr in probes if not pr["ok"])

    # byte identity and exact counts: across the passes of this run, then
    # against the previous run of the same workload, seed and sources
    if any(p["digests"] != full[0]["digests"] for p in full):
        problems.append("artifact digests differ between passes of one seed")
    count_names = [m["name"] for m in spec["per_layer"]
                   if m["unit"] in COUNT_UNITS and m["name"] != "trace_overhead"]
    counts = None
    if traced:
        counts = {n: traced[0]["trace"][n] for n in count_names}
        if any({n: p["trace"][n] for n in count_names} != counts for p in traced):
            problems.append("count metrics differ between traced passes")
    problems += compare_record(f"{name}-seed{seed}-{source_digest()[:16]}",
                               {"digests": full[0]["digests"], "counts": counts,
                                "quality": full[0]["quality"]})

    stage_s = {}
    for stage in w.timed:
        vals = [s["wall_s"] for p in plain for s in p["stages"]
                if s["stage"] == stage and s["ok"]]
        if vals:
            stage_s[f"{stage}_s"] = median(vals)
    table = {
        "setup_s": median([p["setup_s"] for p in plain + setups]),
        "wall_s": median([p["wall_s"] for p in plain]),
        "cpu_s": median([p["cpu_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "fail_ratio": (failed + probes_failed) / (attempted + len(probes)),
        **stage_s,
        **full[0]["quality"],
    }
    if trace:
        layer = {m["name"]: median([p["trace"][m["name"]] for p in traced])
                 for m in spec["per_layer"] if m["name"] != "trace_overhead"}
        layer["trace_overhead"] = median([p["wall_s"] for p in traced]) / table["wall_s"] - 1.0
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    return {
        "workload": name, "seed": seed, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "probes": {"attempted": len(probes), "failed": probes_failed,
                   "errors": sorted({pr["error"] for pr in probes if pr["error"]})},
        "table": table, "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "digests"} for p in every],
        "digests": full[0]["digests"],
    }


def provenance(name: str, seed: int, seconds: int, trace: bool, first: dict,
               loadavg) -> dict:
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "blas": first["blas"],
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "seed": seed, "run_seconds": seconds, "trace": trace,
        "workload": WORKLOADS[name].params(), "inputs": first["inputs"],
        "loadavg_at_start": loadavg,
    }


def print_table(result: dict, prov: dict) -> None:
    w = WORKLOADS[result["workload"]]
    kinds = [("setup" if p["setup_only"] else "traced" if p["traced"] else "plain")
             for p in result["passes"]]
    print(f"== {w.name}  seed {result['seed']}  passes: {kinds.count('plain')} untraced, "
          f"{kinds.count('traced')} traced, {kinds.count('setup')} set-up only  "
          f"inputs {prov['inputs']}")
    print(f"   why: {w.why}")
    for metric, value in result["table"].items():
        unit = TABLE_UNITS.get(metric, "s")
        print(f"   {metric:<14} {value:>14.6f} {unit}")
    probes = result["probes"]
    print(f"   operations     {result['attempted']} stage calls, {result['failed']} failed; "
          f"probes {probes['attempted']}, {probes['failed']} failed")
    for err in probes["errors"]:
        known = " (known ingest defect)" if any(d in err for d in KNOWN_DEFECTS) else ""
        print(f"   probe error    {err}{known}")
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"   {name:<40} {m['value']:>16.6f} {m['unit']}")
    verdict = "all checks passed" if result["correct"] else "FAILED: " + "; ".join(
        result["problems"][:5])
    print(f"   checks         {verdict}; {len(result['digests'])} artifacts hashed")
    print(f"   provenance     nproc {prov['nproc']}, python {prov['python']}, "
          f"numpy {prov['blas']['numpy']}, {prov['blas']['name']} {prov['blas']['version']} "
          f"({prov['blas']['threads']} threads), commit {prov['git_commit']}, "
          f"loadavg {prov['loadavg_at_start']}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    loadavg = list(os.getloadavg())
    full, setups = run_passes(name, seed, seconds, trace)
    result = summarize(name, seed, trace, full, setups, spec)
    prov = provenance(name, seed, seconds, trace, full[0], loadavg)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1), encoding="utf-8")
    print_table(result, prov)
    return result


def main(argv=None) -> int:
    # a terminated run still stops its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "riskdecode" / "__init__.py").is_file():
            raise BenchError(f"no riskdecode sources under {ROOT / 'src'}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = []
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace), spec)
            lines.append({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
