"""Benchmark of the phi4lab command line, one fresh process per invocation.

    python3 perfbench/run.py --workload simulate-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the commands import ``phi4lab``
from ``src``.  For ``--seconds`` it launches the workload's command again
and again, one process at a time (``perfbench/launch.py``, which calls
``phi4lab.cli.main``), checks every invocation's outputs and reports the
medians of the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced invocations and reports the per-layer metrics instead.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs and logs go to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
INVOCATION_TIMEOUT = 120.0

# Time-dependent coefficients, as in the non-autonomous model: a(t) = -1 + t/2.
_COEFFS = {"f2": [0.3, 0.2], "a": [-1.0, 0.5], "eps": 0.05, "lam": 0.01}

# name -> (CLI command, config without master_seed).  Every cutoff is N/2 - 1.
WORKLOADS = {
    "simulate-3d": ("simulate", {
        **_COEFFS, "dimension": 3, "N": 32, "cutoff": 15, "T": 0.05, "dt": 0.01,
        "sigma": 0.5, "ctilde_replicas": 8, "record_every": 1}),
    "equivalence-2d": ("equivalence", {
        **_COEFFS, "dimension": 2, "N": 64, "cutoff": 31, "T": 0.5, "dt": 0.0125,
        "sigma": 0.5, "ctilde_replicas": 24}),
    "tail-2d": ("tail", {
        **_COEFFS, "dimension": 2, "N": 64, "cutoff": 31, "T": 0.25, "dt": 0.0125,
        "sigma": [0.5, 1.0], "replicas": 100,
        "h_grid": [0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0, 1.1]}),
}


def config_doc(name: str, seed: int) -> dict:
    command, doc = WORKLOADS[name]
    return {**doc, "master_seed": random.Random(seed).getrandbits(32), "label": name}


def path_steps(command: str, doc: dict) -> int:
    """Time steps of all paths, counted from the inputs as each command documents them.

    simulate: M v/w steps plus the c~ Monte Carlo (ctilde_replicas linear
    paths of min(50, M) steps).  equivalence: direct and v/w routes at dt and
    dt/2 (6 M steps) plus the same Monte Carlo.  tail: one linear path of M
    steps per replica and sigma level.
    """
    M = round(doc["T"] / doc["dt"])
    mc = doc.get("ctilde_replicas", 24) * min(50, M)
    if command == "simulate":
        return M + mc
    if command == "equivalence":
        return 6 * M + mc
    return len(doc["sigma"]) * doc["replicas"] * M


def output_files(command: str, doc: dict) -> list[str]:
    if command == "simulate":
        return ["norms.csv", "phi_final.f64", "phi_final.f64.json"]
    if command == "equivalence":
        return ["equivalence.json"]
    files = []
    for sig in doc["sigma"]:
        base = "tail_s" + f"{sig:g}".replace(".", "p")
        files += [base + ".csv", base + ".json"]
    return files + ["tail_report.json"]


def child_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def invoke(command: str, cfg_path: Path, work: Path, traced: bool) -> dict:
    """Launch one CLI invocation, wait for it, and return its measurements.

    The command writes to the same relative ``--out`` every time, because the
    output directory is echoed into some output files; the directory is
    moved under ``work`` afterwards.
    """
    work.mkdir(parents=True)
    out = cfg_path.parent / "out"
    args = [sys.executable, str(BENCH / "launch.py"), str(work / "times.json")]
    if traced:
        args += ["--spans", str(work / "spans.json")]
    args += ["--", command, "--config", str(cfg_path), "--out", str(out.relative_to(ROOT))]
    with open(work / "log.txt", "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - launched > INVOCATION_TIMEOUT:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.monotonic() - launched
    if out.exists():
        out.rename(work / "out")
    if proc.returncode != 0:
        return {"ok": False, "seconds": seconds}
    stamps = json.loads((work / "times.json").read_text())
    package = ROOT / "src" / "phi4lab"
    if Path(stamps["package"]) != package.resolve():
        sys.exit(f"the command imported phi4lab from {stamps['package']}, not {package}")
    inv = {
        "ok": True,
        "seconds": seconds,
        "traced": traced,
        "setup_s": stamps["command_start"] - launched,
        "wall_s": stamps["command_end"] - stamps["command_start"],
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "out": work / "out",
        "spans": work / "spans.json",
    }
    print(f"{work.name}{' traced' if traced else ''}: setup {inv['setup_s']:.3f} s, "
          f"wall {inv['wall_s']:.3f} s, peak {inv['peak_rss_mib']:.1f} MiB", file=sys.stderr)
    return inv


def inputs_digest(doc: dict) -> str:
    """Digest of the config and of the package source: what the outputs depend on."""
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "phi4lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ledger_agrees(key: str, digests: dict) -> bool:
    """Output digests must repeat for the same inputs and code across runs."""
    path = RESULTS / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    if key in ledger:
        return ledger[key] == digests
    ledger[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import checks
    import spans

    command, _ = WORKLOADS[name]
    doc = config_doc(name, seed)
    files = output_files(command, doc)
    work = RESULTS / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(doc, indent=1))

    problems = []
    done, reference = [], None
    attempted = 0
    started = time.monotonic()
    while True:
        traced = trace and attempted % 2 == 1
        inv = invoke(command, cfg_path, work / f"inv{attempted}", traced)
        attempted += 1
        if inv["ok"]:
            try:
                digests = checks.manifest_digests(inv["out"], files)
                if reference is None:
                    checks.CHECKS[command](doc, inv["out"])
                    reference = digests
                checks.require(digests == reference,
                               "output digests differ between invocations of one input")
            except checks.CheckFailed as exc:
                problems.append(f"invocation {attempted - 1}: {exc}")
            done.append(inv)
        else:
            problems.append(f"invocation {attempted - 1} failed, see {work}/inv{attempted - 1}/log.txt")
        elapsed = time.monotonic() - started
        typical = statistics.median(i["seconds"] for i in done) if done else 0.0
        if attempted >= (2 if trace else 1) and elapsed + typical > seconds:
            break
    failed = attempted - len(done)
    if not done:
        sys.exit(f"{name}: every invocation failed: " + "; ".join(problems))
    key = f"{name}/{seed}/{inputs_digest(doc)}"
    if reference is not None and not ledger_agrees(key, reference):
        problems.append("output digests differ from an earlier run with the same seed")

    plain = [i for i in done if not i["traced"]]
    if not trace:
        steps = path_steps(command, doc)
        values = {
            "setup_s": statistics.median(i["setup_s"] for i in plain),
            "wall_s": statistics.median(i["wall_s"] for i in plain),
            "steps_per_s": statistics.median(steps / i["wall_s"] for i in plain),
            # the largest, not the median: simulate-3d peaks at one of two
            # levels about 8 MiB apart from one invocation to the next
            "peak_rss_mib": max(i["peak_rss_mib"] for i in plain),
        }
        wanted = spec["end_to_end"]
    else:
        traced_runs = [i for i in done if i["traced"]]
        if not plain or not traced_runs:
            sys.exit(f"{name}: the traced run needs one untraced and one traced invocation")
        layers = [spans.summarise(i["spans"]) for i in traced_runs]
        values = {}
        for metric in layers[0]:
            if metric.endswith((".s", ".self_s")):
                values[metric] = statistics.median(layer[metric] for layer in layers)
            else:
                values[metric] = layers[0][metric]
                if any(layer[metric] != values[metric] for layer in layers):
                    problems.append(f"{metric} differs between traced invocations")
        values["trace.overhead_s"] = (statistics.median(i["wall_s"] for i in traced_runs)
                                      - statistics.median(i["wall_s"] for i in plain))
        wanted = spec["per_layer"]
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for metric, entry in metrics.items():
        print(f"{name:15s} {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:15s} invocations {attempted}, failed {failed}, checks "
          + ("passed" if not problems else "FAILED"))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "phi4lab" / "cli.py").is_file():
        print(f"no phi4lab source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src" / "phi4lab"), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run(name, args.seed, args.seconds, bool(args.trace), spec) for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
