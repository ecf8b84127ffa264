"""lightsim benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the repository root::

    python3 bench/run.py --workload selftest-256 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
``setup_s`` (fresh interpreter to lightsim imported and the workload's
inputs generated; median of several fresh processes), ``wall_s`` (median
time of one pass over the workload, after a warm-up pass at n=256) and
``peak_rss_mb`` (peak resident memory of the workload process).
``fail_frac`` (configs that raised, had a failing summary row or failed a
benchmark output check, over configs attempted) is printed by name and
carried by the ``failed`` / ``attempted`` fields of the result line.

``--trace 1`` runs the workload once more with every lightsim layer
wrapped in spans (see spans.py) and reports the per-layer metrics of
BENCHMARK.json, the tracing overhead and the share of the traced wall
time the layers account for.  Import times come from ``-X importtime``.

The workloads are defined, and their choice explained, in workloads.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw samples and the machine and software facts of the run.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SETUP_SAMPLES = 3        # fresh processes timed for setup_s
IMPORTTIME_SAMPLES = 3   # fresh processes timed for <layer>.import_s
TIME_LIMIT = 170.0       # seconds one workload may take, all processes
PERCENTILES = (99, 95, 90, 75, 50)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # At most nproc threads in the native thread pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(os.cpu_count() or 1)
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark exceeded its time limit")
        return left


def run_worker(args, mode, work_dir, deadline):
    """Start a worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode, "--work-dir", str(work_dir)]
    work_dir.mkdir(parents=True)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {mode} failed with exit code {code}")
    deadline.left()
    return setup, (json.loads(out.splitlines()[-1]) if mode != "setup"
                   else None)


def import_times(deadline):
    """Median cumulative import time [s] of each lightsim module."""
    samples = {}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import lightsim, lightsim.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline.left(), check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name.startswith("lightsim."):
                samples.setdefault(name[len("lightsim."):], []).append(
                    int(cumulative) / 1e6)
    return {m: statistics.median(v) for m, v in samples.items()}


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    for p in PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[p - 1]
    return None


def machine_facts(args):
    facts = {"nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "cpu_model": None, "caches": {},
             "python": platform.python_version(),
             "numpy": importlib.metadata.version("numpy"),
             "scipy": importlib.metadata.version("scipy"),
             "git_commit": None, "src_sha256": None,
             "seed": args.seed, "seconds": args.seconds,
             "thread_cap": child_env()["OMP_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    if (ROOT / ".git").exists():
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lightsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def measure_workload(args, work_dir):
    """Raw samples and metric values of one workload run."""
    deadline = Deadline(TIME_LIMIT)
    if args.trace:
        imports = import_times(deadline)
        setup, result = run_worker(args, "trace", work_dir / "trace",
                                   deadline)
        values = dict(result["layers"])
        for layer in LAYERS:
            values[f"{layer}.import_s"] = imports[layer]
        values["trace.wall_untraced_s"] = statistics.median(result["wall_s"])
        values["trace.wall_traced_s"] = statistics.median(
            result["traced_wall_s"])
        return [setup], result, values
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(args, "setup", work_dir / f"setup{i}",
                                 deadline)[0])
    setup, result = run_worker(args, "run", work_dir / "run", deadline)
    setups.append(setup)
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(result["wall_s"]),
              "peak_rss_mb": result["peak_rss_mb"]}
    return setups, result, values


def report(args, setups, result, values):
    """Print the human-readable table and the detail line; return the
    result object."""
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[kind]}
    attempted, failed = result["attempted"], result["failed"]
    walls = result["wall_s"]
    print(f"== {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    else:
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no percentile has >=10 samples beyond it")
        print(f"  setup_s      {values['setup_s']:10.4f} s   median of "
              f"{len(setups)} fresh processes")
        print(f"  wall_s       {values['wall_s']:10.4f} s   median of "
              f"{len(walls)} passes; {tail_text}")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:10.1f} MB")
    print(f"  fail_frac    {failed / attempted:10.4f} fraction   {failed} "
          f"of {attempted} configs")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    detail = {"workload": args.workload, "trace": args.trace,
              "setup_s": setups, "warmup_s": result["warmup_s"],
              "wall_s": walls, "traced_wall_s": result["traced_wall_s"],
              "fail_frac": failed / attempted,
              "wall_tail": tail_percentile(walls),
              "machine": machine_facts(args)}
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="lightsim benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lightsim" / "__init__.py").is_file():
        print(f"no lightsim sources under {SRC}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work_root, ignore_errors=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results.append(report(one, *measure_workload(
                one, work_root / name)))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
