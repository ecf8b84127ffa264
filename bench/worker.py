"""One benchmark process: set up a workload, then time passes over it.

Started by ``run.py`` with ``src`` on PYTHONPATH.  It prints ``ready``
once lightsim is imported and the workload's inputs exist (the parent
times set-up up to that line), then, unless ``--mode setup``, runs one
warm-up pass (the workload's configs at n=256) and timed passes for about
``--seconds``, and prints one JSON line with the pass times, the
output-check outcome and the peak resident memory.  ``--mode trace``
alternates untraced and traced passes and adds the per-layer totals of
the traced ones.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import lightsim
from lightsim.scenarios import SCENARIOS
from spans import KERNELS, LAYERS, Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent

MIN_PASSES = 2   # timed passes per untraced run, however short --seconds is
# Grid size of the warm-up pass.  It runs every code path the timed passes
# use; a full-size first pass measured as fast as the passes after it, so
# the warm-up need not be full size.
WARMUP_N = 256


def timed_pass(work, outcome, tracer=None):
    work.prepare()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        result = work.run_pass()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    work.check(result, outcome)
    return elapsed


def measure(work, warmup, seconds, tracer=None):
    """Run the `warmup` workload once, then time passes of `work`
    (untraced and, with a tracer, traced in turn) until another round
    would overrun `seconds`."""
    outcome = Outcome()
    warmup_s = timed_pass(warmup, outcome)
    untraced, traced = [], []
    min_rounds = 1 if tracer is not None else MIN_PASSES
    start = time.perf_counter()
    while True:
        untraced.append(timed_pass(work, outcome))
        if tracer is not None:
            traced.append(timed_pass(work, outcome, tracer))
        spent = time.perf_counter() - start
        rounds = len(untraced)
        if rounds >= min_rounds and spent * (rounds + 1) / rounds > seconds:
            break
    return {"warmup_s": warmup_s, "wall_s": untraced, "traced_wall_s": traced,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "problems": outcome.problems}


def layer_metrics(tracer, traced_wall):
    """Per-pass layer, kernel and scenario totals of the traced passes."""
    passes = len(traced_wall)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer] / passes
        out[f"{layer}.calls"] = tracer.calls[layer] / passes
        out[f"{layer}.errors"] = tracer.errors[layer] / passes
    for key in KERNELS:
        out[f"{key}.self_s"] = tracer.self_s[key] / passes
        out[f"{key}.calls"] = tracer.calls[key] / passes
    out["geomphase.solid_angle.points"] = tracer.solid_angle_points / passes
    out["imageio.mb_written"] = tracer.image_bytes / 1e6 / passes
    for scenario in SCENARIOS:
        out[f"scenarios.{scenario}.span_s"] = tracer.span_s[scenario] / passes
    attributed = sum(tracer.self_s[layer] for layer in LAYERS)
    out["trace.coverage"] = attributed / sum(traced_wall)
    return out


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if src not in Path(lightsim.__file__).resolve().parents:
        print(f"lightsim imported from {lightsim.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = workload(args.seed, args.work_dir)
    warmup = workload(args.seed, args.work_dir / "warmup", n=WARMUP_N)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    result = measure(work, warmup, args.seconds, tracer)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["traced_wall_s"])
        result["layers"]["trace.overhead_s"] = (
            statistics.median(result["traced_wall_s"])
            - statistics.median(result["wall_s"]))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
