"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {pipeline,exact,counting} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; sidonkit is imported from `src/`.
Set-up (importing sidonkit, generating and writing the inputs) is repeated
SETUP_REPEATS times and its median reported.  Then whole passes over the
workload's operations run while the operations' measured time stays within
--seconds; at least one pass runs.  Each result is checked outside the
timed regions.  pass_s and the stage times add up each operation's median
calibrated time over the passes (see CAL_REF_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced pass, then one pass with spans around sidonkit's public
functions, and reports the per-layer metrics; its stage times come from the
untraced pass.  Inputs, reports, spans and a run record (with the numba
status) go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import os

# One process, one thread: numpy's math libraries may not start pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# Calibration: every timed region runs between two calls of calibration_s(),
# and its wall time is scaled by CAL_REF_S over their mean.
# The 2-CPU virtual machine these figures come from runs the same code up to
# 1.7x slower for minutes at a time, depending on its neighbours; scaled
# times follow sidonkit's own speed.  CAL_REF_S is about the calibration's
# time on that machine when it is quiet, so scaled times read as seconds.
CAL_REF_S = 0.010
_CAL_ARRAY = (np.arange(1 << 18, dtype=np.int64) * 2654435761) % (1 << 31)
MODULES = ("ambient", "groundset", "counting", "sidon", "structure", "bounds",
           "constructions", "cli")


def import_sidonkit() -> SimpleNamespace:
    """Import sidonkit from the checkout afresh, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "sidonkit" or n.startswith("sidonkit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"sidonkit.{m}") for m in MODULES})
    origin = Path(sys.modules["sidonkit"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"sidonkit imported from {origin}, not from {SRC}")
    return lib


def calibration_s() -> float:
    """Median time of five runs of a fixed mix of dict updates and a numpy
    sort (about 10 ms each)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(30000):
            key = i * 7919 & 65535
            counts[key] = counts.get(key, 0) + i
        np.sort(_CAL_ARRAY)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CalibratedClock:
    """Times regions with a calibration after each one; every calibration
    serves the region before it and the region after it."""

    def __init__(self):
        self.last = calibration_s()

    def time(self, fn):
        """Run fn; returns (result or None, traceback or None, wall seconds,
        calibrated seconds)."""
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception:
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
        after = calibration_s()
        calibrated = wall * 2 * CAL_REF_S / (self.last + after)
        self.last = after
        return result, error, wall, calibrated


def run_pass(ops, reset, clock: CalibratedClock) -> dict:
    """Time each operation, then check its result outside the timed region;
    returns wall and calibrated times per operation and the failures."""
    reset()
    walls, scaled = [], []
    failed = 0
    wrong = []
    for op in ops:
        result, error, wall, calibrated = clock.time(op.call)
        walls.append(wall)
        scaled.append(calibrated)
        if error:
            print(f"[perfbench] {op.name} raised:\n{error}", file=sys.stderr)
            failed += 1
            continue
        problem = op.check(result)
        if problem and op.known_fault:
            failed += 1
        elif problem:
            wrong.append(f"{op.name}: {problem}")
    return {"wall_s": walls, "calibrated_s": scaled, "failed": failed, "wrong": wrong}


def pass_times(ops, passes, stages) -> dict[str, float]:
    """pass_s, pass_wall_s and the stage metrics from each operation's
    median time over the given passes."""
    def per_op(key):
        return [statistics.median(p[key][i] for p in passes) for i in range(len(ops))]
    calibrated = per_op("calibrated_s")
    out = dict.fromkeys(stages, 0.0)
    for op, t in zip(ops, calibrated):
        if op.stage:
            out[op.stage] += t
    out["pass_s"] = sum(calibrated)
    out["pass_wall_s"] = sum(per_op("wall_s"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "sidonkit" / "__init__.py").is_file():
        print(f"[perfbench] no sidonkit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    clock = CalibratedClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        result, error, _, calibrated = clock.time(
            lambda: (import_sidonkit(), workload.make_inputs(args.seed, out)))
        if error:
            print(f"[perfbench] set-up failed:\n{error}", file=sys.stderr)
            return 2
        setups.append(calibrated)
    lib, data = result
    ops, reset = workload.operations(lib, data, out)

    passes = []
    tracer = None
    while True:
        passes.append(run_pass(ops, reset, clock))
        if args.trace:
            if tracer is None:
                tracer = tracing.Tracer()
                tracer.install(lib)
                continue
            break
        measured = sum(sum(p["wall_s"]) for p in passes)
        if measured + measured / len(passes) > args.seconds:
            break

    wrong = [w for p in passes for w in p["wrong"]]
    for w in wrong:
        print(f"[perfbench] wrong result: {w}", file=sys.stderr)
    values = {s: 0.0 for w in workloads.WORKLOADS.values() for s in w.stages}
    values.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    values.update(pass_times(ops, passes[:1] if args.trace else passes, workload.stages))
    if args.trace:
        values.update(tracer.summary())
        values.update(tracing.ns_per_call(lib))
        values["trace.overhead_s"] = (sum(passes[1]["calibrated_s"])
                                      - sum(passes[0]["calibrated_s"]))
        tracer.write(out / "spans.json")
    group = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "setup_s": setups, "passes": passes, "metrics": metrics,
    }
    (out / "run.json").write_text(json.dumps(record, indent=1))
    print(f"[perfbench] {workload.name}: {len(passes)} passes, numba "
          f"{'present' if record['numba'] else 'absent'}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(ops) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
