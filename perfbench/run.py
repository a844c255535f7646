#!/usr/bin/env python3
"""gaugekit benchmark: seeded scenario workloads driven as a closed loop.

Run from the root of a checkout (it imports gaugekit from ``src/`` there):

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

One process issues one op at a time, each when the previous one returns, as
``gaugekit classify|reconstruct`` and library callers do. An op is a runner
or solver call on generated inputs plus ``emit_report`` into a scratch
directory. Every answer is checked against what the generator built.

Op and setup times are divided by the host's slowdown, the time of a fixed
calibration kernel run between ops over its reference time, so that the
shared host's swings in speed cancel; the unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op of
round 0 untraced and traced, and prints the per-layer metrics. The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Exit codes: 0 all answers as expected; 1 an unexpected
wrong answer; 2 the gaugekit sources are missing; 3 an answer check or a
timing probe could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("classify-mix", "kernel-pairs", "reconstruct-2d", "sphere-3d")
# one BLAS/OpenMP thread: steadier op times on a shared machine (NOTES.md)
BLAS_THREADS = 1
# fresh-interpreter setups per run, spread over the timed loop
SETUP_PROBES = 5
# the host's speed swings by up to 40 % within seconds (NOTES.md); a fixed
# calibration kernel timed between ops tracks it, and op and setup times are
# divided by its time over CAL_REF_S, its time on the 2-core VM in NOTES.md
CAL_REF_S = 0.005
CAL_REPEATS = 3
CLI_PROBES = 3

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("failed_ratio", "ratio"),
              ("worst_err_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("tomography.line_integral_scalar.calls", "count"),
    ("tomography.line_integral_scalar.s", "s"),
    ("tomography.line_integral_scalar.self_s", "s"),
    ("fields.potential.calls", "count"),
    ("fields.potential.points", "count"),
    ("fields.potential.points_per_call", "count"),
    ("tomography.GaugeScalar.evaluate.calls", "count"),
    ("tomography.GaugeScalar.evaluate.s", "s"),
    ("tomography.find_gauge_scalar.s", "s"),
    ("tomography.find_gauge_scalar.self_s", "s"),
    ("tomography.forward_sinogram.calls", "count"),
    ("tomography.forward_sinogram.s", "s"),
    ("tomography.forward_sinogram.self_s", "s"),
    ("tomography.forward_sinogram.points", "count"),
    ("tomography.forward_sinogram.points_per_s", "1/s"),
    ("tomography.forward_sinogram.spot_err_max", "abs"),
    ("tomography.radon_invert_scalar.s", "s"),
    ("tomography.recover_field_2d.s", "s"),
    ("scattering.value_grid.calls", "count"),
    ("scattering.value_grid.s", "s"),
    ("scattering.value_grid.bytes", "B"),
    ("scattering.assemble_kernel.calls", "count"),
    ("scattering.assemble_kernel.s", "s"),
    ("pipeline.synthesize_kernels.s", "s"),
    ("scattering.gauge_equivalence_solver.plane.calls", "count"),
    ("scattering.gauge_equivalence_solver.plane.s", "s"),
    ("scattering.gauge_equivalence_solver.plane.self_s", "s"),
    ("scattering.kernel_distance.calls", "count"),
    ("scattering.kernel_distance.s", "s"),
    ("scattering.near_diagonal_growth.s", "s"),
    ("scattering.gauge_equivalence_solver.sphere.calls", "count"),
    ("scattering.gauge_equivalence_solver.sphere.s", "s"),
    ("scattering.gauge_equivalence_solver.sphere.self_s", "s"),
    ("scattering.apply_gauge_to_kernel.s", "s"),
    ("fields.curl.calls", "count"),
    ("fields.curl.points", "count"),
    ("fields.curl.s", "s"),
    ("fields.sample_on_spheres.s", "s"),
    ("fields.extract_leading_order.s", "s"),
    ("angular.sphere_grid.s", "s"),
    ("fields.decompose_transversal.calls", "count"),
    ("fields.decompose_transversal.s", "s"),
    ("fields.apply_gauge_to_potential.s", "s"),
    ("pipeline.run_classify.calls", "count"),
    ("pipeline.run_classify.s", "s"),
    ("pipeline.run_classify.self_s", "s"),
    ("pipeline.run_reconstruct.calls", "count"),
    ("pipeline.run_reconstruct.s", "s"),
    ("pipeline.run_reconstruct.self_s", "s"),
    ("pipeline.run_kernel_lab.calls", "count"),
    ("pipeline.run_kernel_lab.s", "s"),
    ("pipeline.run_kernel_lab.self_s", "s"),
    ("pipeline.emit_report.s", "s"),
    ("pipeline.emit_report.bytes", "B"),
    ("cli.import_s", "s"),
    ("cli.cold_start_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class SourcesMissing(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up in this fresh interpreter, print 'ready', exit")
    return p.parse_args(argv)


def pin_threads() -> None:
    """Set before numpy loads; setup probes and CLI probes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_gaugekit():
    """Import gaugekit from this checkout's src/ and nowhere else."""
    if not (SRC / "gaugekit" / "__init__.py").is_file():
        raise SourcesMissing(f"no gaugekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaugekit
    if Path(gaugekit.__file__).resolve().parent != (SRC / "gaugekit").resolve():
        raise SourcesMissing(f"gaugekit imported from {gaugekit.__file__}, not {SRC}")
    return gaugekit


def warm_up(workload: str) -> None:
    """Pay first-call costs (lazy imports, FFT plans, the sphere grid cache)
    before timing; these count in setup_s instead."""
    import gaugekit as gk
    from gaugekit.angular import AngularFunction
    from gaugekit.fields import PotentialConfig, TransversalField
    from gaugekit.pipeline import Scenario

    cfg = PotentialConfig(dimension=2, obstacle_radius=1.0, transversal=TransversalField.from_profile(
        AngularFunction.from_coefficients({0: 0.3, 1: 0.02})))
    gk.pipeline.run_classify(Scenario(kind="classify", config1=cfg, config2=cfg,
                                      kernels={"n_grid": 32, "lam": 1.0}))
    gk.pipeline.run_reconstruct(Scenario(kind="reconstruct", config1=cfg, geometry={
        "n_angles": 8, "n_offsets": 16, "r_min": 1.001, "r_max": 3.5}))
    if workload == "sphere-3d":
        for r in (2, 3, 4):
            gk.angular.sphere_grid(r)


def setup(args):
    """Everything before the first timed op: import, round-0 inputs, warm-up."""
    import_gaugekit()
    import scenarios
    ops = scenarios.make_round(args.workload, args.seed, 0)
    warm_up(args.workload)
    return ops


def measure_setup(args) -> float:
    """Wall time from launching a fresh interpreter until it is ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return dt


_CAL = {}


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now, best of CAL_REPEATS:
    one pass over an 8 MB array (memory-bound) and a 120 x 120 dense
    least-squares solve (compute-bound). Together they tracked the host's
    swings in op time more closely than either alone, or than elementwise
    transcendental numpy, FFTs, sorting or interpreted Python (NOTES.md)."""
    import numpy as np
    if not _CAL:
        rng = np.random.default_rng(0)
        _CAL["x"] = rng.random(1_000_000)
        _CAL["a"] = rng.random((120, 120))
    x, a = _CAL["x"], _CAL["a"]
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        y = x * 1.5
        y += x
        y.sum()
        np.linalg.lstsq(a, a[:, 0], rcond=None)
        best = min(best, time.perf_counter() - t0)
    return best


def environment() -> list:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return [f"blas_threads={BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)",
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu}",
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}",
            f"numpy blas={blas.get('name')} {blas.get('version')}; "
            f"scipy blas={sblas.get('name')} {sblas.get('version')}"]


# ===================================================================
# the closed loop
# ===================================================================

def run_op(op, out_dir: Path, tracer=None) -> dict:
    """Issue one op (runner or solver, then emit_report) and check it untimed."""
    import gaugekit as gk
    from scenarios import Outcome

    err = None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
        root = tracer.open("op")
    try:
        result = op.run()
        if isinstance(result, gk.pipeline.Report):
            gk.pipeline.emit_report(result, out_dir)
    except Exception as exc:  # the program's failure is this op's outcome
        err = exc
        where = traceback.extract_tb(exc.__traceback__)[-1]
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    dt = time.perf_counter() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    if err is not None:
        outcome = Outcome(False, "exception", f"{type(err).__name__}: {err} "
                          f"({Path(where.filename).name}:{where.lineno})")
    else:
        outcome = op.check(result)
    return {"label": op.label, "s": dt, "slowdown": 1.0, "outcome": outcome,
            "known_defect": op.known_defect}


def summarize(records) -> dict:
    """Outcome counts and timing: `wall` from wall times, `scaled` from wall
    times over the host slowdown measured around each op."""
    passed = [r for r in records if r["outcome"].passed]
    failed = [r for r in records if not r["outcome"].passed]
    unexpected = [r for r in failed
                  if r["known_defect"] is None or not r["known_defect"].matches(r["outcome"])]
    ratios = [(v / t, name, r["label"]) for r in passed
              for name, v, t in r["outcome"].figures if t]

    def timing(times) -> dict:
        return {"op_p50_s": statistics.median(t if r["outcome"].passed else float("inf")
                                              for t, r in zip(times, records)),
                "busy_s": sum(times)}
    return {"passed": passed, "failed": failed, "unexpected": unexpected,
            "worst": max(ratios, default=(0.0, "", "")),
            "wall": timing([r["s"] for r in records]),
            "scaled": timing([r["s"] / r["slowdown"] for r in records])}


def print_records(records) -> None:
    by_label = {}
    for r in records:
        row = by_label.setdefault(r["label"], [0, 0, []])
        row[0] += 1
        row[1] += not r["outcome"].passed
        row[2].append(r["s"])
    print(f"{'op class':44s} {'ops':>4s} {'fail':>4s} {'median s':>9s}")
    for label, (n, nf, ts) in sorted(by_label.items()):
        print(f"{label:44s} {n:4d} {nf:4d} {statistics.median(ts):9.4f}")
    for i, r in enumerate(records):
        o = r["outcome"]
        kd = r["known_defect"]
        if o.passed:
            if kd is not None:
                print(f"PASSED op {i} {r['label']}, which carries a known defect: {kd.what}")
            continue
        if kd is not None and kd.matches(o):
            tag = f"known defect: {kd.what}"
        elif kd is not None:
            tag = f"UNEXPECTED, the known defect fails at stage={kd.stage} reason={kd.reason}..."
        else:
            tag = "UNEXPECTED"
        print(f"FAILED op {i} {r['label']}: stage={o.stage} reason={o.reason} [{tag}]")


def run_timed(args, round0) -> tuple:
    import scenarios

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    records, setup_times = [], []
    probe_s = 0.0  # whole probes, interpreter exit included
    t_start = time.perf_counter()

    def elapsed():  # run time so far, setup probes excluded
        return time.perf_counter() - t_start - probe_s

    cal = [calibrate()]  # calibration samples, one between each two steps

    def slowdown() -> float:
        """Host slowdown over the step just ended: the mean of the samples
        before and after it, over CAL_REF_S."""
        cal.append(calibrate())
        return (cal[-2] + cal[-1]) / (2 * CAL_REF_S)

    def probe():
        nonlocal probe_s
        t = time.perf_counter()
        dt = measure_setup(args)
        setup_times.append((dt, dt / slowdown()))
        probe_s += time.perf_counter() - t

    r = 0
    while True:
        ops = round0 if r == 0 else scenarios.make_round(args.workload, args.seed, r)
        for op in ops:
            # setup probes at evenly spaced points of the run, between ops,
            # so that their median spans the same machine phases as the ops
            if len(setup_times) < min(SETUP_PROBES, SETUP_PROBES * elapsed() / args.seconds):
                probe()
            rec = run_op(op, scratch / f"op{len(records)}")
            rec["slowdown"] = slowdown()
            print(f"op {len(records)} {rec['label']} wall_s={rec['s']:.4f} "
                  f"slowdown={rec['slowdown']:.3f}")
            records.append(rec)
        r += 1
        # whole rounds until --seconds are measured; a stop at the nearest
        # round boundary would end a classify-mix run after one round in a
        # slow phase of the host and after two in a fast one
        if elapsed() >= args.seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        probe()
    shutil.rmtree(scratch, ignore_errors=True)
    s = summarize(records)
    print_records(records)
    print(f"worst accuracy figure: {s['worst'][1]} on {s['worst'][2]} "
          f"({s['worst'][0]:.4g} of its tolerance)")
    slowdowns = [r["slowdown"] for r in records]
    print(f"host slowdown (calibration kernel over {CAL_REF_S} s): median "
          f"{statistics.median(slowdowns):.3f} min {min(slowdowns):.3f} max {max(slowdowns):.3f}")
    wall_setup = [w for w, _ in setup_times]
    print(f"unscaled: ops_per_s={len(s['passed']) / s['wall']['busy_s']:.4f} "
          f"op_p50_s={s['wall']['op_p50_s']:.4f} setup_s={statistics.median(wall_setup):.4f}")
    print(f"rounds={r} ops={len(records)} busy_s={s['wall']['busy_s']:.3f} "
          f"setup_probes_s={[round(t, 4) for t in wall_setup]}")
    metrics = {
        "ops_per_s": len(s["passed"]) / s["scaled"]["busy_s"],
        "op_p50_s": s["scaled"]["op_p50_s"],
        "failed_ratio": len(s["failed"]) / len(records),
        "worst_err_ratio": s["worst"][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(t for _, t in setup_times),
    }
    if metrics["op_p50_s"] == float("inf"):
        raise RuntimeError("more than half the ops failed; op_p50_s is undefined")
    return records, s, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


# ===================================================================
# the traced run
# ===================================================================

def _cli_probes() -> dict:
    """Fresh-interpreter import time and `gaugekit report` cold start."""
    from gaugekit.pipeline import Report

    env = dict(os.environ, PYTHONPATH=str(SRC))
    report = OUT / "cli" / "report.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(Report(kind="classify", verdict="equivalent").to_json())
    imp, cold = [], []
    for _ in range(CLI_PROBES):
        out = subprocess.run([sys.executable, "-c", "import time; t = time.perf_counter(); "
                              "import gaugekit; print(time.perf_counter() - t)"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        imp.append(float(out.stdout.strip()))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gaugekit.cli", "report", "--report", str(report)],
                       cwd=ROOT, env=env, capture_output=True, check=True)
        cold.append(time.perf_counter() - t0)
    shutil.rmtree(report.parent, ignore_errors=True)
    return {"cli.import_s": statistics.median(imp), "cli.cold_start_s": statistics.median(cold)}


def check_spans(tracer, traced) -> list:
    """Self times are non-negative, and each op's self times sum to its wall
    time within the tracer's own overhead (1 ms or 1 %)."""
    problems = []
    selfs = tracer.self_times()
    per_op = [0.0] * len(traced)
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if selfs[i] < -1e-9:
            problems.append(f"span {i} {name} has negative self time {selfs[i]:.3e}")
        per_op[op] += selfs[i]
    for op, total in enumerate(per_op):
        wall = traced[op]["s"]
        if not 0.0 <= wall - total <= max(1e-3, 0.01 * wall):
            problems.append(f"op {op}: self times sum to {total:.6f}s, wall time {wall:.6f}s")
    return problems


def run_traced(args, round0) -> tuple:
    import scenarios
    from tracer import Tracer, counting_callable

    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    ops = scenarios.make_round(args.workload, args.seed, 0,
                               wrap=lambda f: counting_callable(tracer, f))
    plain, traced = [], []
    # each op runs untraced and traced on the same inputs, back to back and in
    # alternating order, so that slow phases of a shared machine and warm
    # allocator state favour neither side of trace.overhead_ratio
    for k, (a, b) in enumerate(zip(round0, ops)):
        if k % 2:
            plain.append(run_op(a, scratch / f"op{k}"))
        tracer.op = k
        tracer.install()
        try:
            traced.append(run_op(b, scratch / f"op{k}", tracer))
        finally:
            tracer.uninstall()
        if not k % 2:
            plain.append(run_op(a, scratch / f"op{k}"))
    shutil.rmtree(scratch, ignore_errors=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    print_records(traced)

    problems = check_spans(tracer, traced)
    for a, b in zip(plain, traced):
        if a["outcome"].passed != b["outcome"].passed:
            problems.append(f"{a['label']}: tracing changed the outcome")
    rows = tracer.per_name()
    values = {}
    for name, row in rows.items():
        for key, v in row.items():
            values[f"{name}.{key}"] = v
    values.update(tracer.counts)
    calls = values.get("fields.potential.calls", 0)
    values["fields.potential.points_per_call"] = values.get("fields.potential.points", 0) / calls \
        if calls else 0.0
    fs = values.get("tomography.forward_sinogram.s", 0.0)
    values["tomography.forward_sinogram.points_per_s"] = \
        values.get("tomography.forward_sinogram.points", 0) / fs if fs else 0.0
    values["tomography.forward_sinogram.spot_err_max"] = max(
        (v for r in traced for name, v, _ in r["outcome"].figures if name == "sinogram_spot_error"),
        default=0.0)
    values.update(_cli_probes())
    values["trace.overhead_ratio"] = (statistics.median(r["s"] for r in traced)
                                      / statistics.median(r["s"] for r in plain))

    print(f"{'layer function':52s} {'calls':>8s} {'s':>10s} {'self_s':>10s}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:52s} {row['calls']:8d} {row['s']:10.4f} {row['self_s']:10.4f}")
    for key, v in sorted(tracer.counts.items()):
        print(f"count {key} = {v:.0f}")
    for p in problems:
        print(f"TRACE CHECK: {p}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in PER_LAYER}
    unreached = [name for name in metrics if name not in values]
    if unreached:
        print("reported as 0, not reached by this workload's ops: " + ", ".join(unreached))
    return traced, summarize(traced), metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        round0 = setup(args)
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    for line in environment():
        print(line)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    problems = []
    try:
        if args.trace:
            records, s, metrics, problems = run_traced(args, round0)
        else:
            records, s, metrics = run_timed(args, round0)
    except Exception:
        traceback.print_exc()
        print("error: an answer check or a timing probe could not run", file=sys.stderr)
        return 3
    correct = not s["unexpected"] and not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(s["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
