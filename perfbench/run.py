#!/usr/bin/env python3
"""Benchmark of bicombing-lab: time to a Krein-Mil'man verdict, end to end.

Run from the root of a checkout (the lab is imported from ./src):

    python3 perfbench/run.py --workload km-flat --seed 1 --seconds 30 --trace 0

Workloads (see README.md): km-flat, km-curved, checks.  Each run sets up its
inputs from --seed, then runs whole rounds of the workload's operations
through the lab's public entry points until the next round would overrun
--seconds, checks every output with the benchmark's own formulas, and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s (typical round time), setup_s (median of
five fresh-process set-ups) and peak_rss_mb; both times are scaled to a fixed
machine speed with a calibration loop (see reference_work).  With --trace 1
untraced and traced rounds alternate, and the metrics are the per-layer ones
from the spans (see spans.py), which are written to perfbench/out/.
"""

from __future__ import annotations

import os

#: single-threaded kernels: steadier on a shared 2-core machine, and the
#: setting every reference figure in README.md was taken with
THREAD_ENV = {
    "BICOMBING_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before anything imports numpy

# numpy and the lab are imported inside functions, so that the set-up probes
# (fresh processes) time their import as part of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-process set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: median time of reference_work on the machine of README.md's reference
#: figures; calibrated times are in seconds at that machine speed
REFERENCE_S = 0.035
#: quadruples per space in each check_axioms batch of the checks workload
AXIOM_QUADS = 300

# (label, gen arguments, pipeline) for every CLI operation of a round
WORKLOADS = {
    "km-flat": [
        ("square", ["square", "--step", "0.1"], "verify-km"),
        ("disk", ["disk"], "verify-km"),
        ("product", ["product_demo"], "verify-km"),
    ],
    "km-curved": [
        ("hyp_triangle", ["hyp_triangle"], "verify-km"),
        ("star_tree", ["tree_leaves"], "verify-km"),
    ],
    "checks": [
        # 6 raster steps per side: an even count keeps the far corners in
        # the generator's eps/2-thinned seed net
        ("cube", ["cube", "--step", repr(1 / 6)], "paper-checks"),
        ("hyp_triangle", ["hyp_triangle"], "paper-checks"),
        ("star_tree", ["tree_leaves"], "paper-checks"),
    ],
}
#: spaces of the check_axioms batches (checks workload only)
AXIOM_SPACES = ("lp", "hyperbolic", "star_tree", "star_tree_x_line")


def import_lab():
    """Import the lab from the checkout's src/ (and nothing else)."""
    sys.path.insert(0, str(SRC))
    import bicombing_lab
    from bicombing_lab import (cli, convexity, extremal, instances, km_verify,
                               model_spaces, space_core)

    if Path(bicombing_lab.__file__).resolve().parent != SRC / "bicombing_lab":
        raise SystemExit(f"error: imported the lab from {bicombing_lab.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, convexity=convexity, extremal=extremal,
                                 instances=instances, km_verify=km_verify,
                                 model_spaces=model_spaces, space_core=space_core)


_REF_BUFFERS = None


def reference_work() -> float:
    """Run a fixed calibration loop, the benchmark's own code, and return its
    wall time.

    The CPU speed of a shared machine drifts by 15 to 40% in spells that
    last from seconds to minutes, some longer than a run.  Timing this loop next to every
    timed operation and dividing by it takes that drift out: an operation's
    calibrated time is its time / the loop's time * REFERENCE_S.  The loop
    mixes interpreted Python (dicts, integer arithmetic) with numpy matrix
    kernels, as the lab does; its numpy part writes into preallocated
    buffers, so that page faults on fresh arrays do not add noise of their
    own.  Nothing in it comes from the lab, so a change to the lab moves
    calibrated times as much as raw ones.

    A third part streams a 16 MB array, more than a core's share of the
    last-level cache: the lab's dense blocks are memory-bound, and a
    neighbour that saturates memory slows them more than compute alone (a
    loop without this part undercorrected such a spell on km-curved)."""
    global _REF_BUFFERS
    import numpy as np

    if _REF_BUFFERS is None:
        rng = np.random.default_rng(0)
        a = rng.uniform(1.0, 2.0, (300, 300))
        _REF_BUFFERS = (a, np.empty_like(a), np.empty_like(a), rng.uniform(1.0, 2.0, 2_000_000))
    a, x, y, big = _REF_BUFFERS
    t0 = time.perf_counter()
    acc, counts = 0, {}
    for i in range(60000):
        acc += (i * i) % 7
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    np.copyto(x, a)
    for _ in range(6):
        np.matmul(x, x.T, out=y)
        np.divide(y, 300.0, out=y)
        np.add(y, 1.0, out=y)
        np.arccosh(y, out=y)
        np.add(y, 1.0, out=y)
        np.sqrt(y, out=x)
    for _ in range(12):
        np.negative(big, out=big)
    return time.perf_counter() - t0


def cli_call(lab, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lab.cli.main(argv)


# ---------------------------------------------------------------------------
# set-up: instance files, loaded instances, spaces, seed nets, quadruples
# ---------------------------------------------------------------------------


def _axiom_inputs(lab, seed: int):
    """Seeded quadruples of points for each check_axioms space."""
    import numpy as np

    ms = lab.model_spaces
    rng = np.random.default_rng([seed, 7])
    line = ms.make_lp_space(ms.NormedSpaceSpec(1, 2.0))
    spaces = {
        "lp": ms.make_lp_space(ms.NormedSpaceSpec(2, 2.0)),
        "hyperbolic": ms.make_hyperbolic_plane(),
        "star_tree": ms.star_tree(3),
        "star_tree_x_line": ms.make_product(ms.ProductSpaceSpec(ms.star_tree(3), line)),
    }

    def tree_point(space):
        return space.point_on_edge(int(rng.integers(0, 3)), float(rng.uniform(0.0, 1.0)))

    makers = {
        "lp": lambda s: ms.euclidean(*(float(v) for v in rng.uniform(-1.0, 1.0, 2))),
        "hyperbolic": lambda s: ms.hyperbolic_point_at(float(rng.uniform(0.0, 2.0)),
                                                       float(rng.uniform(0.0, 2 * np.pi))),
        "star_tree": tree_point,
        "star_tree_x_line": lambda s: lab.space_core.ProductPoint(
            tree_point(s.left), ms.euclidean(float(rng.uniform(-1.0, 1.0)))),
    }
    out = {}
    for name in AXIOM_SPACES:
        space = spaces[name]
        quads = [tuple(makers[name](space) for _ in range(4)) for _ in range(AXIOM_QUADS)]
        out[name] = (space, quads)
    return out


def prepare(lab, workload: str, seed: int, workdir: Path) -> dict:
    """Generate and load every input of one run; this is what setup_s times."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {"instances": [], "axioms": {}}
    for label, gen_args, pipeline in WORKLOADS[workload]:
        path = workdir / f"{label}.json"
        rc = cli_call(lab, ["gen", *gen_args, "--rng-seed", str(seed), "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"gen {gen_args} exited {rc}")
        inst = lab.instances.load_instance(str(path))
        inst.seed_net(inst.build_space())
        inputs["instances"].append((label, path, pipeline))
    if workload == "checks":
        inputs["axioms"] = _axiom_inputs(lab, seed)
    return inputs


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Child-process body: import the lab and set up, then print the seconds
    taken, raw and calibrated.  Five calibration loops run right after the
    set-up, in this process (the loop needs numpy, whose import belongs to
    set-up), so they see the speed of that moment and of the CPU the child
    ran on; their median calibrates, as a fresh process's first loops run
    slower than the rest."""
    t0 = time.perf_counter()
    lab = import_lab()
    prepare(lab, workload, seed, workdir)
    took = time.perf_counter() - t0
    ref = statistics.median(reference_work() for _ in range(5))
    print(repr(took), repr(took / ref * REFERENCE_S))


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Set up SETUP_SAMPLES times, each in a fresh process; return the raw
    and the calibrated set-up times."""
    raw, calibrated = [], []
    for k in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(workdir / f"setup{k}")],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        took, scaled = proc.stdout.strip().splitlines()[-1].split()
        raw.append(float(took))
        calibrated.append(float(scaled))
    return raw, calibrated


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_round(lab, inputs: dict, workdir: Path, calibrate: bool = False):
    """One round: every operation of the workload once, in order.  Returns
    each operation's wall time, the labels of failed operations, the outputs,
    and, with ``calibrate``, each operation's calibrated time: its wall time
    over the median of the four calibration loops run just before and just
    after it (two each side, so that one preempted loop does not count),
    times REFERENCE_S."""
    times, failed, axiom_reports, refs = [], [], {}, []

    def calibration_point():
        if calibrate:
            refs.append([reference_work(), reference_work()])

    calibration_point()
    for label, path, pipeline in inputs["instances"]:
        report = workdir / f"{label}.{pipeline}.json"
        t0 = time.perf_counter()
        rc = cli_call(lab, [pipeline, "--instance", str(path), "--out", str(report), "--quiet"])
        times.append(time.perf_counter() - t0)
        calibration_point()
        if rc != 0:
            failed.append(label)
    for name, (space, quads) in inputs["axioms"].items():
        t0 = time.perf_counter()
        rep = lab.space_core.check_axioms(space, quads, grid=16, tol=space.base_tol)
        times.append(time.perf_counter() - t0)
        calibration_point()
        axiom_reports[name] = rep
        if not rep.passed:
            failed.append(name)
    calibrated = [t / statistics.median(a + b) * REFERENCE_S
                  for t, a, b in zip(times, refs, refs[1:])]
    outputs = {
        "reports": {label: (workdir / f"{label}.{pipeline}.json").read_bytes()
                    for label, _, pipeline in inputs["instances"]},
        "axioms": axiom_reports,
    }
    return times, failed, outputs, calibrated


def typical_round(rounds: list[list[float]]) -> float:
    """Sum over the operations of each one's median calibrated time: the wall
    time of a typical round, from its first pipeline call to its last
    verdict, at the reference machine speed.  Medians per operation, over
    short operations, keep outliers (a preempted call) out of the figure."""
    return sum(statistics.median(op) for op in zip(*rounds))


def check_outputs(lab, seed: int, inputs: dict, outputs: dict, workdir: Path) -> None:
    """Independent checks of one round's outputs (raises CheckFailed)."""
    import numpy as np
    import checks

    rng = np.random.default_rng([seed, 11])
    for label, path, pipeline in inputs["instances"]:
        rep = json.loads(outputs["reports"][label])
        if pipeline == "verify-km":
            checks.check_km_report(rep, rng)
        elif label == "cube":
            hull_path = workdir / "cube.hull.json"
            rc = cli_call(lab, ["hull", "--instance", str(path), "--out", str(hull_path),
                                "--quiet"])
            if rc != 0:
                raise checks.CheckFailed(f"hull on the cube exited {rc}")
            hull_rep = json.loads(hull_path.read_text(encoding="utf-8"))
            checks.check_paper_checks(rep)
            checks.check_cube_paper_checks(rep, hull_rep)
        else:
            checks.check_paper_checks(rep)
    for name, (space, quads) in inputs["axioms"].items():
        quad_objs = [[lab.instances.point_to_obj(p) for p in q] for q in quads]
        checks.check_axiom_batch(outputs["axioms"][name], lab.instances.space_to_dict(space),
                                 quad_objs, space.base_tol)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bicombing_lab" / "__init__.py").is_file():
        print(f"error: no lab sources at {SRC / 'bicombing_lab'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0

    workdir = OUT / f"{args.workload}-s{args.seed}"
    raw_setups, setup_times = (measure_setup(args.workload, args.seed, workdir)
                               if not args.trace else ([], []))

    sys.path.insert(0, str(HERE))
    lab = import_lab()
    import checks
    import spans as tracing

    tracer = tracing.Tracer(lab) if args.trace else None
    if tracer:
        with tracer.recording("bench.setup"):
            inputs = prepare(lab, args.workload, args.seed, workdir)
    else:
        inputs = prepare(lab, args.workload, args.seed, workdir)

    rounds, calibrated_rounds, traced_rounds, failed, attempted = [], [], [], [], 0
    first_outputs = None
    mismatched = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                with tracer.recording("bench.round"):
                    times, bad, outputs, _ = run_round(lab, inputs, workdir)
                traced_rounds.append(times)
            else:
                times, bad, outputs, calibrated = run_round(lab, inputs, workdir,
                                                            calibrate=not tracer)
                rounds.append(times)
                calibrated_rounds.append(calibrated)
            attempted += len(times)
            failed += bad
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                mismatched.append(len(rounds) + len(traced_rounds))
        last = time.perf_counter() - round_start
        if time.perf_counter() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        if mismatched:
            raise checks.CheckFailed(f"rounds {mismatched} gave other outputs than round 1")
        check_outputs(lab, args.seed, inputs, first_outputs, workdir)
    except checks.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    if failed:
        print(f"failed operations: {failed}", file=sys.stderr)
    if tracer:
        print(f"round walls: {[round(sum(r), 3) for r in rounds]}, "
              f"traced: {[round(sum(r), 3) for r in traced_rounds]}", file=sys.stderr)
    else:
        print(f"round walls: {[round(sum(r), 3) for r in rounds]}, "
              f"calibrated: {[round(sum(r), 3) for r in calibrated_rounds]}; "
              f"set-ups: {[round(t, 3) for t in raw_setups]}, "
              f"calibrated: {[round(t, 3) for t in setup_times]}", file=sys.stderr)

    if tracer:
        values = tracing.layer_metrics(tracer.spans, len(traced_rounds))
        # means, not medians: the traced rounds' self times are summed, and
        # a mean round is what that sum divided by the round count matches
        values["trace.wall_s"] = statistics.mean(sum(r) for r in traced_rounds)
        values["trace.untraced_wall_s"] = statistics.mean(sum(r) for r in rounds)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.json")
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in tracing.metric_names()}
    else:
        metrics = {
            "wall_s": {"value": typical_round(calibrated_rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
