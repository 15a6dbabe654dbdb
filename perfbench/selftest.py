#!/usr/bin/env python3
"""Show that the benchmark's output checks reject corrupted outputs.

    python3 perfbench/selftest.py

Runs verify-km on the square, the hyperbolic triangle and the star tree and
paper-checks on a small cube through the lab's CLI, confirms the checkers accept the real reports, then corrupts
them one way at a time and confirms each corruption is rejected with the
expected message.  Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import run
from checks import CheckFailed, check_cube_paper_checks, check_km_report


def _report(lab, workdir, gen_args, pipeline):
    inst = workdir / f"{gen_args[0]}.json"
    out = workdir / f"{gen_args[0]}.{pipeline}.json"
    for argv in (["gen", *gen_args, "--out", str(inst)],
                 [pipeline, "--instance", str(inst), "--out", str(out), "--quiet"]):
        if run.cli_call(lab, argv) != 0:
            raise SystemExit(f"selftest: {argv[0]} {gen_args} did not pass")
    return json.loads(out.read_text(encoding="utf-8"))


def drop_corner(rep):
    """Remove the first seed point (a corner, vertex or leaf) from the
    extremal set, count adjusted."""
    corner = rep["instance"]["seed_points"][0]
    pts = rep["points"]["extremal"]
    pts[:] = [p for p in pts if p != corner]
    rep["result"]["extremal_count"] = len(pts)


def move_off_hull(rep):
    """Move one net point outside the hull of the seeds: to (1.25, 0.5) in
    the plane, to distance 3 along the x1 axis in the hyperbolic plane."""
    net = rep["points"]["net"]
    if rep["instance"]["space"]["kind"] == "hyperbolic":
        net[len(net) // 2]["coords"] = [float(np.cosh(3.0)), float(np.sinh(3.0)), 0.0]
    else:
        net[len(net) // 2]["coords"] = [1.25, 0.5]


def understate_gap(rep):
    """Report a Hausdorff gap smaller than the listed point sets give."""
    rep["result"]["hausdorff_c_vs_hull_ext"] *= 0.5


def miscount_face(rep):
    """Add one point to the first linear face of the cube."""
    rep["result"]["face_checks"][3]["face_size"] += 1


def main() -> int:
    lab = run.import_lab()
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    square = _report(lab, workdir, ["square", "--step", "0.1"], "verify-km")
    cube = _report(lab, workdir, ["cube", "--step", "0.25"], "paper-checks")
    cube_hull = _report(lab, workdir, ["cube", "--step", "0.25"], "hull")
    triangle = _report(lab, workdir, ["hyp_triangle"], "verify-km")
    star = _report(lab, workdir, ["tree_leaves"], "verify-km")

    def km(rep):
        check_km_report(rep, np.random.default_rng(0))

    def cube_check(rep):
        check_cube_paper_checks(rep, cube_hull)

    cases = [
        ("square as reported", square, None, km, None),
        ("cube as reported", cube, None, cube_check, None),
        ("hyperbolic triangle as reported", triangle, None, km, None),
        ("star tree as reported", star, None, km, None),
        ("dropped corner", square, drop_corner, km, "stored but not extremal"),
        ("net point moved off the hull", square, move_off_hull, km, "outside the hull"),
        ("gap larger than the report states", square, understate_gap, km,
         "Hausdorff gap recomputes"),
        ("triangle vertex dropped", triangle, drop_corner, km, "stored but not extremal"),
        ("triangle net point moved off the hull", triangle, move_off_hull, km,
         "outside the hull"),
        ("star leaf dropped", star, drop_corner, km, "stored but not extremal"),
        ("star gap understated", star, understate_gap, km, "Hausdorff gap recomputes"),
        ("cube face miscounted", cube, miscount_face, cube_check, "face of linear"),
    ]
    ok = True
    for name, rep, corrupt, check, expected in cases:
        rep = copy.deepcopy(rep)
        if corrupt:
            corrupt(rep)
        try:
            check(rep)
            verdict = "accepted"
        except CheckFailed as exc:
            verdict = f"rejected: {exc}"
        good = verdict == "accepted" if expected is None else expected in verdict
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
