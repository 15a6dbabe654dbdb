"""Instance file round trips, CLI pipelines, exit codes, and plot export."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from bicombing_lab import (
    ConvexityWitness,
    InvalidInputError,
    ProductPoint,
    TreePoint,
    euclidean,
    hyperboloid,
)
from bicombing_lab.cli import main
from bicombing_lab.instances import (
    GEN_KINDS,
    InstanceFile,
    InstanceFormatError,
    InstanceParams,
    build_space,
    dumps_canonical,
    generate_instance,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    point_to_obj,
    save_instance,
    to_obj,
)
from bicombing_lab.km_verify import DescentCheckEntry


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def test_round_trip_byte_identical(tmp_path):
    for kind in GEN_KINDS:
        inst = generate_instance(kind, step=0.25, leaves=3, n=5, dim=2)
        path = tmp_path / f"{kind}.json"
        save_instance(inst, str(path))
        text1 = path.read_text()
        loaded = load_instance(str(path))
        assert dumps_canonical(instance_to_obj(loaded)) == text1


def test_all_kinds_build_spaces():
    for kind in GEN_KINDS:
        inst = generate_instance(kind, step=0.25, leaves=2, n=4, dim=2)
        space = inst.build_space()
        net = inst.seed_net(space)
        assert len(net) >= 1


def test_random_points_deterministic():
    a = generate_instance("random_points", n=20, dim=3, rng_seed=7)
    b = generate_instance("random_points", n=20, dim=3, rng_seed=7)
    assert dumps_canonical(instance_to_obj(a)) == dumps_canonical(instance_to_obj(b))
    c = generate_instance("random_points", n=20, dim=3, rng_seed=8)
    assert dumps_canonical(instance_to_obj(c)) != dumps_canonical(instance_to_obj(a))


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_generate_rejects_negative_seed(kind):
    with pytest.raises(InvalidInputError, match="rng_seed"):
        generate_instance(kind, rng_seed=-1)


@pytest.mark.parametrize("kind, field, value", [
    ("disk", "radius", -1.0), ("disk", "radius", 0.0), ("tree_leaves", "leaves", 0),
    ("random_points", "n", 0), ("random_points", "dim", 0), ("random_points", "dim", -2),
])
def test_generate_rejects_out_of_range_sizes(kind, field, value):
    with pytest.raises(InvalidInputError, match=f"^{field} must be positive, got {value}$"):
        generate_instance(kind, **{field: value})


@pytest.mark.parametrize("side", [30.0, 400.0, 1000.0])
def test_generate_rejects_triangle_sides_past_float_range(side):
    # side 30 left the sheet tolerance, 400 gave a nan coordinate and 1000
    # overflowed math.cosh, none of them naming the flag
    with pytest.raises(InvalidInputError, match=f"^side must be at most 8.0, got {side}$"):
        generate_instance("hyp_triangle", side=side)


def test_generate_triangle_at_largest_side_loads():
    inst = generate_instance("hyp_triangle", side=8.0)
    assert instance_from_obj(instance_to_obj(inst)).seed_points == inst.seed_points


def test_to_obj_writes_fields_in_declaration_order():
    witness = ConvexityWitness(euclidean(0, 1), hyperboloid(1, 0, 0), TreePoint(2, 0.5),
                               ProductPoint(euclidean(1), euclidean(2)), 0.25, 0.5, 0.75,
                               np.float64(0.125))
    obj = to_obj(witness, skip=("y2", "t_next"))
    assert list(obj) == ["x", "y", "x2", "t_prev", "t_mid", "defect"]
    assert obj["x"] == point_to_obj(witness.x) == {"kind": "euclidean", "coords": [0.0, 1.0]}
    assert obj["y"]["kind"] == "hyperboloid"
    assert obj["x2"] == {"kind": "tree", "edge": 2, "offset": 0.5}
    assert type(obj["defect"]) is np.float64  # numpy scalars are left to dumps_canonical
    entry = DescentCheckEntry(start="p", iterations=2, trace=(5, 3, 1),
                              trace_non_increasing=True, endpoint_extremal=False)
    assert to_obj(entry) == {"start": "p", "iterations": 2, "trace": [5, 3, 1],
                             "trace_non_increasing": True, "endpoint_extremal": False}
    assert to_obj((witness.x, None, "s")) == [point_to_obj(witness.x), None, "s"]
    params = InstanceParams(eps=0.1, hit_eps=0.1, delta=0.2, face_tol=0.025)
    assert list(to_obj(params)) == [f.name for f in dataclasses.fields(InstanceParams)]


def test_unknown_fields_rejected():
    inst = generate_instance("square")
    obj = instance_to_obj(inst)
    obj["mystery"] = 1
    with pytest.raises(InstanceFormatError, match="mystery"):
        instance_from_obj(obj)
    obj = instance_to_obj(inst)
    obj["params"]["bogus_knob"] = 2
    with pytest.raises(InstanceFormatError, match="bogus_knob"):
        instance_from_obj(obj)


def test_format_version_checked():
    obj = instance_to_obj(generate_instance("square"))
    obj["format"] = 2
    with pytest.raises(InstanceFormatError, match="format"):
        instance_from_obj(obj)


def test_field_diagnostics_name_the_field():
    obj = instance_to_obj(generate_instance("square"))
    obj["params"]["eps"] = "wide"
    with pytest.raises(InstanceFormatError, match="params.eps"):
        instance_from_obj(obj)
    obj = instance_to_obj(generate_instance("tree_leaves"))
    obj["seed_points"][0]["offset"] = "far"
    with pytest.raises(InstanceFormatError, match=r"seed_points\[0\].offset"):
        instance_from_obj(obj)


def test_json_error_carries_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": 1,\n  "space": }\n')
    with pytest.raises(InstanceFormatError, match="line 3"):
        load_instance(str(path))


def test_lp_space_p_below_one_rejected():
    obj = instance_to_obj(generate_instance("square"))
    obj["space"]["p"] = 0.5
    with pytest.raises(InvalidInputError):
        instance_from_obj(obj)


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------


def _run(args, monkeypatch=None, cwd=None):
    return main(args)


def test_cli_gen_and_pipelines(tmp_path, capsys):
    inst_path = tmp_path / "tree.json"
    assert main(["gen", "tree_leaves", "--leaves", "3", "--out", str(inst_path)]) == 0
    for sub in ("check-axioms", "hull", "extremal", "verify-km", "paper-checks"):
        out = tmp_path / f"{sub}.json"
        code = main([sub, "--instance", str(inst_path), "--out", str(out), "--quiet"])
        assert code == 0, sub
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        assert rep["command"] == sub


def test_cli_reports_byte_identical(tmp_path):
    inst_path = tmp_path / "tree.json"
    main(["gen", "tree_leaves", "--leaves", "3", "--out", str(inst_path)])
    for sub in ("check-axioms", "hull", "extremal", "verify-km", "paper-checks"):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([sub, "--instance", str(inst_path), "--out", str(a), "--quiet"]) == 0
        assert main([sub, "--instance", str(inst_path), "--out", str(b), "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes(), sub


def test_cli_verify_km_times_phases_on_stderr_only(tmp_path, capsys):
    inst, a, b = tmp_path / "tree.json", tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "tree_leaves", "--leaves", "3", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["verify-km", "--instance", str(inst), "--out", str(a)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("verify-km: pass in ")
    assert [line.split(":")[0].strip() for line in err[1:]] == [
        "seed_hull_s", "extremal_s", "hull_s", "hausdorff_s"]
    assert main(["verify-km", "--instance", str(inst), "--out", str(b), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert a.read_bytes() == b.read_bytes()
    assert "seed_hull_s" not in a.read_text()


def test_cli_square_gen_contract(tmp_path):
    out = tmp_path / "sq.json"
    assert main(["gen", "square", "--step", "0.05", "--out", str(out)]) == 0
    inst = load_instance(str(out))
    assert inst.params.eps == 0.05
    assert len(inst.seed_points) == 4
    assert {p.coords for p in inst.seed_points} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_cli_eps_override_rescales(tmp_path):
    inst_path = tmp_path / "sq.json"
    main(["gen", "square", "--step", "0.1", "--out", str(inst_path)])
    base = load_instance(str(inst_path))
    out = tmp_path / "r.json"
    assert main(["verify-km", "--instance", str(inst_path), "--out", str(out),
                 "--eps", "0.05", "--quiet"]) == 0
    rep = json.loads(out.read_text())
    eff = rep["instance"]["params"]
    assert eff["eps"] == pytest.approx(0.05)
    assert eff["delta"] == pytest.approx(base.params.delta * 0.5)


def test_cli_exit_code_on_check_failure(tmp_path):
    inst = generate_instance("tree_leaves", leaves=3)
    strict = InstanceFile(
        space=inst.space,
        seed_points=inst.seed_points,
        params=InstanceParams(
            eps=inst.params.eps,
            hit_eps=inst.params.hit_eps,
            delta=inst.params.delta,
            face_tol=inst.params.face_tol,
            pass_factor=1e-9,
        ),
    )
    path = tmp_path / "strict.json"
    save_instance(strict, str(path))
    assert main(["verify-km", "--instance", str(path), "--quiet",
                 "--out", str(tmp_path / "r.json")]) == 1


def test_cli_exit_code_on_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["hull", "--instance", str(missing), "--quiet"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "who": 2}\n')
    assert main(["hull", "--instance", str(bad), "--quiet"]) == 2
    lp = instance_to_obj(generate_instance("square"))
    lp["space"]["p"] = 0.5
    half = tmp_path / "half.json"
    half.write_text(dumps_canonical(lp))
    assert main(["check-axioms", "--instance", str(half), "--quiet"]) == 2


def _set_coords(index, coords):
    return lambda obj: obj["seed_points"][index].update(coords=coords)


def _set_param(name, value):
    return lambda obj: obj["params"].update({name: value})


#: non-finite inputs, and integers beyond the float range: argv (the instance file, when there is one, is added
#: after the subcommand), the generator kind and edit of that file, and the
#: field the diagnostic names
_NON_FINITE_CASES = {
    "run-eps-nan": (["hull", "--eps", "nan"], "square", None, "--eps"),
    "run-eps-inf": (["hull", "--eps", "inf"], "square", None, "--eps"),
    "gen-eps-nan": (["gen", "square", "--eps", "nan"], None, None, "--eps"),
    "gen-step-inf": (["gen", "square", "--step", "inf"], None, None, "--step"),
    "euclidean-coords": (["hull"], "square", _set_coords(0, [math.nan, 1.0]),
                         "seed_points[0].coords"),
    "hyperboloid-coords": (["hull"], "hyp_triangle", _set_coords(1, [1.0, math.inf, 0.0]),
                           "seed_points[1].coords"),
    "params-eps": (["hull"], "square", _set_param("eps", math.nan), "params.eps"),
    "params-delta": (["verify-km"], "square", _set_param("delta", math.inf), "params.delta"),
    "euclidean-coords-huge-int": (["hull"], "square", _set_coords(0, [10**400, 0]),
                                  "seed_points[0].coords"),
    "params-huge-int": (["hull"], "square", _set_param("face_tol", 10**400), "params.face_tol"),
    "tree-offset-huge-int": (["hull"], "tree_leaves",
                             lambda obj: obj["seed_points"][0].update(offset=10**400),
                             "seed_points[0].offset"),
    "edge-length-huge-int": (["hull"], "tree_leaves",
                             lambda obj: obj["space"]["edges"][0].__setitem__(2, 10**400),
                             "space.edges[0]"),
    "lp-exponent-huge-int": (["hull"], "square", lambda obj: obj["space"].update(p=10**400),
                             "space.p"),
}


def _assert_cli_rejects(argv, kind, edit, field, tmp_path, capsys):
    """argv exits 2 naming field and writes no file; kind and edit make the
    instance file, added after the subcommand, as in _NON_FINITE_CASES."""
    if kind is not None:
        obj = instance_to_obj(generate_instance(kind))
        if edit is not None:
            edit(obj)
        inst = tmp_path / "inst.json"
        inst.write_text(dumps_canonical(obj))
        argv = argv[:1] + ["--instance", str(inst), "--quiet"] + argv[1:]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", list(_NON_FINITE_CASES))
def test_cli_rejects_non_finite_input(case, tmp_path, capsys):
    _assert_cli_rejects(*_NON_FINITE_CASES[case], tmp_path, capsys)


#: negative seeds, which used to die in np.random.default_rng with a traceback,
#: non-positive pass factors, which made verify-km fail on every instance, and
#: t grids, face bands, segment samples and round limits that `hull` accepted
#: and later stages rejected without the field's path, and round-limit flags
#: that `hull` rejected without naming the flag and `check-axioms` ignored,
#: and space and seed point errors that named no field;
#: laid out as _NON_FINITE_CASES
_OUT_OF_RANGE_CASES = {
    "gen-random-seed": (["gen", "random_points", "--rng-seed", "-1"], None, None, "--rng-seed"),
    "gen-square-seed": (["gen", "square", "--rng-seed", "-3"], None, None, "--rng-seed"),
    "run-seed": (["paper-checks", "--rng-seed", "-1"], "square", None, "--rng-seed"),
    "params-seed": (["check-axioms"], "square", _set_param("rng_seed", -5), "params.rng_seed"),
    "params-pass-factor": (["verify-km"], "square", _set_param("pass_factor", -1.0),
                           "params.pass_factor"),
    "params-pass-factor-zero": (["verify-km"], "square", _set_param("pass_factor", 0),
                                "params.pass_factor"),
    "params-t-grid": (["hull"], "square", _set_param("t_grid", 2), "params.t_grid"),
    "params-face-tol": (["hull"], "square", _set_param("face_tol", 0), "params.face_tol"),
    "params-segment-samples": (["hull"], "square", _set_param("segment_samples", 1),
                               "params.segment_samples"),
    "params-max-rounds": (["hull"], "square", _set_param("max_rounds", 0), "params.max_rounds"),
    "run-max-rounds-hull": (["hull", "--max-rounds", "0"], "square", None, "--max-rounds"),
    "run-max-rounds-hull-negative": (["hull", "--max-rounds", "-1"], "square", None,
                                     "--max-rounds"),
    "run-max-rounds-axioms": (["check-axioms", "--max-rounds", "0"], "square", None,
                              "--max-rounds"),
    "run-max-rounds-axioms-negative": (["check-axioms", "--max-rounds", "-1"], "square", None,
                                       "--max-rounds"),
    "space-dim": (["hull"], "square", lambda obj: obj["space"].update(dim=0),
                  "space: dimension must be >= 1"),
    "space-p": (["hull"], "square", lambda obj: obj["space"].update(p=0.5), "space: p = 0.5"),
    "space-left-dim": (["hull"], "product_demo", lambda obj: obj["space"]["left"].update(dim=0),
                       "space.left: dimension must be >= 1"),
    "tree-edge-length": (["hull"], "tree_leaves",
                         lambda obj: obj["space"]["edges"][0].__setitem__(2, -1),
                         "space: edge 0 has length -1.0"),
    "seed-point-dim": (["hull"], "square", _set_coords(0, [0.0, 0.0, 0.0]),
                       "seed_points[0]: EuclideanPoint"),
    "seed-point-off-sheet": (["hull"], "hyp_triangle", _set_coords(1, [1.0, 1.0, 0.0]),
                             "seed_points[1]: point off the unit hyperboloid"),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE_CASES))
def test_cli_rejects_out_of_range_input(case, tmp_path, capsys):
    _assert_cli_rejects(*_OUT_OF_RANGE_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("argv, name", [
    (["lp_ball", "--p", "abc"], "--p"),
    (["cube", "--step", "0"], "step"),
    (["hyp_triangle", "--side", "0"], "side"),
    (["cube", "--step", "-0.1"], "step"),
    (["cube", "--step", "0.5", "--eps", "-1"], "eps"),
    (["disk", "--radius", "-1"], "radius must be positive"),
    (["disk", "--radius", "0"], "radius must be positive"),
    (["tree_leaves", "--leaves", "0"], "leaves must be positive"),
    (["random_points", "--n", "0"], "n must be positive"),
    (["random_points", "--dim", "0"], "dim must be positive"),
    (["hyp_triangle", "--side", "30"], "side"),
    (["hyp_triangle", "--side", "400"], "side"),
    (["hyp_triangle", "--side", "1000"], "side"),
])
def test_cli_gen_rejects_bad_flags(argv, name, tmp_path, capsys):
    # the first three used to crash with a traceback; the next two wrote
    # instance files that every pipeline rejected.  A negative radius traced
    # the circle from (-1, 0), radius 0 wrote copies of the origin, and the
    # empty and zero-dimensional kinds failed naming no field.  Triangle
    # sides of 30, 400 and 1000 failed on the sheet check, on a nan
    # coordinate and in math.cosh
    out = tmp_path / "out.json"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_cli_threads_env_validated(tmp_path, monkeypatch):
    monkeypatch.setenv("BICOMBING_LAB_THREADS", "many")
    assert main(["gen", "square", "--out", str(tmp_path / "s.json")]) == 2
    monkeypatch.setenv("BICOMBING_LAB_THREADS", "1")
    assert main(["gen", "square", "--out", str(tmp_path / "s.json")]) == 0


def test_cli_segment_instance_exact_extremal(tmp_path):
    """A handcrafted two-point segment instance with a hit radius tuned below
    the net's endpoint gap reports exactly the two endpoints."""
    obj = {
        "format": 1,
        "space": {"kind": "lp", "dim": 2, "p": 2.0},
        "seed_points": [
            {"kind": "euclidean", "coords": [0.0, 0.0]},
            {"kind": "euclidean", "coords": [1.0, 0.0]},
        ],
        "params": {
            "eps": 0.05, "hit_eps": 0.015, "delta": 0.025, "face_tol": 0.00375,
            "t_grid": 7, "segment_samples": 8, "max_rounds": 64, "rng_seed": 0,
            "pass_factor": 3.0,
        },
    }
    path = tmp_path / "seg.json"
    path.write_text(dumps_canonical(obj))
    out = tmp_path / "seg_rep.json"
    assert main(["extremal", "--instance", str(path), "--out", str(out), "--quiet"]) == 0
    rep = json.loads(out.read_text())
    ext = rep["points"]["extremal"]
    assert sorted(tuple(p["coords"]) for p in ext) == [(0.0, 0.0), (1.0, 0.0)]


# ---------------------------------------------------------------------------
# plot export
# ---------------------------------------------------------------------------


def test_export_plot_square(tmp_path):
    inst = tmp_path / "sq.json"
    rep = tmp_path / "sq_rep.json"
    csvf = tmp_path / "sq.csv"
    main(["gen", "square", "--step", "0.1", "--out", str(inst)])
    assert main(["verify-km", "--instance", str(inst), "--out", str(rep), "--quiet"]) == 0
    assert main(["export-plot", "--report", str(rep), "--out", str(csvf)]) == 0
    lines = csvf.read_text().splitlines()
    assert lines[0] == "x,y,label"
    labels = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
    assert labels == {"net", "extremal", "hull_of_extremal"}
    # corners appear among extremal rows
    ext_rows = [ln for ln in lines[1:] if ln.endswith(",extremal")]
    assert any(ln.startswith("1,1,") for ln in ext_rows)


def test_export_plot_hyperbolic_disk_model(tmp_path):
    inst = tmp_path / "h.json"
    rep = tmp_path / "h_rep.json"
    csvf = tmp_path / "h.csv"
    main(["gen", "hyp_triangle", "--out", str(inst)])
    assert main(["verify-km", "--instance", str(inst), "--out", str(rep), "--quiet"]) == 0
    assert main(["export-plot", "--report", str(rep), "--out", str(csvf)]) == 0
    for ln in csvf.read_text().splitlines()[1:]:
        x, y, _ = ln.split(",")
        assert math.hypot(float(x), float(y)) < 1.0


def test_export_plot_star_tree_equal_angles(tmp_path):
    inst = tmp_path / "t.json"
    rep = tmp_path / "t_rep.json"
    csvf = tmp_path / "t.csv"
    main(["gen", "tree_leaves", "--leaves", "4", "--out", str(inst)])
    assert main(["hull", "--instance", str(inst), "--out", str(rep), "--quiet"]) == 0
    assert main(["export-plot", "--report", str(rep), "--out", str(csvf)]) == 0
    rows = [ln.split(",") for ln in csvf.read_text().splitlines()[1:]]
    # leaves sit at unit radius, at equally spaced angles
    tips = [(float(x), float(y)) for x, y, label in rows
            if abs(math.hypot(float(x), float(y)) - 1.0) < 1e-9]
    angles = sorted(math.atan2(y, x) % (2 * math.pi) for x, y in set(tips))
    gaps = {round((b - a) % (2 * math.pi), 9) for a, b in zip(angles, angles[1:])}
    assert len(gaps) == 1


def _set_net_point(point):
    return lambda rep: rep["points"]["net"].__setitem__(0, point)


#: the report each malformed-input case edits: gen arguments and pipeline
_PLOT_REPORTS = {"square": (["square", "--step", "0.25"], "verify-km"),
                 "tree": (["tree_leaves"], "hull")}


@pytest.mark.parametrize("report, edit, field", [
    ("square", lambda rep: rep.update(points=[]), "points: expected an object"),
    ("square", lambda rep: rep["points"].update(net=5), "points.net: expected a list"),
    ("square", lambda rep: rep.update(instance=[]), "instance: expected an object"),
    ("square", lambda rep: rep["points"]["extremal"].insert(0, 7), "points.extremal[0]"),
    ("tree", _set_net_point({"kind": "tree", "edge": 99, "offset": 0.5}),
     "points.net[0]: tree point references unknown edge 99"),
    ("tree", _set_net_point({"kind": "tree", "edge": -1, "offset": 0.5}),
     "points.net[0]: tree point references unknown edge -1"),
    ("tree", _set_net_point({"kind": "tree", "edge": 0, "offset": 7.0}),
     "points.net[0]: offset 7.0 outside [0, 1.0]"),
    ("tree", _set_net_point({"kind": "euclidean", "coords": [0.0, 0.0]}),
     "points.net[0]: EuclideanPoint"),
], ids=["points-list", "net-int", "instance-list", "point-int", "tree-edge-99",
        "tree-edge-negative", "tree-offset-past-leaf", "tree-euclidean"])
def test_export_plot_rejects_malformed_sections(report, edit, field, tmp_path, capsys):
    # the first three used to exit 1 with an AttributeError or TypeError.  Of
    # the tree points, edge 99 and the euclidean point exited 1 with a
    # traceback, and edge -1 and offset 7 were plotted (on the last edge, and
    # past the leaf)
    inst, rep, csvf = tmp_path / "in.json", tmp_path / "rep.json", tmp_path / "out.csv"
    gen_args, pipeline = _PLOT_REPORTS[report]
    main(["gen", *gen_args, "--out", str(inst)])
    assert main([pipeline, "--instance", str(inst), "--out", str(rep), "--quiet"]) == 0
    obj = json.loads(rep.read_text())
    edit(obj)
    rep.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["export-plot", "--report", str(rep), "--out", str(csvf)]) == 2
    assert field in capsys.readouterr().err
    assert not csvf.exists()


def test_export_plot_determinism_and_unprojectable(tmp_path):
    inst = tmp_path / "c.json"
    rep = tmp_path / "c_rep.json"
    main(["gen", "random_points", "--n", "6", "--dim", "3", "--out", str(inst)])
    assert main(["hull", "--instance", str(inst), "--out", str(rep), "--quiet"]) == 0
    assert main(["export-plot", "--report", str(rep), "--out", str(tmp_path / "c.csv")]) == 2

    inst2 = tmp_path / "p.json"
    rep2 = tmp_path / "p_rep.json"
    main(["gen", "product_demo", "--out", str(inst2)])
    assert main(["hull", "--instance", str(inst2), "--out", str(rep2), "--quiet"]) == 0
    a, b = tmp_path / "pa.csv", tmp_path / "pb.csv"
    assert main(["export-plot", "--report", str(rep2), "--out", str(a)]) == 0
    assert main(["export-plot", "--report", str(rep2), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
