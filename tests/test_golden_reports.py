"""Byte identity of CLI reports on golden instances.

Each case writes an instance with ``bicombing-lab gen``, runs one pipeline on
it and compares the SHA-256 of the report with a recorded digest: the
``verify-km`` and ``hull`` cases at commit 4a5db54, before hull closure kept
its samples as packed arrays, the ``paper-checks`` and ``check-axioms`` cases
at commit bd95d23, while the scalar distance and segment evaluators still
existed beside the batch kernels, and the ``verify-km`` cases on the step-0.1
square and the product square and the ``extremal`` cases on the l-infinity
ball and the simplex at commit 440a4b3, while the extremal scan still searched
aligned chord pairs over a dense distance matrix, and the ``hull`` cases on the
l1 and l-infinity balls at commit ac73f71, while hull closure still queried
every segment sample and greedy separation tested keepers by dense blocks
(they pin the l1 and l-infinity half-diagonals of the cell cover), the
caterpillar cases at commit 778f8e6, while tree nearest distances still
formed every route term (they pin nearest queries on a tree whose points
spread over many edges), and the ``hull`` and ``verify-km`` cases on the
side-2 hyperbolic triangle at commit 2d6f3fe, while hyperbolic hull closure
still queried every segment sample (they pin the hyperbolic cell cover far
from the origin), and the failing ``paper-checks`` cases at commit cf146f7,
while the set test still scanned every chord pair of the net (they pin the
witness chords of failing faces; these reports exit 1).  A refactor that keeps the lab's arithmetic keeps
every digest.  A change that moves a report must say which one and why, and
record the new digest here.

The digests pin floating-point rounding, and the numpy build and its BLAS
take part in it (hyperbolic distances go through a BLAS matrix product).  They
were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, x86-64
Linux); under another numpy or BLAS a digest can move with no change to the
lab, and is then re-recorded from the parent commit on that installation.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from conftest import CATERPILLAR_EDGES, CATERPILLAR_NODES

from bicombing_lab.cli import main

GOLDEN = [
    ("verify-km", ["hyp_triangle"],
     "62f28283371254c33fe1a0f694069533202e3e074e8c33da83a865ee4d12cb69"),
    ("verify-km", ["tree_leaves"],
     "25de2decd90a31c2e0a11a1ca9a4540e7a51f4dae4a55b7b90add5ccc5c9d0e3"),
    ("verify-km", ["disk"],
     "905d50912d3b41476181a2d409b818c81ba5911588e2fa7ab212c2e581e60be1"),
    ("hull", ["cube", "--step", "0.16666666666666666"],
     "34cf8481f5d56fe8923cbe24dbfd6fe7581f3a52bbc91e2f36fa26cae3cacb87"),
    ("hull", ["product_demo"],
     "229cadbdbdbe700d5bfb7ef5193b5700d605afe28e9f404b9e5c4de977a74ff4"),
    ("paper-checks", ["cube", "--step", "0.16666666666666666"],
     "7fc78f5da6c818719d0b5ee0cf2531d004970f060d4c85ad1b53ad8e9a62675c"),
    ("paper-checks", ["hyp_triangle"],
     "59dd960ce5feb10be0d1dfb656e0bd08bff1a0ef455f090753965d3a170f7d40"),
    ("paper-checks", ["tree_leaves"],
     "052ebefc8f726a9daea5629aa135f0c9472fc5bbd4f58899476c666ef899ea45"),
    ("check-axioms", ["tree_leaves"],
     "b082ee50d1746778bd55d6f17c7f20c10ffb67466de15b79560b3b6824a45da3"),
    ("verify-km", ["square", "--step", "0.1"],
     "43d54319f4eacad7659371ef92fc7b31158f1b50ed06a94e81ee4c3379888e40"),
    ("verify-km", ["product_demo"],
     "26876fc319d3be3e450f3c6957bb1870e9d3a8f97c7947f23c45ca8defaa51e2"),
    ("extremal", ["lp_ball"],
     "a1069b187502f0205b3120db6f37ea7a30e29f1c8dbb7bfb773c06fa4e0ece6c"),
    ("extremal", ["simplex"],
     "2cab8e4798cf1002365303e28d5f4523171f1404b5c28bb224cc4e2088caddc1"),
    ("hull", ["lp_ball", "--p", "1"],
     "be3f6079196b0e6db3563dbe0e870b74e079583f556768460858675beb2b4361"),
    ("hull", ["lp_ball"],
     "d8b08094411a7608e6500cb35d78e6c00356dd9d4e14a148dc0aa73f7f02b230"),
    ("hull", ["hyp_triangle", "--side", "2"],
     "7043096b3bd3485b7f1717dae4d43886185a2002c84a25e90d1bb54be63e50f9"),
    ("verify-km", ["hyp_triangle", "--side", "2"],
     "3c9c91a9e17983208995ae30182b19e22efa6f84bd63cb12f26c01b830b87558"),
]


#: reports that exit 1: paper-checks whose face checks fail, with the witness
#: chords in their details
FAILING_GOLDEN = [
    ("paper-checks", ["square", "--step", "0.1"],
     "dec0c4e55f31a73b955df569a11ec36c01c8155893ceec8bf542e89237121983"),
    ("paper-checks", ["product_demo"],
     "fdca21c7bf7a3f949ad95ca0b8628dd3bf107fa7a4c5aad6cd1f37dea746939c"),
]


def _case_id(command, gen_args):
    """command-kind, plus the exponent where --p is given and the side
    where --side is given."""
    tag = "".join(f"-{name}{gen_args[gen_args.index(f'--{name}') + 1]}"
                  for name in ("p", "side") if f"--{name}" in gen_args)
    return f"{command}-{gen_args[0]}{tag}"


@pytest.mark.parametrize("command, gen_args, digest, code",
                         [(*case, 0) for case in GOLDEN] + [(*case, 1) for case in FAILING_GOLDEN],
                         ids=[_case_id(c, g) for c, g, _ in GOLDEN + FAILING_GOLDEN])
def test_report_digest(tmp_path, command, gen_args, digest, code):
    inst, report = tmp_path / "instance.json", tmp_path / "report.json"
    assert main(["gen", *gen_args, "--out", str(inst)]) == 0
    assert main([command, "--instance", str(inst), "--out", str(report), "--quiet"]) == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


CATERPILLAR_GOLDEN = [
    ("hull", "749ca65d3576f8fa3dad25c6a996a762ebb138541ad0249919065356e7040b9f"),
    ("verify-km", "16f9f7daff3b4a518c969d8fd091ab52958e308d506778e58f0417c9ac9dc315"),
]


def _caterpillar_instance() -> dict:
    """The caterpillar tree, seeded with its six leaves, at eps 0.06."""
    leaves = [{"kind": "tree", "edge": e, "offset": 0.0 if u[0] in "ab" else w}
              for e, (u, _, w) in enumerate(CATERPILLAR_EDGES) if e >= 3]
    return {
        "format": 1,
        "space": {"kind": "tree", "nodes": list(CATERPILLAR_NODES),
                  "edges": [list(e) for e in CATERPILLAR_EDGES]},
        "seed_points": leaves,
        "params": {"eps": 0.06, "hit_eps": 0.06, "delta": 0.4, "face_tol": 0.015,
                   "t_grid": 7, "segment_samples": 8, "max_rounds": 64,
                   "rng_seed": 0, "pass_factor": 3.0},
    }


@pytest.mark.parametrize("command, digest", CATERPILLAR_GOLDEN,
                         ids=[c for c, _ in CATERPILLAR_GOLDEN])
def test_caterpillar_report_digest(tmp_path, command, digest):
    inst, report = tmp_path / "instance.json", tmp_path / "report.json"
    inst.write_text(json.dumps(_caterpillar_instance(), indent=2))
    assert main([command, "--instance", str(inst), "--out", str(report), "--quiet"]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
