"""Byte identity of the two report shapes that no golden instance reaches.

(a) A ``check-axioms`` report with a convexity witness: ``gen square`` run on
the bumped plane of ``test_space_core``, whose segments bulge at mid-parameter,
so the verdict fails and ``worst_witness`` carries a quadruple.  (b) A
``verify-km`` report whose extremal scan comes back empty: the step-0.1 square
with hit radius and exclusion radius both raised to 0.2, twice the net
resolution, so no net point survives and the report carries the scan's
diagnostic with an infinite Hausdorff gap.  Both reports exit 1.

Both digests were recorded at commit 2811cc6, while the check-axioms,
verify-km and paper-checks results were still written as hand-copied dicts
beside their dataclasses.  The notes on numpy and BLAS in
``test_golden_reports`` hold here too.
"""

from __future__ import annotations

import hashlib
import json

from test_space_core import _BumpedPlane

from bicombing_lab import instances
from bicombing_lab.cli import main

WITNESS_DIGEST = "5a68c8fabc72bfd54b01ea53eae2a7be159452496a3437ec2e6bc4025bed37fc"
EMPTY_SCAN_DIGEST = "f4ec31b97075bf68aafb834db901252a60dd4974fd5cfbf3b90b67d49f00c25a"


def test_check_axioms_witness_report(tmp_path, monkeypatch):
    inst, report = tmp_path / "instance.json", tmp_path / "report.json"
    assert main(["gen", "square", "--out", str(inst)]) == 0
    monkeypatch.setattr(instances, "build_space", lambda desc: _BumpedPlane())
    assert main(["check-axioms", "--instance", str(inst), "--out", str(report), "--quiet"]) == 1
    witness = json.loads(report.read_text())["result"]["worst_witness"]
    assert list(witness) == ["x", "y", "x2", "y2", "t_prev", "t_mid", "t_next", "defect"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == WITNESS_DIGEST


def test_verify_km_empty_scan_report(tmp_path):
    inst, report = tmp_path / "instance.json", tmp_path / "report.json"
    assert main(["gen", "square", "--step", "0.1", "--out", str(inst)]) == 0
    obj = json.loads(inst.read_text())
    obj["params"].update(hit_eps=0.2, delta=0.2)
    inst.write_text(json.dumps(obj))
    assert main(["verify-km", "--instance", str(inst), "--out", str(report), "--quiet"]) == 1
    text = report.read_text()
    result = json.loads(text)["result"]
    assert result["extremal_count"] == 0
    assert result["diagnostic"]
    assert '"hausdorff_c_vs_hull_ext": Infinity' in text
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EMPTY_SCAN_DIGEST
