"""The benchmark's binding to the package, checked in the default run.

``perfbench/workloads.py`` and ``perfbench/tracer.py`` reach into the
package by name (``DerivationMap.flatten``, ``exact.Inconsistent``, each
module's ``__all__``), so a public name deleted from under them would
otherwise only show up as a failed benchmark run.  Both files are imported
by path and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_unit_passes_its_check_and_matches_golden(workload, tmp_path):
    units = workloads.WORKLOADS[workload](SEED, str(tmp_path))
    assert units
    for unit in units:
        d = workloads.digest(unit.check(unit.run()))
        if unit.pinned:
            assert GOLDEN[unit.name] == d, unit.name


def test_tracer_records_the_solves_of_a_deep_unit(tmp_path):
    unit = workloads.deep(SEED, str(tmp_path))[0]
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_unit(unit.name)
        output = unit.run()
    finally:
        t.uninstall()
    assert workloads.digest(unit.check(output)) == GOLDEN[unit.name]
    names = {span[0]: span[2] for span in t.spans}
    assert {"exact.Echelon", "exact.rank"} <= {names[solve[0]] for solve in t.solves}
    # the theorem's bracket comparison runs in a wrapped span, so its per-layer time is seen
    assert "liealg.first_bracket_mismatch" in names.values()
    assert tracer.layer_metrics(t, 0, 0)["liealg.iso_check.s"] > 0
