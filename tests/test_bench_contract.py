"""The benchmark's calls on the package: one spec of every call kind the
perfbench workloads make, bound through perfbench/calls.py and run once.

This pins the public names, signatures and options the benchmark uses, so
a change to the package API that would break the benchmark fails here.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import calls  # noqa: E402
import workloads  # noqa: E402


def _one_spec_per_kind() -> list:
    specs = workloads.lattice_specs(0) + workloads.point_specs(0)[0]
    first = {}
    for spec in specs:
        kind, args, tags = spec
        first.setdefault((kind, tags.get("mode"), args.get("ordering")), spec)
    return list(first.values())


SPECS = _one_spec_per_kind()


def _spec_id(spec) -> str:
    kind, args, tags = spec
    return "-".join(str(x) for x in (kind, tags.get("mode"), args.get("ordering")) if x)


def test_every_kind_covered():
    kinds = {spec[0] for spec in SPECS}
    assert kinds == {"F", "F_tilde", "k2", "specialize", "theta", "J", "zeta", "wp",
                     "s_coeffs", "dlog", "L_form", "curvature", "closedness", "residue",
                     "verify"}


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_call_runs(spec):
    result = calls.bind(spec, calls.modules())()
    calls.canonical(result)
