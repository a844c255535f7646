"""Input contract of the scenario runners: a scenario JSON with one or two
leaves replaced by a malformed value either raises an error type that the
command line reports (exit code 1), or runs to a report whose every entry
value is finite. No other exception escapes."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugekit import catalog
from gaugekit.errors import GaugekitError
from gaugekit.fields import DecayEnvelope
from gaugekit.pipeline import Report, Scenario, emit_report, run_scenario

# the exception types that gaugekit's command line turns into exit code 1
REPORTED = (GaugekitError, ValueError, KeyError, OSError)

BAD_VALUES = (None, True, "x", [], {}, [[1]], 0, -0.5, 0.999999, 1e-300, 1e308,
              math.inf, -math.inf, math.nan, 10**400)


def _config(transversal, short_range=None, scalar=None):
    return {"schema_version": 1, "dimension": 2, "obstacle_radius": 1.0, "label": "",
            "transversal": {"profile": transversal}, "short_range": short_range,
            "scalar": scalar}


PHI = [[-2, 0.05, 0.0], [-1, 0.0, 0.0], [0, 0.0, 0.0], [1, 0.0, 0.0], [2, 0.05, 0.0]]
RING = {"kind": "gaussian_ring",
        "params": {"amplitude": 0.5, "r0": 2.0, "sigma": 0.4, "modulation": [[2, 0.2, 0.1]]}}

# an equivalent pair under a declared gauge (m = 1, phi = 0.1 cos 2 theta,
# and the gauge scalar 0.3 exp(-|x - (2, 0.7)|^2 / 2)), so the runner reaches
# the short-range stage
CLASSIFY = {
    "schema_version": 1, "kind": "classify", "label": "", "seed": 11,
    "obstacle_convex": True,
    "config1": _config([[0, 0.3, 0.0], [1, 0.025, 0.0], [-1, 0.025, 0.0]], scalar=RING),
    "config2": _config([[-2, 0.0, -0.1], [-1, 0.025, 0.0], [0, 1.3, 0.0], [1, 0.025, 0.0],
                        [2, 0.0, 0.1]],
                       short_range={"kind": "grad_bumps",
                                    "params": {"bumps": [[0.3, 2.0, 0.7, 1.0]]}},
                       scalar=RING),
    "geometry": {"r_max": 3.5},
    "tolerances": {"curl_tol": 1e-5},
    "kernels": {"n_grid": 32, "lam": 1.0, "relating_gauge": {"m": 1, "phi": PHI}},
    "output_dir": None,
}

KERNEL_LAB = {
    "schema_version": 1, "kind": "kernel-lab", "label": "", "seed": 3,
    "config1": _config([[0, 0.4, 0.0]]),
    "config2": _config([[0, 0.4, 0.0]]),
    "kernels": {"n_grid": 32, "lam": 1.5,
                "remainder": {"kind": "diagonal_gaussian", "amplitude": 0.04, "width": 0.5},
                "relating_gauge": {"m": -1, "phi": PHI}},
}

RECONSTRUCT = {
    "schema_version": 1, "kind": "reconstruct", "label": "",
    "config1": _config([[0, 0.3, 0.0]],
                       short_range={"kind": "ring_bump_tangential",
                                    "params": {"b0": 0.4, "r0": 2.0, "sigma": 0.35}},
                       scalar={"kind": "gaussian_bumps",
                               "params": {"bumps": [[0.45, 0.2, 0.0, 0.75]]},
                               "C": 1.0, "eps0": 2.0}),
    "geometry": {"n_angles": 8, "n_offsets": 16, "r_min": 1.001, "r_max": 3.5},
    "tolerances": {},
}

BASES = (CLASSIFY, KERNEL_LAB, RECONSTRUCT)


def _leaves(node, path=()):
    """Paths to every scalar, null and empty container below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = [list(_leaves(base)) for base in BASES]


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _run(data) -> None:
    try:
        with np.errstate(all="ignore"):  # malformed values overflow on the way
            report = run_scenario(Scenario.from_json(json.dumps(data)))
    except REPORTED:
        return
    bad = [(e.name, e.value) for e in report.entries if not math.isfinite(e.value)]
    assert not bad, f"entries that are not finite: {bad}"


def test_bases_run_clean():
    for base in BASES:
        report = run_scenario(Scenario.from_json(json.dumps(base)))
        assert report.verdict in ("equivalent", "inspected", "reconstructed"), report.witness
        assert all(e.passed is not False for e in report.entries)
    assert any(e.name == "short_range_gradient_residual"
               for e in run_scenario(Scenario.from_json(json.dumps(CLASSIFY))).entries)


@st.composite
def _mutations(draw):
    b = draw(st.sampled_from(range(len(BASES))))
    paths = draw(st.lists(st.sampled_from(LEAVES[b]), min_size=1, max_size=2, unique=True))
    data = json.loads(json.dumps(BASES[b]))
    for path in paths:
        _set(data, path, draw(st.sampled_from(BAD_VALUES)))
    return data


@settings(derandomize=True, max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutations())
def test_malformed_leaves_raise_a_reported_error_or_run_clean(data):
    _run(data)


DROP = object()  # a mutation that deletes the key


def _mutated(base, path, value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


SCALAR = ("config1", "scalar")
BUMP = SCALAR + ("params", "bumps", 0)
MOD = ("config1", "scalar", "params", "modulation", 0)
SHORT = ("config1", "short_range")
BUMP_COLUMNS = "[amplitude, centre 0, centre 1, width]"


@pytest.mark.parametrize("base, path, value, message", [
    (KERNEL_LAB, ("kernels", "n_grid"), True, "kernels 'n_grid' must be an integer, got True"),
    (KERNEL_LAB, ("kernels", "n_grid"), 8, "kernels 'n_grid' must be at least 16, got 8"),
    (KERNEL_LAB, ("kernels",), [], "kernels must be a JSON object, got []"),
    (KERNEL_LAB, ("kernels", "remainder"), 5, "kernels 'remainder' must be a JSON object, got 5"),
    (KERNEL_LAB, ("kernels", "remainder", "width"), 1e300,
     "remainder 'width' must have a float square, got 1e+300"),
    (KERNEL_LAB, ("kernels", "remainder", "width"), 1e-300,
     "remainder 'width' must have a float square, got 1e-300"),
    (KERNEL_LAB, ("kernels", "relating_gauge", "m"), 1.0,
     "relating_gauge 'm' must be an integer, got 1.0"),
    (KERNEL_LAB, ("kernels", "relating_gauge"), "x",
     "relating_gauge must be a JSON object, got 'x'"),
    (KERNEL_LAB, ("kernels", "relating_gauge", "phi", 0, 0), math.inf,
     "coefficients must be a list of [k, re, im] triples, got "
     "[[inf, 0.05, 0.0], [-1, 0.0, 0.0], [0, 0.0, 0.0], [1, 0.0, 0.0], [2, 0.05, 0.0]]"),
    (CLASSIFY, ("geometry", "r_max"), "x", "geometry 'r_max' must be a finite number, got 'x'"),
    (RECONSTRUCT, ("geometry", "n_angles"), DROP, "geometry 'n_angles' must be given"),
    (RECONSTRUCT, ("geometry", "n_offsets"), 16.0,
     "geometry 'n_offsets' must be an integer, got 16.0"),
    (RECONSTRUCT, ("tolerances",), [], "tolerances must be a JSON object, got []"),
    (CLASSIFY, ("tolerances", "curl_tol"), None,
     "tolerances 'curl_tol' must be a finite number, got None"),
    (CLASSIFY, ("seed",), -1, "scenario 'seed' must be at least 0, got -1"),
    (CLASSIFY, ("seed",), 1.5, "scenario 'seed' must be an integer, got 1.5"),
    (CLASSIFY, ("output_dir",), 5, "scenario 'output_dir' must be a path, got 5"),
    (CLASSIFY, ("config1", "dimension"), 2.0,
     "configuration 'dimension' must be an integer, got 2.0"),
    (CLASSIFY, ("config1", "obstacle_radius"), DROP,
     "configuration 'obstacle_radius' must be given"),
    (CLASSIFY, SCALAR + ("params",), [1], "gaussian_ring params must be a JSON object, got [1]"),
    (CLASSIFY, SCALAR + ("params", "sigma"), 0,
     "gaussian_ring params 'sigma' must be above 0, got 0.0"),
    (CLASSIFY, MOD + (0,), 1.5,
     "gaussian_ring params 'modulation' row 0 'l' must be an integer, got 1.5"),
    (CLASSIFY, MOD, [1], "gaussian_ring params 'modulation' must be a list of "
     "[l, cos_amp, sin_amp] rows, got [[1]]"),
    (RECONSTRUCT, BUMP + (3,), 0, "gaussian_bumps params 'bumps' row 0 'width' must be above 0, "
     "got 0.0"),
    (RECONSTRUCT, BUMP, [0.45, 0.2, 0.0, 0.0, 0.75], f"gaussian_bumps params 'bumps' must be a "
     f"list of {BUMP_COLUMNS} rows, got [[0.45, 0.2, 0.0, 0.0, 0.75]]"),
    (RECONSTRUCT, SCALAR + ("params", "bumps"), DROP, f"gaussian_bumps params 'bumps' must be a "
     f"list of {BUMP_COLUMNS} rows, got None"),
    (RECONSTRUCT, SHORT + ("params", "sigma"), 1e300, "ring_bump_tangential params "
     "{'b0': 0.4, 'r0': 2.0, 'sigma': 1e+300} overflow or underflow a float"),
    (CLASSIFY, ("config2", "short_range", "params", "bumps", 0, 3), 1e-300, "grad_bumps params "
     "{'bumps': [[0.3, 2.0, 0.7, 1e-300]]} overflow or underflow a float"),
    (RECONSTRUCT, SCALAR + ("eps0",), -0.5, "scalar 'eps0' must be above 0, got -0.5"),
    (RECONSTRUCT, SCALAR + ("C",), True, "scalar 'C' must be a finite number, got True"),
])
def test_refused_value_names_its_section_and_key(base, path, value, message):
    with pytest.raises(ValueError) as exc:
        _run_strict(_mutated(base, path, value))
    assert str(exc.value) == message


def _run_strict(data):
    with np.errstate(all="ignore"):
        return run_scenario(Scenario.from_json(json.dumps(data)))


def test_declared_eps0_alone_replaces_its_half_of_the_envelope():
    section = {"kind": "power", "params": {"c": 0.8, "p": 3}, "eps0": 0.5}
    cfg = catalog.config_from_dict({"dimension": 2, "obstacle_radius": 1.0, "scalar": section})
    assert cfg.scalar.envelope == DecayEnvelope(C=0.8, eps0=0.5)
    calibrated = catalog.build_vector("grad_power", {"c": 0.3, "p": 2.0}).envelope
    declared = catalog.build_vector("grad_power", {"c": 0.3, "p": 2.0}, C=4.0).envelope
    assert declared == DecayEnvelope(C=4.0, eps0=calibrated.eps0)


def test_a_kind_without_an_envelope_needs_both_halves():
    # cross_axis is long-range: it declares no envelope to take a half from
    with pytest.raises(ValueError, match="^vector 'C' must be given$"):
        catalog.build_vector("cross_axis", {}, dimension=3, eps0=2.0)
    assert catalog.build_vector("cross_axis", {}, dimension=3, C=1.0, eps0=2.0).envelope == \
        DecayEnvelope(C=1.0, eps0=2.0)


def test_artifact_without_a_table_writes_no_file(tmp_path):
    report = Report(kind="reconstruct")
    report.artifacts["note"] = "no table"
    assert emit_report(report, tmp_path) == [tmp_path / "report.json"]
