"""A CoupledSystem is valid by construction.

Over arbitrary float fields (NaN, +-inf, +-0 and subnormals included), a
system either builds or raises ValidationError naming exactly the fields
that break their rule, in system_violations' order. The rules are written
out here as plain comparisons, apart from the library's ``_check``.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from epgw import CoupledSystem, MechanicalResonator, OpticalCavity, ValidationError  # noqa: E402
from epgw.core import system_violations  # noqa: E402

TWO_PI = 2.0 * math.pi


def _positive(v):
    return 0.0 < v < math.inf


def _nonnegative(v):
    return 0.0 <= v < math.inf


def _finite(v):
    return -math.inf < v < math.inf


# (where, name, rule, reference device's value) for every field of a system,
# in system_violations' order
RESONATOR = [
    ("omega_m", _positive, TWO_PI * 1e9),
    ("mass", _positive, 5.3e-15),
    ("quality_factor", _positive, 1e5),
    ("thickness", _positive, 8e-8),
    ("gamma_m", _nonnegative, 0.0),
]
CAVITY = [
    ("length", _positive, 1e-4),
    ("kappa", _positive, TWO_PI * 1e8),
    ("detuning", _finite, TWO_PI * 1e9),
    ("n_cav", _nonnegative, 1.4e12),
]
FIELDS = (
    [("resonator_1", name, rule, value) for name, rule, value in RESONATOR]
    + [("resonator_2", name, rule, value) for name, rule, value in RESONATOR]
    + [("cavity_1", name, rule, value) for name, rule, value in CAVITY]
    + [("cavity_2", name, rule, value) for name, rule, value in CAVITY]
    + [(None, "coupling_j", _nonnegative, TWO_PI * 1e7)]
)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _build(values):
    """CoupledSystem from one value per entry of FIELDS, in order."""
    r1, r2, c1, c2 = values[0:5], values[5:10], values[10:14], values[14:18]
    return CoupledSystem(
        resonator_1=MechanicalResonator(*r1),
        resonator_2=MechanicalResonator(*r2),
        cavity_1=OpticalCavity(*c1),
        cavity_2=OpticalCavity(*c2),
        coupling_j=values[18],
    )


@settings(max_examples=300)
@given(st.dictionaries(st.integers(0, len(FIELDS) - 1), st.floats() | st.sampled_from(EDGES), max_size=8))
@example({index: math.nan for index in range(len(FIELDS))})
@example({index: -0.0 for index in range(len(FIELDS))})
@example({index: 5e-324 for index in range(len(FIELDS))})
def test_a_system_builds_or_names_exactly_its_invalid_fields(replaced):
    values = [replaced.get(index, value) for index, (_, _, _, value) in enumerate(FIELDS)]
    expected = [(where, name) for (where, name, rule, _), v in zip(FIELDS, values) if not rule(v)]
    try:
        system = _build(values)
    except ValidationError as err:
        assert [(v.where, v.name) for v in err.violations] == expected
        bad = [v for (_, _, rule, _), v in zip(FIELDS, values) if not rule(v)]
        assert all(v.value is value for v, value in zip(err.violations, bad))
        assert str(err).startswith(f"{len(expected)} invalid parameter(s): ")
    else:
        assert expected == []
        assert system_violations(system) == []
