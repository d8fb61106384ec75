import dataclasses
import math
import re
from pathlib import Path

import pytest

import epgw
from epgw import (
    C_LIGHT,
    ConfigParseError,
    CoupledSystem,
    EpgwError,
    HBAR,
    InvalidRangeError,
    K_BOLTZMANN,
    MechanicalResonator,
    NoEPError,
    NonPositiveParameterError,
    NotAtEPError,
    OpticalCavity,
    Phase,
    RunawayGainError,
    SamplingTooCoarseError,
    TooFewSamplesError,
    UnknownKeyError,
    ValidationError,
    ZeroCouplingError,
    balanced_system,
    drive_amplitude_from_thickness,
    system_violations,
    validate_system,
)
from epgw.core import (
    CRITICAL_AMPLITUDE_FACTOR,
    require_nonnegative,
    require_positive,
    sweep_grid,
    validate_cavity,
    validate_resonator,
)

TWO_PI = 2.0 * math.pi
README = Path(__file__).resolve().parents[1] / "README.md"


def test_constants_are_codata_values():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 299792458.0
    assert K_BOLTZMANN == 1.380649e-23
    assert CRITICAL_AMPLITUDE_FACTOR == 0.53


def test_error_taxonomy_shares_base_class():
    # exit codes as in the README table: 1 bad input, 2 domain error
    for exc, exit_code in (
        (NonPositiveParameterError("x", -1.0), 1),
        (ValidationError([NonPositiveParameterError("x", -1.0)]), 1),
        (NoEPError(), 2),
        (ZeroCouplingError(), 2),
        (NotAtEPError(), 2),
        (InvalidRangeError(), 1),
        (RunawayGainError(), 2),
        (SamplingTooCoarseError(), 2),
        (TooFewSamplesError(), 2),
        (ConfigParseError(3, "bad"), 1),
        (UnknownKeyError("nope"), 1),
    ):
        assert isinstance(exc, EpgwError)
        assert type(exc).exit_code == exit_code


def test_readme_exit_code_table_lists_every_public_error():
    # each public EpgwError subclass is named in the row of its exit code
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = dict(re.findall(r"^\| (\d) +\|(.*)\|$", section, flags=re.M))
    errors = [getattr(epgw, name) for name in epgw.__all__]
    errors = [cls for cls in errors if isinstance(cls, type) and issubclass(cls, EpgwError) and cls is not EpgwError]
    assert len(errors) >= 10
    undocumented = [cls.__name__ for cls in errors if f"`{cls.__name__}`" not in rows.get(str(cls.exit_code), "")]
    assert undocumented == []


def test_nonpositive_error_carries_context():
    err = NonPositiveParameterError("mass", -2.0, where="resonator_1")
    assert err.name == "mass"
    assert err.value == -2.0
    assert err.where == "resonator_1"
    assert "resonator_1.mass" in str(err)


def test_config_parse_error_carries_line_number():
    err = ConfigParseError(7, "missing value")
    assert err.line == 7
    assert "line 7" in str(err)


def test_phase_enum_values():
    assert Phase.PT_SYMMETRIC.value == "pt_symmetric"
    assert Phase.BROKEN.value == "broken"
    assert Phase.EXCEPTIONAL_POINT.value == "exceptional_point"


def test_resonator_is_frozen(device_resonator):
    with pytest.raises(dataclasses.FrozenInstanceError):
        device_resonator.mass = 1.0


def test_cavity_resonance_frequency():
    cav = OpticalCavity(length=1e-4, kappa=1.0, detuning=0.0, n_cav=0.0)
    assert cav.omega_cav == pytest.approx(math.pi * C_LIGHT / 1e-4, rel=1e-15)
    # omega_cav is derived, not stored
    assert "omega_cav" not in {f.name for f in dataclasses.fields(OpticalCavity)}


def test_balanced_system_detunings(device, device_resonator):
    assert device.cavity_1.detuning == device_resonator.omega_m
    assert device.cavity_2.detuning == -device_resonator.omega_m
    assert device.is_balanced


def test_balanced_predicate_rejects_mismatched_arms(device, device_resonator):
    other = dataclasses.replace(device_resonator, mass=device_resonator.mass * 2)
    assert not dataclasses.replace(device, resonator_2=other).is_balanced
    lop = dataclasses.replace(device.cavity_2, kappa=device.cavity_2.kappa * 2)
    assert not dataclasses.replace(device, cavity_2=lop).is_balanced
    # both detunings blue is not balanced either
    blue2 = dataclasses.replace(device.cavity_2, detuning=device_resonator.omega_m)
    assert not dataclasses.replace(device, cavity_2=blue2).is_balanced


def test_with_photon_number_updates_both_cavities(device):
    driven = device.with_photon_number(1e12)
    assert driven.cavity_1.n_cav == 1e12
    assert driven.cavity_2.n_cav == 1e12
    assert driven.resonator_1 is device.resonator_1
    assert driven.coupling_j == device.coupling_j
    # original untouched
    assert device.cavity_1.n_cav == 0.0


def test_validate_system_accepts_reference_device(device):
    assert validate_system(device) is device
    # idempotent
    assert validate_system(validate_system(device)) is device


def test_validate_system_collects_all_violations(device, device_resonator):
    bad_res = dataclasses.replace(device_resonator, mass=0.0, thickness=-1.0)
    bad = dataclasses.replace(device, resonator_1=bad_res, coupling_j=-5.0)
    with pytest.raises(ValidationError) as exc_info:
        validate_system(bad)
    names = {(v.where, v.name) for v in exc_info.value.violations}
    assert ("resonator_1", "mass") in names
    assert ("resonator_1", "thickness") in names
    assert (None, "coupling_j") in names
    assert len(exc_info.value.violations) == 3


def test_system_violations_returns_empty_for_valid(device):
    assert system_violations(device) == []


def test_validate_resonator_flags_each_field():
    res = MechanicalResonator(omega_m=0.0, mass=-1.0, quality_factor=0.0, thickness=0.0, gamma_m=-1.0)
    assert {v.name for v in validate_resonator(res)} == {
        "omega_m",
        "mass",
        "quality_factor",
        "thickness",
        "gamma_m",
    }


def test_validate_cavity_allows_zero_detuning_and_photons():
    cav = OpticalCavity(length=1e-4, kappa=1.0, detuning=0.0, n_cav=0.0)
    assert validate_cavity(cav) == []
    assert {v.name for v in validate_cavity(OpticalCavity(length=0.0, kappa=0.0, detuning=0.0, n_cav=-1.0))} == {
        "length",
        "kappa",
        "n_cav",
    }


def test_require_helpers():
    require_positive("x", 1.0)
    require_nonnegative("x", 0.0)
    with pytest.raises(NonPositiveParameterError):
        require_positive("x", 0.0)
    with pytest.raises(NonPositiveParameterError):
        require_nonnegative("x", -1e-300)


def test_drive_amplitude_from_thickness():
    assert drive_amplitude_from_thickness(8e-8) == pytest.approx(4.24e-8, rel=1e-12)
    assert drive_amplitude_from_thickness(1.0) == 0.53
    assert drive_amplitude_from_thickness(1.6e-7) == pytest.approx(2 * drive_amplitude_from_thickness(8e-8), rel=1e-15)
    with pytest.raises(NonPositiveParameterError):
        drive_amplitude_from_thickness(0.0)


def test_invalid_systems_can_be_built_and_inspected():
    # construction never validates; only validate_system does
    res = MechanicalResonator(omega_m=-1.0, mass=1.0, quality_factor=1.0, thickness=1.0)
    cav = OpticalCavity(length=1.0, kappa=1.0, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(resonator_1=res, resonator_2=res, cavity_1=cav, cavity_2=cav, coupling_j=1.0)
    assert len(system_violations(system)) == 2


def test_balanced_system_factory_shares_resonator(device):
    assert device.resonator_1 is device.resonator_2
    assert device.cavity_1.length == device.cavity_2.length
    assert device.cavity_1.n_cav == 0.0


def test_sweep_grid_caps_the_point_count():
    # 1 << 20 points is the largest grid; more are refused before allocation
    assert len(sweep_grid("n", 0.0, 1.0, 1 << 20, log=False)) == 1 << 20
    for points in (1, (1 << 20) + 1, 10**13):
        with pytest.raises(InvalidRangeError, match=f"points = {points}; need 2 to 1048576 points"):
            sweep_grid("n", 0.0, 1.0, points, log=False)
