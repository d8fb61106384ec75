import dataclasses
import math
import re
from pathlib import Path

import numpy as np
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
    SensitivityContext,
    TooFewSamplesError,
    UnknownKeyError,
    ValidationError,
    ZeroCouplingError,
    balanced_system,
    drive_amplitude_from_thickness,
)
from epgw.core import (
    CRITICAL_AMPLITUDE_FACTOR,
    _DomainError,
    require_nonnegative,
    require_positive,
    require_strain,
    sweep_grid,
    system_violations,
    validate_cavity,
    validate_resonator,
    validate_system,
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
    # the one rule: a public error exits 2 exactly when it derives from
    # _DomainError, the one class that sets exit_code = 2
    errors = [getattr(epgw, name) for name in epgw.__all__]
    errors = [cls for cls in errors if isinstance(cls, type) and issubclass(cls, EpgwError)]
    assert len(errors) >= 12
    for cls in errors:
        assert (cls.exit_code == 2) == issubclass(cls, _DomainError), cls.__name__
    assert "exit_code" in vars(_DomainError)
    assert [cls.__name__ for cls in errors if "exit_code" in vars(cls) and cls is not EpgwError] == []


def test_readme_python_blocks_run():
    # the python blocks of the README run in order in one namespace, as a
    # reader pastes them, against the current API
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sweep"].d_exact.shape == (7,)


def test_readme_exit_code_table_lists_every_public_error():
    # the table names each public EpgwError subclass once, in the row of
    # its exit code, and no other class
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (\d) +\|(.*)\|$", section, flags=re.M)
    documented = sorted((name, int(code)) for code, cell in rows for name in re.findall(r"`(\w+)`", cell))
    errors = [getattr(epgw, name) for name in epgw.__all__]
    errors = [cls for cls in errors if isinstance(cls, type) and issubclass(cls, EpgwError) and cls is not EpgwError]
    assert len(errors) >= 10
    assert documented == sorted((cls.__name__, cls.exit_code) for cls in errors)


# The public surface, sorted. A name joins or leaves epgw.__all__ only on
# purpose, with this list.
PUBLIC_NAMES = [
    "C_LIGHT", "ConfigParseError", "CoupledSystem", "EpgwError", "HBAR", "InvalidRangeError",
    "K_BOLTZMANN", "MechanicalResonator", "NoEPError", "NonPositiveParameterError", "NotAtEPError",
    "OpticalCavity", "Phase", "RunawayGainError", "SamplingTooCoarseError", "SensitivityContext",
    "SensitivityCurve", "SpectralEstimate", "SplittingResult", "SupermodePair", "TooFewSamplesError",
    "Trajectory", "UnknownKeyError", "ValidationError", "ZeroCouplingError", "balanced_system",
    "detuning_response", "drive_amplitude_from_thickness", "eigenvalues_general", "ep_photon_number",
    "ep_tolerance", "estimate_spectrum", "min_detectable_strain", "mode_matrix", "propagate_exact",
    "propagate_rk", "read_overlay_csv", "sensitivity_curve", "splitting", "sweep_photon_number",
    "sweep_strain", "thermal_frequency_noise", "vacuum_coupling", "zero_point_fluctuation",
]


def test_public_names_are_pinned():
    assert sorted(epgw.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(epgw, name)] == []


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


def test_balanced_system_detunings(device, device_resonator):
    assert device.cavity_1.detuning == device_resonator.omega_m
    assert device.cavity_2.detuning == -device_resonator.omega_m


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


def test_building_an_invalid_system_lists_every_violation(device, device_resonator):
    bad_res = dataclasses.replace(device_resonator, mass=0.0, thickness=-1.0)
    with pytest.raises(ValidationError) as exc_info:
        dataclasses.replace(device, resonator_1=bad_res, coupling_j=-5.0)
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


@pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
def test_validate_cavity_names_a_detuning_that_is_not_finite(detuning):
    # any finite detuning is valid, of either sign; only a non-finite one is flagged
    cav = OpticalCavity(length=1e-4, kappa=1.0, detuning=detuning, n_cav=0.0)
    (violation,) = validate_cavity(cav, "cavity_2")
    assert type(violation) is NonPositiveParameterError
    assert str(violation) == f"cavity_2.detuning = {detuning!r} is not finite"
    assert validate_cavity(dataclasses.replace(cav, detuning=-1e300)) == []


def test_require_helpers():
    require_positive("x", 1.0)
    require_nonnegative("x", 0.0)
    with pytest.raises(NonPositiveParameterError):
        require_positive("x", 0.0)
    with pytest.raises(NonPositiveParameterError):
        require_nonnegative("x", -1e-300)
    # each returns the checked value as a Python float
    for value in (np.float64(2.5), np.float32(0.5), 3, True):
        for checked in (require_positive("x", value), require_nonnegative("x", value)):
            assert type(checked) is float and checked == value
    assert type(require_strain(np.float64(-1e-3))) is float and require_strain(np.float64(-1e-3)) == -1e-3
    assert math.copysign(1.0, require_nonnegative("x", np.float64(-0.0))) == -1.0


def test_records_store_python_floats_as_built(device):
    res = MechanicalResonator(omega_m=np.float64(1e9), mass=np.float32(5.3e-15), quality_factor=100000, thickness=8e-8)
    cav = OpticalCavity(length=np.float64(1e-4), kappa=1, detuning=np.float64(-0.0), n_cav=False)
    system = dataclasses.replace(device, resonator_2=res, cavity_2=cav, coupling_j=np.float64(1e7))
    ctx = SensitivityContext(np.float64(4.0), 1, np.float32(4e-8), np.float64(1e5))
    for record in (res, cav, ctx, system.with_photon_number(np.float64(3.0)).cavity_2):
        assert all(type(getattr(record, f.name)) is float for f in dataclasses.fields(record))
    assert type(system.coupling_j) is float
    assert (res.mass, res.quality_factor, cav.kappa, cav.n_cav) == (float(np.float32(5.3e-15)), 1e5, 1.0, 0.0)
    assert math.copysign(1.0, cav.detuning) == -1.0


@pytest.mark.parametrize("text", ["5.3e-15", b"5.3e-15", bytearray(b"5.3e-15")], ids=["str", "bytes", "bytearray"])
@pytest.mark.parametrize("record", [MechanicalResonator, OpticalCavity])
def test_a_record_refuses_a_text_field_rather_than_parsing_it(record, text):
    # float() would read "5.3e-15" as a number; a record refuses it as it is built
    fields = {f.name: 1.0 for f in dataclasses.fields(record)}
    name = "mass" if record is MechanicalResonator else "n_cav"
    with pytest.raises(TypeError, match=rf"^{record.__name__}\.{name} = {re.escape(repr(text))} is not a number$"):
        record(**{**fields, name: text})


def test_drive_amplitude_from_thickness():
    assert drive_amplitude_from_thickness(8e-8) == pytest.approx(4.24e-8, rel=1e-12)
    assert drive_amplitude_from_thickness(1.0) == 0.53
    assert drive_amplitude_from_thickness(1.6e-7) == pytest.approx(2 * drive_amplitude_from_thickness(8e-8), rel=1e-15)
    with pytest.raises(NonPositiveParameterError):
        drive_amplitude_from_thickness(0.0)


def test_an_invalid_system_cannot_be_built():
    # the records are built unchecked; the system checks them, as one
    res = MechanicalResonator(omega_m=-1.0, mass=1.0, quality_factor=1.0, thickness=1.0)
    cav = OpticalCavity(length=1.0, kappa=1.0, detuning=0.0, n_cav=0.0)
    with pytest.raises(ValidationError) as exc_info:
        CoupledSystem(resonator_1=res, resonator_2=res, cavity_1=cav, cavity_2=cav, coupling_j=1.0)
    assert [(v.where, v.name) for v in exc_info.value.violations] == [
        ("resonator_1", "omega_m"),
        ("resonator_2", "omega_m"),
    ]


@pytest.mark.parametrize("n_cav", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_with_photon_number_refuses_a_bad_drive_in_both_cavities(device, n_cav):
    with pytest.raises(ValidationError) as exc_info:
        device.with_photon_number(n_cav)
    assert [(v.where, v.name) for v in exc_info.value.violations] == [("cavity_1", "n_cav"), ("cavity_2", "n_cav")]


def test_a_numpy_before_2_is_refused_at_import():
    # np.fft takes ``out`` from numpy 2.0 on; an older numpy fails at import, not in simulate
    with pytest.raises(ImportError, match=r"^epgw needs numpy >= 2\.0; numpy 1\.26\.4 is installed$"):
        epgw._require_numpy("1.26.4")
    for version in ("2.0.0", "2.0.0rc1", np.__version__):
        epgw._require_numpy(version)


def test_balanced_system_factory_shares_resonator(device):
    assert device.resonator_1 is device.resonator_2
    assert device.cavity_1.length == device.cavity_2.length
    assert device.cavity_1.n_cav == 0.0


@pytest.mark.parametrize("lo, hi", [(1e12, 1e12), (0.0, 0.0), (2.0, 1.0)], ids=["equal", "zero", "reversed"])
@pytest.mark.parametrize("log", [False, True])
def test_sweep_grid_refuses_an_empty_or_reversed_range(lo, hi, log):
    # min == max is empty: a grid of one repeated value is refused, not returned
    with pytest.raises(InvalidRangeError, match=re.escape(f"empty range [n_min, n_max] = [{lo!r}, {hi!r}]")):
        sweep_grid("n", lo, hi, 3, log=log)


def test_sweep_grid_caps_the_point_count():
    # 1 << 20 points is the largest grid; more are refused before allocation
    assert len(sweep_grid("n", 0.0, 1.0, 1 << 20, log=False)) == 1 << 20
    for points in (1, (1 << 20) + 1, 10**13):
        with pytest.raises(InvalidRangeError, match=f"points = {points}; need 2 to 1048576 points"):
            sweep_grid("n", 0.0, 1.0, points, log=False)
