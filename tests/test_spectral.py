import cmath
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from epgw import (
    CoupledSystem,
    EpgwError,
    InvalidRangeError,
    MechanicalResonator,
    NoEPError,
    NotAtEPError,
    OpticalCavity,
    Phase,
    ZeroCouplingError,
    balanced_system,
    detuning_response,
    eigenvalues_general,
    ep_photon_number,
    ep_tolerance,
    splitting,
    sweep_photon_number,
    sweep_strain,
    vacuum_coupling,
    zero_point_fluctuation,
)
from epgw import core, spectral
from epgw.dynamics import mode_matrix, propagate_exact
from epgw.spectral import _arms
from oracle import eigenvalues_numeric, ep_photon_number_scanned, strained_directly

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon


def _random_system(rng):
    """Random two-arm system with frequencies 1e6..1e10 rad/s, J/w in
    [1e-4, 1e-1] and arm dampings anywhere in [-4J, 4J]. Loss is carried
    by gamma_m, gain by a blue-detuned driven cavity, so the full damping
    chain is exercised."""
    w1 = float(rng.uniform(1e6, 1e10))
    w2 = w1 * (1.0 + float(rng.uniform(-1e-3, 1e-3)))
    j = w1 * float(rng.uniform(1e-4, 1e-1))
    mass = 10.0 ** float(rng.uniform(-18.0, -12.0))

    def arm(omega_m, target_gamma):
        res = MechanicalResonator(
            omega_m=omega_m,
            mass=mass,
            quality_factor=1e5,
            thickness=1e-7,
            gamma_m=max(target_gamma, 0.0),
        )
        cav = OpticalCavity(length=1e-4, kappa=float(rng.uniform(1e7, 1e9)), detuning=omega_m, n_cav=0.0)
        if target_gamma < 0.0:
            g0 = vacuum_coupling(cav, zero_point_fluctuation(res))
            phi = detuning_response(cav, omega_m)
            cav = dataclasses.replace(cav, n_cav=abs(target_gamma) / (g0 * g0 * abs(phi)))
        return res, cav

    r1, c1 = arm(w1, j * float(rng.uniform(-4.0, 4.0)))
    r2, c2 = arm(w2, j * float(rng.uniform(-4.0, 4.0)))
    return CoupledSystem(resonator_1=r1, resonator_2=r2, cavity_1=c1, cavity_2=c2, coupling_j=j)


# ---------------------------------------------------------------------------
# coupling chain
# ---------------------------------------------------------------------------


def test_zero_point_fluctuation_reference_value(device_resonator):
    assert zero_point_fluctuation(device_resonator) == pytest.approx(1.2583319203992921e-15, rel=1e-14)


def test_zero_point_fluctuation_scaling(device_resonator):
    x = zero_point_fluctuation(device_resonator)
    heavy = dataclasses.replace(device_resonator, mass=4 * device_resonator.mass)
    fast = dataclasses.replace(device_resonator, omega_m=4 * device_resonator.omega_m)
    assert zero_point_fluctuation(heavy) == pytest.approx(x / 2, rel=1e-14)
    assert zero_point_fluctuation(fast) == pytest.approx(x / 2, rel=1e-14)


def test_vacuum_coupling_reference_value(device, device_resonator):
    g0 = vacuum_coupling(device.cavity_1, zero_point_fluctuation(device_resonator))
    assert g0 == pytest.approx(118.51294470274429, rel=1e-14)
    assert g0 / TWO_PI == pytest.approx(18.9, rel=1e-2)


def test_vacuum_coupling_inverse_square_length(device, device_resonator):
    x = zero_point_fluctuation(device_resonator)
    g0 = vacuum_coupling(device.cavity_1, x)
    doubled = dataclasses.replace(device.cavity_1, length=2 * device.cavity_1.length)
    assert vacuum_coupling(doubled, x) == pytest.approx(g0 / 4, rel=1e-14)
    assert vacuum_coupling(device.cavity_1, 0.0) == 0.0


def test_detuning_response_blue_reference(device, device_resonator):
    phi = detuning_response(device.cavity_1, device_resonator.omega_m)
    assert phi == pytest.approx(-6.3622213353412252e-9, rel=1e-14)
    assert phi < 0.0


def test_detuning_response_is_odd(device, device_resonator):
    blue = detuning_response(device.cavity_1, device_resonator.omega_m)
    red = detuning_response(device.cavity_2, device_resonator.omega_m)
    assert red == -blue  # bitwise: same two terms, swapped


def test_detuning_response_zero_detuning_cancels():
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    assert detuning_response(cav, TWO_PI * 1e9) == 0.0


def test_detuning_response_narrow_cavity_limit():
    # red detuning, kappa << omega_m: phi -> +4/kappa
    kappa = TWO_PI * 1e4
    omega_m = TWO_PI * 1e9
    cav = OpticalCavity(length=1e-4, kappa=kappa, detuning=-omega_m, n_cav=0.0)
    assert detuning_response(cav, omega_m) == pytest.approx(4.0 / kappa, rel=1e-6)


def test_optomech_damping_zero_drive(device):
    blue, _ = _arms(device)
    assert blue.optical_damping(0.0) == 0.0
    assert blue.damping(0.0) == device.resonator_1.gamma_m


def test_optomech_damping_linear_in_photon_number(device):
    blue, _ = _arms(device)
    one, two = blue.optical_damping(1e12), blue.optical_damping(2e12)
    assert two == pytest.approx(2 * one, rel=1e-15)
    assert (one < 0.0) == (blue.phi < 0.0)


def test_optomech_damping_red_arm_near_2j_at_reference_bias(device):
    # at the reference bias of 1.48e12 photons the red arm's damping is
    # within 10% of 2J, the balanced threshold condition
    _, red = _arms(device)
    assert red.optical_damping(1.48e12) == pytest.approx(2 * device.coupling_j, rel=0.10)


def test_gamma_total_adds_intrinsic_damping(device_resonator):
    res = dataclasses.replace(device_resonator, gamma_m=123.25)
    system = balanced_system(res, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 1e7).with_photon_number(5e11)
    _, red = _arms(system)
    n = system.cavity_2.n_cav
    assert red.damping(n) == res.gamma_m + red.optical_damping(n)  # exact


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def test_decoupled_lossless_modes():
    r1 = MechanicalResonator(omega_m=TWO_PI * 2e6, mass=1e-14, quality_factor=1e4, thickness=1e-7)
    r2 = MechanicalResonator(omega_m=TWO_PI * 3e6, mass=1e-14, quality_factor=1e4, thickness=1e-7)
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(resonator_1=r1, resonator_2=r2, cavity_1=cav, cavity_2=cav, coupling_j=0.0)
    pair = eigenvalues_general(system)
    assert pair.lambda_plus.real == pytest.approx(r2.omega_m, rel=1e-14)
    assert pair.lambda_minus.real == pytest.approx(r1.omega_m, rel=1e-14)
    assert pair.lambda_plus.imag == 0.0
    assert pair.lambda_minus.imag == 0.0


def test_hermitian_limit_splits_by_coupling(device):
    pair = eigenvalues_general(device)  # n_cav = 0: no damping anywhere
    omega_m = device.resonator_1.omega_m
    j = device.coupling_j
    assert pair.lambda_plus == pytest.approx(omega_m + j, rel=1e-14)
    assert pair.lambda_minus == pytest.approx(omega_m - j, rel=1e-14)
    assert pair.lambda_plus.imag == 0.0
    assert pair.lambda_minus.imag == 0.0
    assert pair.phase is Phase.PT_SYMMETRIC


def test_branch_labels_are_canonical(device, device_n0):
    below = eigenvalues_general(device.with_photon_number(0.5 * device_n0))
    assert below.lambda_plus.real > below.lambda_minus.real
    above = eigenvalues_general(device.with_photon_number(2.0 * device_n0))
    assert above.lambda_plus.real == above.lambda_minus.real
    assert above.lambda_plus.imag > above.lambda_minus.imag


def test_trace_identity(device, device_n0):
    for frac in (0.0, 0.3, 1.0, 2.5):
        biased = device.with_photon_number(frac * device_n0)
        pair = eigenvalues_general(biased)
        trace = pair.lambda_plus + pair.lambda_minus
        assert trace.real == pytest.approx(2 * device.resonator_1.omega_m, rel=1e-12)
        # balanced arms: Gamma_1 + Gamma_2 = 0, so the trace is real
        assert abs(trace.imag) <= 1e-12 * abs(trace.real)


def test_ep_photon_number_reference_value(device, device_n0):
    assert device_n0 == pytest.approx(1406272589935.5527, rel=1e-12)
    # within the 10% band around the rounded reference value 1.48e12
    assert abs(device_n0 - 1.48e12) / 1.48e12 < 0.10


def test_ep_photon_number_linear_in_coupling(device, device_n0):
    doubled = dataclasses.replace(device, coupling_j=2 * device.coupling_j)
    assert ep_photon_number(doubled) == pytest.approx(2 * device_n0, rel=1e-9)


def test_discriminant_cancels_bitwise_at_device_ep(device, device_n0):
    pair = eigenvalues_general(device.with_photon_number(device_n0))
    assert pair.discriminant == 0j
    assert pair.phase is Phase.EXCEPTIONAL_POINT
    assert pair.lambda_plus == pair.lambda_minus


def test_ep_discriminant_within_tolerance_for_random_balanced_systems():
    # not every balanced system can cancel bit-exactly (the damping chain's
    # float grid can skip the threshold); the guaranteed bound is the
    # representability floor of 8 eps J^2
    rng = np.random.default_rng(42)
    for _ in range(50):
        res = MechanicalResonator(
            omega_m=float(rng.uniform(1e6, 1e10)),
            mass=10.0 ** float(rng.uniform(-17.0, -13.0)),
            quality_factor=1e5,
            thickness=1e-7,
        )
        system = balanced_system(
            res,
            length=float(rng.uniform(5e-5, 5e-4)),
            kappa=float(rng.uniform(1e7, 1e9)),
            coupling_j=res.omega_m * float(rng.uniform(1e-3, 5e-2)),
        )
        n0 = ep_photon_number(system)
        pair = eigenvalues_general(system.with_photon_number(n0))
        j = system.coupling_j
        assert abs(pair.discriminant) <= ep_tolerance(j)


def test_ep_photon_number_rejects_zero_coupling(device):
    with pytest.raises(ZeroCouplingError):
        ep_photon_number(dataclasses.replace(device, coupling_j=0.0))


def test_ep_photon_number_rejects_untunable_spectrum(device_resonator):
    # zero detuning: phi = 0, photon number moves nothing
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(
        resonator_1=device_resonator,
        resonator_2=device_resonator,
        cavity_1=cav,
        cavity_2=cav,
        coupling_j=TWO_PI * 1e7,
    )
    with pytest.raises(ZeroCouplingError):
        ep_photon_number(system)


def test_ep_search_unbalanced_asymmetric_arms(device_resonator):
    # arm 2 has a longer cavity, so its g0 is 16x weaker; the slopes
    # g0^2 phi differ in magnitude, and the general closed form applies
    res = device_resonator
    blue = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=res.omega_m, n_cav=0.0)
    red = OpticalCavity(length=2e-4, kappa=TWO_PI * 1e8, detuning=-res.omega_m, n_cav=0.0)
    system = CoupledSystem(
        resonator_1=res, resonator_2=res, cavity_1=blue, cavity_2=red, coupling_j=TWO_PI * 1e7
    )
    assert system.cavity_1.length != system.cavity_2.length
    n0 = ep_photon_number(system)
    pair = eigenvalues_general(system.with_photon_number(n0))
    j = system.coupling_j
    assert abs(pair.discriminant) <= ep_tolerance(j)


def _kappa_mismatched(system, factor=1.2):
    red = dataclasses.replace(system.cavity_2, kappa=factor * system.cavity_2.kappa)
    return dataclasses.replace(system, cavity_2=red)


def test_ep_beyond_1e16_photons_for_a_kappa_mismatched_1mm_device(device_resonator):
    # 1 mm cavities put the balanced EP at 1.406e16 photons and the
    # mismatched one at 1.534e16: no search bound cuts it off
    balanced = balanced_system(device_resonator, length=1e-3, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 1e7)
    assert ep_photon_number(balanced) == pytest.approx(1.406e16, rel=1e-3)
    system = _kappa_mismatched(balanced)
    n0 = ep_photon_number(system)
    assert n0 == pytest.approx(1.534e16, rel=1e-3)
    j = system.coupling_j
    assert abs(eigenvalues_general(system.with_photon_number(n0)).discriminant) <= ep_tolerance(j)


def test_two_ep_device_returns_the_lower_ep(device, device_resonator):
    # arm 1's intrinsic loss of 20 J puts Gamma_2 - Gamma_1 below -4J at
    # n = 0: the pair is broken, turns PT-symmetric at the lower EP
    # (6.137e12) and broken again at the upper one (9.206e12)
    system = _kappa_mismatched(device)
    lossy = dataclasses.replace(device_resonator, gamma_m=20.0 * system.coupling_j)
    system = dataclasses.replace(system, resonator_1=lossy)
    n0 = ep_photon_number(system)
    assert n0 == pytest.approx(6.137e12, rel=1e-3)
    j = system.coupling_j
    assert abs(eigenvalues_general(system.with_photon_number(n0)).discriminant) <= ep_tolerance(j)
    assert eigenvalues_general(system.with_photon_number(n0 * (1.0 - 1e-6))).phase is Phase.BROKEN
    assert eigenvalues_general(system.with_photon_number(n0 * (1.0 + 1e-6))).phase is Phase.PT_SYMMETRIC


def test_no_ep_at_nonnegative_photon_number(device, device_resonator):
    # arm 2's intrinsic loss of 5 J already exceeds the 4J threshold at
    # n = 0, and the photon number only widens the gap: both roots < 0
    lossy = dataclasses.replace(device_resonator, gamma_m=5.0 * device.coupling_j)
    with pytest.raises(NoEPError, match="n >= 0"):
        ep_photon_number(dataclasses.replace(device, resonator_2=lossy))


def test_equal_slopes_raise_zero_coupling(device):
    # two identical blue-detuned arms: the photon number moves both
    # dampings alike and never their difference
    system = dataclasses.replace(device, cavity_2=device.cavity_1)
    with pytest.raises(ZeroCouplingError):
        ep_photon_number(system)


def test_no_ep_for_detuned_resonators(device, device_resonator):
    # a large frequency mismatch keeps the (EQ7) discriminant real-positive
    # at the balanced-formula guess and everywhere reachable: Re disc >= J^2
    shifted = dataclasses.replace(device_resonator, omega_m=device_resonator.omega_m * 1.5)
    system = dataclasses.replace(device, resonator_2=shifted)
    with pytest.raises(NoEPError):
        ep_photon_number(system)


def _design_population(seed, count=60):
    """(kind, system) for seeded designs around the reference device: a third
    balanced, a third with a faster-decaying red cavity (kappa mismatch) and
    a third with detuned mechanics, for which NoEPError is the answer."""
    rng = np.random.default_rng(seed)
    designs = []
    for index in range(count):
        resonator = MechanicalResonator(
            omega_m=TWO_PI * 1e9 * float(rng.uniform(0.8, 1.2)),
            mass=5.3e-15 * float(rng.uniform(0.8, 1.2)),
            quality_factor=1e5 * float(rng.uniform(0.5, 2.0)),
            thickness=8e-8 * float(rng.uniform(0.8, 1.2)),
        )
        system = balanced_system(
            resonator,
            length=1e-4 * float(rng.uniform(0.8, 1.2)),
            kappa=TWO_PI * 1e8 * float(rng.uniform(0.8, 1.2)),
            coupling_j=TWO_PI * 1e7 * float(rng.uniform(0.8, 1.2)),
        )
        kind = ("balanced", "kappa-mismatched", "detuned")[index % 3]
        if kind == "kappa-mismatched":
            system = _kappa_mismatched(system, float(rng.uniform(1.05, 1.3)))
        elif kind == "detuned":
            omega_2 = resonator.omega_m + system.coupling_j * float(rng.uniform(0.05, 0.5))
            system = dataclasses.replace(system, resonator_2=dataclasses.replace(resonator, omega_m=omega_2))
        designs.append((kind, system))
    return designs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ep_location_is_the_full_window_scan_on_a_design_population(seed, monkeypatch):
    # the early return at an exactly cancelling guess picks the float the
    # whole window picks, and every other design fails alike
    windows = _count_calls(monkeypatch, spectral, "_polish_photon_number")
    for kind, system in _design_population(seed):
        try:
            expected = ep_photon_number_scanned(system)
        except EpgwError as err:
            with pytest.raises(EpgwError) as info:
                ep_photon_number(system)
            assert (type(info.value), str(info.value)) == (type(err), str(err)), kind
        else:
            assert ep_photon_number(system).hex() == expected.hex(), kind
    # both branches ran: of the 60, the 20 detuned designs and some others
    # took the window, and the rest returned their guess
    assert 20 < windows[0] < 60


def test_an_exactly_cancelling_guess_is_returned_without_the_window(device_resonator, monkeypatch):
    # J/2pi = 12 MHz: the closed-form guess already cancels the discriminant
    system = balanced_system(device_resonator, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 1.2e7)
    expected = ep_photon_number_scanned(system)
    assert eigenvalues_general(system.with_photon_number(expected)).discriminant == 0

    def no_window(magnitude, n_guess):
        raise AssertionError("the polish window ran")

    monkeypatch.setattr(spectral, "_polish_photon_number", no_window)
    assert ep_photon_number(system).hex() == expected.hex() == (1687527107922.6628).hex()


def test_the_reference_device_goes_through_the_window(device, device_n0, monkeypatch):
    # its guess leaves |disc| = 2; the float one step up cancels it
    windows = _count_calls(monkeypatch, spectral, "_polish_photon_number")
    assert ep_photon_number(device) == device_n0
    assert windows == [1]
    guess = math.nextafter(device_n0, 0.0)
    assert eigenvalues_general(device.with_photon_number(guess)).discriminant == 2.0
    assert eigenvalues_general(device.with_photon_number(device_n0)).discriminant == 0


def test_a_detuned_design_keeps_its_no_ep_text(device):
    omega_2 = device.resonator_2.omega_m + 0.3 * device.coupling_j
    system = dataclasses.replace(device, resonator_2=dataclasses.replace(device.resonator_2, omega_m=omega_2))
    with pytest.raises(NoEPError) as info:
        ep_photon_number(system)
    assert str(info.value) == "discriminant magnitude 1.188e+15 above threshold 7.013e+00 near n = 1.410906e+12"


def _count_roots(monkeypatch):
    """The values of every spectral._root call from now on, in call order."""
    roots, root_of = [], spectral._root

    def counted(z):
        roots.append(root_of(z))
        return roots[-1]

    monkeypatch.setattr(spectral, "_root", counted)
    return roots


@pytest.mark.parametrize("kind", ["balanced", "kappa-mismatched", "detuned"])
def test_ep_location_takes_no_square_root(device, kind, monkeypatch):
    # the polish reads |disc| only: no caller of the EP search takes a root,
    # on the path that finds an EP or on the NoEPError one
    if kind == "kappa-mismatched":
        red = dataclasses.replace(device.cavity_2, kappa=device.cavity_2.kappa * 1.2)
        device = dataclasses.replace(device, cavity_2=red)
    elif kind == "detuned":
        omega_2 = device.resonator_2.omega_m + 0.3 * device.coupling_j
        device = dataclasses.replace(device, resonator_2=dataclasses.replace(device.resonator_2, omega_m=omega_2))
    roots = _count_roots(monkeypatch)
    if kind == "detuned":
        with pytest.raises(NoEPError):
            ep_photon_number(device)
    else:
        ep_photon_number(device)
    assert roots == []


def test_splitting_takes_one_square_root(device, device_n0, monkeypatch):
    # the EP gate reads |disc(n0)| only; the one root is the strained alpha
    roots = _count_roots(monkeypatch)
    result = splitting(device, device_n0, 1e-18)
    assert len(roots) == 1
    assert (2.0 * roots[0].real, 2.0 * abs(roots[0].imag)) == (result.d_exact, result.linewidth_split)


def _count_calls(monkeypatch, module, name):
    """A one-item list counting the calls of module.name from now on."""
    calls, function = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_public_calls_on_a_valid_system_do_not_validate_it(device, device_n0, monkeypatch):
    # a system is checked once, as it is built; no public call checks it again
    biased = device.with_photon_number(0.5 * device_n0)
    validations = _count_calls(monkeypatch, core, "system_violations")
    ep_photon_number(device)
    splitting(device, device_n0, 1e-18)
    sweep_photon_number(device, 0.0, 2.0 * device_n0, 8)
    sweep_strain(device, device_n0, 1e-24, 1e-12, 8, log=True)
    propagate_exact(biased, (1.0, 0.0), 1e-8)
    assert validations == [0]
    device.with_photon_number(device_n0)
    assert validations == [1]


def test_arms_are_derived_once_per_system_object(device_resonator, monkeypatch):
    system = balanced_system(device_resonator, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=TWO_PI * 1e7)
    derived = _count_calls(monkeypatch, spectral, "zero_point_fluctuation")  # once per arm and derivation
    n0 = ep_photon_number(system)
    for strain in (1e-20, 1e-12):
        splitting(system, n0, strain)
    sweep_strain(system, n0, 1e-24, 1e-12, 8, log=True)
    eigenvalues_general(system)
    mode_matrix(system)
    propagate_exact(system, (1.0, 0.0), 1e-8)
    assert derived == [2]
    # the pair is tied to the object, not to its value, and no field sees it
    copy = dataclasses.replace(system)
    eigenvalues_general(copy)
    assert derived == [4]
    assert copy == system and hash(copy) == hash(system) and repr(copy) == repr(system)
    assert [f.name for f in dataclasses.fields(system)] == [
        "resonator_1", "resonator_2", "cavity_1", "cavity_2", "coupling_j"
    ]


@pytest.mark.parametrize(
    "length, coupling_j, message",
    [(1e-4, 1e200, r"coupling_j = 1e\+200: J\^2 overflows"), (1e-300, TWO_PI * 1e7, "arm 1: g0 is out of")],
)
def test_arm_constants_out_of_range_are_refused_on_every_call(device_resonator, monkeypatch, length, coupling_j, message):
    system = balanced_system(device_resonator, length=length, kappa=TWO_PI * 1e8, coupling_j=coupling_j)
    derived = _count_calls(monkeypatch, spectral, "zero_point_fluctuation")
    for _ in range(2):
        with pytest.raises(InvalidRangeError, match=message):
            eigenvalues_general(system)
    # nothing is kept from a failed derivation: the second call derives again
    assert derived == [0 if coupling_j == 1e200 else 2]


def test_a_discriminant_on_the_imaginary_axis_outside_the_ep_rule_is_pt_symmetric():
    # Re(disc) = 0 with Im(disc) != 0 and |disc| > ep_tolerance(J) reads
    # PT-symmetric (Re >= 0), for a zero of either sign, at a point and on a grid
    j = 1.0
    discs = [complex(0.0, 1.0), complex(-0.0, -1.0), complex(0.0, 1e-14)]
    assert all(abs(disc) > ep_tolerance(j) for disc in discs)
    assert [spectral._PHASES[spectral._classify(disc, j)] for disc in discs] == [Phase.PT_SYMMETRIC] * 3
    assert list(spectral._PHASES[spectral._classify(np.array(discs), j)]) == [Phase.PT_SYMMETRIC] * 3


def test_discriminant_that_overflows_at_the_ep_is_a_range_error(device_resonator):
    # J^2 is finite and the closed form finds the root, but the discriminant
    # overflows there: an input out of range, not a system without an EP
    def system(coupling_j):
        return balanced_system(device_resonator, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=coupling_j)

    assert ep_photon_number(system(TWO_PI * 1e153)) == pytest.approx(1.406273e158, rel=1e-6)
    with pytest.raises(InvalidRangeError, match=r"coupling_j = 8e\+153: .* at n = 1\.790522e\+158"):
        ep_photon_number(system(8e153))


def test_bifurcation_structure_below_and_above(device, device_n0):
    omega_m = device.resonator_1.omega_m
    below = eigenvalues_general(device.with_photon_number(0.25 * device_n0))
    assert below.phase is Phase.PT_SYMMETRIC
    assert below.lambda_plus.imag == 0.0
    assert below.lambda_minus.imag == 0.0
    assert below.lambda_plus.real > below.lambda_minus.real

    above = eigenvalues_general(device.with_photon_number(4.0 * device_n0))
    assert above.phase is Phase.BROKEN
    assert above.lambda_plus.real == omega_m
    assert above.lambda_minus.real == omega_m
    assert above.lambda_plus.imag > 0.0 > above.lambda_minus.imag


def test_numeric_matches_general_on_device(device, device_n0):
    for frac in (0.1, 0.5, 0.9, 1.0, 1.5, 4.0):
        biased = device.with_photon_number(frac * device_n0)
        general = eigenvalues_general(biased)
        numeric = eigenvalues_numeric(biased)
        scale = abs(general.lambda_plus)
        assert abs(general.lambda_plus - numeric.lambda_plus) <= 1e-12 * scale
        assert abs(general.lambda_minus - numeric.lambda_minus) <= 1e-12 * scale


def test_numeric_double_root_at_device_ep(device, device_n0):
    numeric = eigenvalues_numeric(device.with_photon_number(device_n0))
    # balanced trace is bitwise real here, so the cancellation is exact
    assert numeric.lambda_plus == numeric.lambda_minus
    assert numeric.phase is Phase.EXCEPTIONAL_POINT


def test_numeric_diagonal_case():
    r1 = MechanicalResonator(omega_m=TWO_PI * 2e6, mass=1e-14, quality_factor=1e4, thickness=1e-7, gamma_m=40.0)
    r2 = MechanicalResonator(omega_m=TWO_PI * 3e6, mass=1e-14, quality_factor=1e4, thickness=1e-7, gamma_m=60.0)
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(resonator_1=r1, resonator_2=r2, cavity_1=cav, cavity_2=cav, coupling_j=1e-12)
    pair = eigenvalues_numeric(system)
    want_hi = complex(r2.omega_m, -30.0)
    want_lo = complex(r1.omega_m, -20.0)
    assert abs(pair.lambda_plus - want_hi) <= 1e-12 * abs(want_hi)
    assert abs(pair.lambda_minus - want_lo) <= 1e-12 * abs(want_lo)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        system = _random_system(rng)
        general = eigenvalues_general(system)
        numeric = eigenvalues_numeric(system)
        scale = abs(general.lambda_plus)
        assert abs(general.lambda_plus - numeric.lambda_plus) <= 1e-10 * scale
        assert abs(general.lambda_minus - numeric.lambda_minus) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# strain response
# ---------------------------------------------------------------------------


def test_splitting_vanishes_at_zero_strain(device, device_n0):
    result = splitting(device, device_n0, 0.0)
    assert result.d_exact == 0.0
    assert result.d_approx == 0.0
    assert result.linewidth_split == 0.0


@pytest.mark.parametrize(
    "strain", [0.0, 1e-18, -1e-18, np.float64(1e-18)], ids=["zero", "positive", "negative", "float64"]
)
def test_splitting_at_a_float_strain_gives_python_floats(device, device_n0, strain):
    result = splitting(device, device_n0, strain)
    assert [type(getattr(result, f.name)) for f in dataclasses.fields(result)] == [float] * 4
    assert type(result.rel_error) is float


def test_splitting_reference_values(device, device_n0):
    r24 = splitting(device, device_n0, 1e-24)
    assert r24.d_approx == pytest.approx(3.554306350526693e-4, rel=1e-13)
    r25 = splitting(device, device_n0, 1e-25)
    assert r25.d_exact == pytest.approx(1.1239703569665162e-4, rel=1e-13)
    # approx/exact agree to first order
    assert r25.d_exact / r25.d_approx == pytest.approx(1.0, abs=1e-3)


def test_splitting_square_root_scaling(device, device_n0):
    r1 = splitting(device, device_n0, 1e-24)
    r4 = splitting(device, device_n0, 4e-24)
    assert r4.d_approx / r1.d_approx == 2.0
    assert r4.d_exact / r1.d_exact == pytest.approx(2.0, rel=1e-6)


def test_splitting_accurate_at_tiny_strain(device, device_n0):
    # the incremental discriminant keeps the response exact far below
    # double-precision strain resolution
    result = splitting(device, device_n0, 1e-26)
    assert result.rel_error < 1e-12
    assert result.d_exact > 0.0


@pytest.mark.parametrize("kappa_2_factor", [1.0, 1.2], ids=["reference", "kappa_mismatched"])
def test_splitting_is_the_direct_response_at_the_strained_drive(device, kappa_2_factor):
    # the drive identity: strain h is the photon-number rescale (1 - 2h)^2,
    # on which cmd_simulate relies; the direct eigenvalues agree with the
    # increment within their own cancellation (see strained_directly)
    system = _kappa_mismatched(device, kappa_2_factor)
    n0 = ep_photon_number(system)
    for h in [sign * size for size in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10) for sign in (1.0, -1.0)] + [1e-12]:
        result = splitting(system, n0, h)
        d_exact, linewidth_split, bound = strained_directly(system, n0, h)
        assert abs(d_exact - result.d_exact) <= bound, h
        assert abs(linewidth_split - result.linewidth_split) <= bound, h


def test_splitting_branch_exclusivity(device, device_n0):
    pos = splitting(device, device_n0, 1e-22)
    assert pos.d_exact > 0.0
    assert pos.linewidth_split == 0.0
    neg = splitting(device, device_n0, -1e-22)
    assert neg.d_exact == 0.0
    assert neg.linewidth_split > 0.0


def test_splitting_rejects_wrong_bias(device, device_n0):
    with pytest.raises(NotAtEPError):
        splitting(device, 1.1 * device_n0, 1e-23)


def test_strain_response_that_overflows_is_a_range_error(device_resonator):
    # at J = 3e153 rad/s the broken-phase response to h = -0.49 overflows,
    # while the PT-symmetric one to h = +0.49 stays finite
    system = balanced_system(device_resonator, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=3e153)
    n0 = ep_photon_number(system)
    with pytest.raises(InvalidRangeError, match=re.escape(f"the strain response at n0 = {n0!r} overflows")):
        splitting(system, n0, -0.49)
    assert math.isfinite(splitting(system, n0, 0.49).d_exact)


def test_strain_response_that_underflows_is_a_range_error(device_resonator):
    # at J = 2 pi 1e-300 rad/s the discriminant ~ J^2 h rounds to 0 at
    # h = 1e-16, where d_approx is still normal; at h = 1e-200 both are 0.
    # Written, each would be a splitting of 0.
    j = TWO_PI * 1e-300
    system = balanced_system(device_resonator, length=1e-4, kappa=TWO_PI * 1e8, coupling_j=j)
    n0 = ep_photon_number(system)
    for h in (1e-16, -1e-16, 1e-200):
        with pytest.raises(InvalidRangeError, match=re.escape(f"coupling_j = {j!r}: the strain response at h = {h!r} ")):
            splitting(system, n0, h)
    assert splitting(system, n0, 0.0).d_exact == 0.0


@pytest.mark.parametrize("gamma_m", [4e4], ids=["eq7"])
def test_strain_response_without_light_is_zero(gamma_m):
    # arm 1's intrinsic damping alone, 4J, puts the pair at its EP, at n0 = 0.
    # The strain rescales only optical damping, so disc is exactly 0 at
    # every h: a zero response, not an underflow.
    res = MechanicalResonator(omega_m=1e6, mass=1e-13, quality_factor=1e5, thickness=1e-7)
    system = balanced_system(res, length=1e-4, kappa=1e7, coupling_j=1e4)
    system = dataclasses.replace(system, resonator_1=dataclasses.replace(system.resonator_1, gamma_m=gamma_m))
    n0 = ep_photon_number(system)
    assert n0 == 0.0
    for h in (0.1, -0.1, 1e-20):
        result = splitting(system, n0, h)
        assert result.d_exact == result.linewidth_split == 0.0
        assert result.d_approx == 4.0 * math.sqrt(2.0) * 1e4 * math.sqrt(abs(h))
        assert result.rel_error == 1.0
    sweep = sweep_strain(system, n0, 0.0, 0.1, 2)
    assert sweep.d_exact.tolist() == sweep.linewidth_split.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("h", [sys.float_info.min, -sys.float_info.min])
def test_default_device_keeps_every_normal_strain_in_range(device, device_n0, h):
    # the discriminant is about 7e-292 at the smallest normal |h|
    result = splitting(device, device_n0, h)
    assert result.d_approx >= sys.float_info.min
    assert result.d_exact + result.linewidth_split >= sys.float_info.min


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_photon_number_structure(device, device_n0):
    grid, pair = sweep_photon_number(device, 1e11, 5e12, 200)
    assert len(grid) == 200
    for column in (pair.lambda_plus, pair.lambda_minus, pair.discriminant, pair.phase):
        assert column.shape == grid.shape
    assert all(isinstance(phase, Phase) for phase in pair.phase)
    omega_m = device.resonator_1.omega_m
    assert (grid[1:] > grid[:-1]).all()
    assert np.count_nonzero(pair.phase[1:] != pair.phase[:-1]) == 1
    below, above = grid < device_n0, grid > device_n0
    assert (pair.lambda_plus.imag[below] == 0.0).all()
    assert (pair.lambda_minus.imag[below] == 0.0).all()
    assert (pair.lambda_plus.real[above] == omega_m).all()
    assert (pair.lambda_minus.real[above] == omega_m).all()


def test_sweep_branch_continuity(device):
    _, pair = sweep_photon_number(device, 1e11, 5e12, 400)
    plus, minus = pair.lambda_plus, pair.lambda_minus
    jumps = np.abs(plus[1:] - plus[:-1]) + np.abs(minus[1:] - minus[:-1])
    # relabeled branches move smoothly; a swap artifact would jump by ~2J
    assert jumps.max() < 0.5 * device.coupling_j


def test_sweep_photon_number_log_spacing(device):
    ns, _ = sweep_photon_number(device, 1e10, 1e13, 4, log=True)
    assert ns[1:] / ns[:-1] == pytest.approx([10.0, 10.0, 10.0], rel=1e-12)


def test_sweep_photon_number_range_errors(device):
    with pytest.raises(InvalidRangeError):
        sweep_photon_number(device, 1e11, 5e12, 1)
    with pytest.raises(InvalidRangeError):
        sweep_photon_number(device, 5e12, 1e11, 10)
    with pytest.raises(InvalidRangeError):
        sweep_photon_number(device, -1.0, 5e12, 10)
    with pytest.raises(InvalidRangeError):
        sweep_photon_number(device, 0.0, 5e12, 10, log=True)
    with pytest.raises(InvalidRangeError, match="^n_min = nan is not finite$"):
        sweep_photon_number(device, math.nan, 5e12, 10)
    with pytest.raises(InvalidRangeError, match="^n_max = inf is not finite$"):
        sweep_photon_number(device, 1e11, math.inf, 10)


def test_sweep_strain_table(device, device_n0):
    sweep = sweep_strain(device, device_n0, 1e-26, 1e-20, 50, log=True)
    for column in (sweep.strain, sweep.d_exact, sweep.d_approx, sweep.linewidth_split, sweep.rel_error):
        assert column.shape == (50,)
    assert (sweep.rel_error < 1e-2).all()
    d = sweep.d_exact
    assert (d[1:] > d[:-1]).all()


def test_sweep_strain_zero_start_row(device, device_n0):
    sweep = sweep_strain(device, device_n0, 0.0, 1e-22, 3)
    assert sweep.d_exact[0] == 0.0
    assert sweep.d_approx[0] == 0.0
    assert sweep.linewidth_split[0] == 0.0
    assert sweep.rel_error[0] == 0.0


def test_sweep_strain_range_errors(device, device_n0):
    with pytest.raises(InvalidRangeError):
        sweep_strain(device, device_n0, 1e-22, 1e-26, 10)
    with pytest.raises(InvalidRangeError):
        sweep_strain(device, device_n0, -1e-22, 1e-20, 10)
    with pytest.raises(InvalidRangeError):
        sweep_strain(device, device_n0, 0.0, 1e-20, 10, log=True)


@pytest.mark.parametrize(
    "h_min, h_max, points, log",
    # a subnormal end; and normal ends 0 and 1e-303 whose linear grid steps
    # by 2e-308, below the smallest normal double
    [(5e-324, 1e-300, 3, True), (0.0, 1e-303, 50_000, False)],
    ids=["subnormal_end", "subnormal_step"],
)
def test_sweep_strain_refuses_a_subnormal_grid_value(device, device_n0, h_min, h_max, points, log):
    # a subnormal h has too few significant bits for the sqrt(h) law
    with pytest.raises(InvalidRangeError, match="strain h = ") as info:
        sweep_strain(device, device_n0, h_min, h_max, points, log=log)
    named = float(re.search(r"strain h = (\S+);", str(info.value)).group(1))
    assert 0.0 < named < sys.float_info.min


def test_splitting_refuses_a_subnormal_strain_and_keeps_the_smallest_normal_one(device, device_n0):
    for h in (5e-324, -1e-310, math.nextafter(sys.float_info.min, 0.0)):
        with pytest.raises(InvalidRangeError, match=re.escape(f"strain h = {h!r};")):
            splitting(device, device_n0, h)
    assert splitting(device, device_n0, sys.float_info.min).rel_error < 1e-15
    assert splitting(device, device_n0, 0.0).d_exact == 0.0


def test_ep_tolerance_is_relative_band():
    # the one EP rule: twice the discriminant's representability floor
    # 2 J ulp(2J) <= 4 eps J^2
    for j in (TWO_PI * 1e7, 2.0, 1e-3):
        assert ep_tolerance(j) == 8 * EPS * j * j
    assert ep_tolerance(2.0) == 32.0 * EPS
