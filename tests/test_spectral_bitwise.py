"""Bitwise equivalence of the array-native spectral kernel with a scalar
reference.

The library evaluates the closed form on whole arrays. The reference below
is the same mathematics evaluated one point at a time with CPython complex
arithmetic, with the float polish as a nextafter walk and the branch
relabeling as a loop. Every value must agree bit for bit, signed zeros
included. The thermal noise and the strain floor, which share one
denominator, are checked against their formulas written out in full.
"""

import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from epgw import (  # noqa: E402
    K_BOLTZMANN,
    EpgwError,
    InvalidRangeError,
    MechanicalResonator,
    NoEPError,
    Phase,
    SensitivityContext,
    balanced_system,
    detuning_response,
    eigenvalues_general,
    ep_photon_number,
    ep_tolerance,
    min_detectable_strain,
    mode_matrix,
    propagate_exact,
    sensitivity_curve,
    splitting,
    sweep_photon_number,
    sweep_strain,
    thermal_frequency_noise,
    vacuum_coupling,
    zero_point_fluctuation,
)
from epgw.core import _normal, sweep_grid  # noqa: E402
from epgw.sensitivity import _thermal_floor as _strain_floor  # noqa: E402
from epgw.spectral import (  # noqa: E402
    _POLISH_STEPS,
    _arms,
    _complex,
    _continuity_swaps,
    _polish_photon_number,
    _root,
    _spectrum,
)
from oracle import ep_photon_number_scanned  # noqa: E402


def _bits(value):
    """Bit pattern of a float, a complex, or a structure of them."""
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def _ref_pair(system):
    """eigenvalues_general as one CPython-complex evaluation."""
    gammas = []
    for res, cav in ((system.resonator_1, system.cavity_1), (system.resonator_2, system.cavity_2)):
        g0 = vacuum_coupling(cav, zero_point_fluctuation(res))
        gammas.append(res.gamma_m + g0 * g0 * cav.n_cav * detuning_response(cav, res.omega_m))
    w1, w2 = system.resonator_1.omega_m, system.resonator_2.omega_m
    g1, g2 = gammas
    j = system.coupling_j
    center = complex(0.5 * (w1 + w2), -0.25 * (g1 + g2))
    b = complex(w1 - w2, 0.5 * (g2 - g1))
    disc = j * j + 0.25 * (b * b)
    alpha = cmath.sqrt(disc)
    if abs(disc) <= ep_tolerance(j):
        phase = Phase.EXCEPTIONAL_POINT
    else:
        phase = Phase.PT_SYMMETRIC if disc.real >= 0.0 else Phase.BROKEN
    return center + alpha, center - alpha, disc, phase


def _ref_magnitude(system, n):
    return abs(_ref_pair(system.with_photon_number(n))[2])


def _ref_polish(magnitude, n_guess, reach):
    best_n = n_guess
    best = magnitude(n_guess)
    if best == 0.0:
        return best_n, best
    down = up = n_guess
    for _ in range(reach):
        down = math.nextafter(down, 0.0)
        up = math.nextafter(up, math.inf)
        for n in (down, up):
            val = magnitude(n)
            if val < best:
                best, best_n = val, n
                if best == 0.0:
                    return best_n, best
    return best_n, best


def _ref_ep(system, reach=512):
    """(n0, |disc(n0)|, guess) as ep_photon_number finds them, before its
    accept gate: the guess is the lower nonnegative root of the closed
    form, and n0 the float within ``reach`` of it with the smallest |disc|.
    None when both roots are negative."""
    magnitude = lambda n: _ref_magnitude(system, n)  # noqa: E731
    slopes = []
    for res, cav in ((system.resonator_1, system.cavity_1), (system.resonator_2, system.cavity_2)):
        g0 = vacuum_coupling(cav, zero_point_fluctuation(res))
        slopes.append(g0 * g0 * detuning_response(cav, res.omega_m))
    d_slope = slopes[1] - slopes[0]
    d_gamma = system.resonator_2.gamma_m - system.resonator_1.gamma_m
    j = system.coupling_j
    roots = [n for n in ((4.0 * j - d_gamma) / d_slope, (-4.0 * j - d_gamma) / d_slope) if n >= 0.0]
    if not roots:
        return None
    guess = min(roots) + 0.0
    # by default 512 floats each way, 32 times the library's reach, which
    # must not change the n0 it finds
    return (*_ref_polish(magnitude, guess, reach), guess)


def _ref_relabel(pairs):
    """The continuity relabeling loop over canonical (plus, minus) pairs."""
    out, prev = [], None
    for lp, lm in pairs:
        if prev is not None:
            keep = abs(lp - prev[0]) + abs(lm - prev[1])
            swap = abs(lp - prev[1]) + abs(lm - prev[0])
            if swap < keep:
                lp, lm = lm, lp
        out.append((lp, lm))
        prev = (lp, lm)
    return out


def _ref_sweep(system, n_min, n_max, points, log):
    grid = np.geomspace(n_min, n_max, points) if log else np.linspace(n_min, n_max, points)
    pairs = [_ref_pair(system.with_photon_number(float(n))) for n in grid]
    labels = _ref_relabel([(lp, lm) for lp, lm, _, _ in pairs])
    return [
        (float(n), (lp, lm, disc, phase.value))
        for n, (lp, lm), (_, _, disc, phase) in zip(grid, labels, pairs)
    ]


def _ref_splittings(system, n0, strains):
    res_1, cav_1 = system.resonator_1, system.cavity_1
    res_2, cav_2 = system.resonator_2, system.cavity_2
    g0_1 = vacuum_coupling(cav_1, zero_point_fluctuation(res_1))
    g0_2 = vacuum_coupling(cav_2, zero_point_fluctuation(res_2))
    gamma_opt_1 = g0_1 * g0_1 * n0 * detuning_response(cav_1, res_1.omega_m)
    gamma_opt_2 = g0_2 * g0_2 * n0 * detuning_response(cav_2, res_2.omega_m)
    b0 = complex(res_1.omega_m - res_2.omega_m, 0.5 * ((res_2.gamma_m + gamma_opt_2) - (res_1.gamma_m + gamma_opt_1)))
    rows = []
    for h in strains:
        h = float(h)
        scale = -4.0 * h * (1.0 - h)
        db = complex(0.0, 0.5 * (scale * gamma_opt_2 - scale * gamma_opt_1))
        alpha = cmath.sqrt(0.25 * (db * (2.0 * b0 + db)))
        d_approx = 4.0 * math.sqrt(2.0) * system.coupling_j * math.sqrt(abs(h))
        rows.append((h, 2.0 * alpha.real, d_approx, 2.0 * abs(alpha.imag)))
    return rows


log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0**e)  # noqa: E731


@st.composite
def balanced_systems(draw):
    res = MechanicalResonator(
        omega_m=draw(log_uniform(6.0, 10.0)),
        mass=draw(log_uniform(-17.0, -13.0)),
        quality_factor=1e5,
        thickness=1e-7,
    )
    return balanced_system(
        res,
        length=draw(log_uniform(-4.3, -3.3)),
        kappa=draw(log_uniform(7.0, 9.0)),
        coupling_j=res.omega_m * draw(log_uniform(-3.0, -1.3)),
    )


@st.composite
def mismatched_systems(draw, kinds=("kappa", "length", "gamma_m")):
    """Balanced systems with one arm changed: the red cavity decays faster,
    as in a real device, or has another length (the slopes g0^2 phi differ
    in magnitude), or one resonator has intrinsic damping (gamma_m,2 -
    gamma_m,1 is nonzero: up to two EPs, or none at n >= 0)."""
    system = draw(balanced_systems())
    kind = draw(st.sampled_from(kinds))
    if kind == "kappa":
        red = dataclasses.replace(system.cavity_2, kappa=system.cavity_2.kappa * draw(st.floats(1.02, 1.5)))
        return dataclasses.replace(system, cavity_2=red)
    if kind == "length":
        red = dataclasses.replace(system.cavity_2, length=system.cavity_2.length * draw(st.floats(0.7, 1.5)))
        return dataclasses.replace(system, cavity_2=red)
    arm = draw(st.sampled_from(["resonator_1", "resonator_2"]))
    damped = dataclasses.replace(
        getattr(system, arm), gamma_m=system.coupling_j * draw(st.floats(0.0, 8.0))
    )
    return dataclasses.replace(system, **{arm: damped})


@st.composite
def detuned_systems(draw):
    """Systems whose mechanical frequencies differ: the discriminant is
    complex, with neither part zero, all along the photon-number axis."""
    system = draw(balanced_systems())
    shift = system.coupling_j * draw(st.floats(-0.5, 0.5))
    res_2 = dataclasses.replace(system.resonator_2, omega_m=system.resonator_2.omega_m + shift)
    return dataclasses.replace(system, resonator_2=res_2)


any_systems = balanced_systems() | mismatched_systems() | detuned_systems()
# signed zeros, infinities, nan, subnormals, the ends of the double range and +-1
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -2.2e-308,
               sys.float_info.max, -sys.float_info.max, 1.7e308, -1.7e308, 1.0, -1.0, 1e308]
any_floats = st.floats() | st.sampled_from(EDGE_FLOATS)


@settings(max_examples=200)
@given(
    parts=st.lists(st.tuples(any_floats, any_floats), min_size=1, max_size=20),
    on_axis=st.lists(any_floats, max_size=10),
)
# cmath's special values hold on a grid too: sqrt(0+inf j) is inf+inf j
@example(parts=list(itertools.product([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308],
                                       repeat=2)), on_axis=[])
def test_array_root_matches_cmath_sqrt_bitwise(parts, on_axis):
    # numpy's own complex sqrt differs from cmath.sqrt on the imaginary axis
    parts += [(0.0, y) for y in on_axis] + [(-0.0, y) for y in on_axis]
    roots = _root(_complex(np.array([x for x, _ in parts]), np.array([y for _, y in parts])))
    assert _bits(roots.tolist()) == _bits([cmath.sqrt(complex(x, y)) for x, y in parts])


@settings(max_examples=100)
@given(system=balanced_systems() | mismatched_systems() | detuned_systems())
def test_ep_photon_number_matches_scalar_reference_bitwise(system):
    ref = _ref_ep(system)
    j = system.coupling_j
    if ref is None or ref[1] > ep_tolerance(j):
        with pytest.raises(NoEPError) as info:
            ep_photon_number(system)
        b_re = system.resonator_1.omega_m - system.resonator_2.omega_m
        if ref is not None and abs(b_re) > 64.0 * sys.float_info.epsilon * j:
            # a pair detuned above the bound's margin: the error states the bound
            assert str(info.value) == (
                f"omega_1 - omega_2 = {b_re:.6e} rad/s: |disc| >= |omega_1 - omega_2| J = {abs(b_re) * j:.3e}"
                f" above threshold {ep_tolerance(j):.3e} at every n"
            )
        elif ref is not None:
            # below it, a detuned pair's |disc| falls all through the window:
            # the error quotes the polish at the library's own reach
            _, best, guess = _ref_ep(system, _POLISH_STEPS)
            assert str(info.value) == (
                f"discriminant magnitude {best:.3e} above threshold {ep_tolerance(j):.3e} near n = {guess:.6e}"
            )
    else:
        assert _bits(ep_photon_number(system)) == _bits(ref[0])


def _closed_form_root(system):
    """The lower nonnegative root of the closed form, from _arms."""
    arm_1, arm_2 = _arms(system)
    d_slope = arm_2.g0_sq * arm_2.phi - arm_1.g0_sq * arm_1.phi
    return min(n for n in (4.0 * system.coupling_j / d_slope, -4.0 * system.coupling_j / d_slope) if n >= 0.0) + 0.0


def _longer_red_cavity(factor):
    """The reference device with its red cavity ``factor`` times longer."""
    res = MechanicalResonator(omega_m=2.0 * math.pi * 1e9, mass=5.3e-15, quality_factor=1e5, thickness=8e-8)
    system = balanced_system(res, length=1e-4, kappa=2.0 * math.pi * 1e8, coupling_j=2.0 * math.pi * 1e7)
    return dataclasses.replace(system, cavity_2=dataclasses.replace(system.cavity_2, length=1e-4 * factor))


@settings(max_examples=200)
@given(system=balanced_systems() | mismatched_systems(kinds=("kappa", "length")))
# its smallest |disc| is 2 floats above the closed-form root
@example(system=_longer_red_cavity(1.08))
def test_polished_ep_is_the_smallest_disc_within_4_floats_of_the_closed_form_root(system):
    # the closed form is good to a few floats; a polish window that does
    # not reach the float with the smallest |disc| near it fails here
    root_bits = int(np.float64(_closed_form_root(system)).view(np.int64))
    n0 = ep_photon_number(system)
    assert abs(int(np.float64(n0).view(np.int64)) - root_bits) <= 4
    # the 9 floats around the root, in the window's order: 0, -1, +1, -2, ...
    near = [float(np.int64(root_bits + k).view(np.float64)) for k in (0, -1, 1, -2, 2, -3, 3, -4, 4)]
    magnitudes = [abs(eigenvalues_general(system.with_photon_number(n)).discriminant) for n in near]
    assert n0 == near[magnitudes.index(min(magnitudes))]


@settings(max_examples=100)
@given(system=balanced_systems() | mismatched_systems())
def test_located_ep_is_labeled_an_ep_and_the_phase_flips_across_it(system):
    # one EP rule: the n0 that the EP gate accepts is the n0 the phase label
    # calls an EP; a two-EP device flips the other way at its lower EP
    try:
        n0 = ep_photon_number(system)
    except NoEPError:
        n0 = 0.0
    assume(n0 > 0.0)
    phase = lambda n: eigenvalues_general(system.with_photon_number(n)).phase  # noqa: E731
    assert phase(n0) is Phase.EXCEPTIONAL_POINT
    assert {phase(n0 * (1.0 - 1e-6)), phase(n0 * (1.0 + 1e-6))} == {Phase.PT_SYMMETRIC, Phase.BROKEN}


@settings(max_examples=40)
@given(
    system=any_systems,
    lo=st.floats(0.05, 0.99),
    hi=st.floats(1.01, 6.0),
    points=st.integers(2, 60),
    log=st.booleans(),
)
def test_sweep_photon_number_matches_scalar_reference_bitwise(system, lo, hi, points, log):
    # n0 from the closed form of the blue arm, so that the grid spans the EP
    res, cav = system.resonator_1, system.cavity_1
    g0 = vacuum_coupling(cav, zero_point_fluctuation(res))
    n0 = 2.0 * system.coupling_j / abs(g0 * g0 * detuning_response(cav, res.omega_m))
    grid, pair = sweep_photon_number(system, lo * n0, hi * n0, points, log=log)
    columns = (pair.lambda_plus.tolist(), pair.lambda_minus.tolist(), pair.discriminant.tolist())
    got = list(zip(grid.tolist(), zip(*columns, [phase.value for phase in pair.phase])))
    assert _bits(got) == _bits(_ref_sweep(system, lo * n0, hi * n0, points, log))


@pytest.mark.parametrize("lo, hi, points", [(0.5, 1.5, 3), (0.5, 1.0, 2), (1.0, 2.0, 2), (0.07, 3.6, 500)])
def test_sweep_through_the_device_ep_has_an_exact_tie(device, device_n0, lo, hi, points):
    # where the grid steps from the PT-symmetric into the broken phase (or
    # onto the EP, at an end of the grid that is n0 exactly), the kept and
    # the swapped pairing move the branches by exactly the same distance
    _, pair = sweep_photon_number(device, lo * device_n0, hi * device_n0, points)
    pairs = list(zip(pair.lambda_plus.tolist(), pair.lambda_minus.tolist()))
    ties = [
        abs(p1 - p0) + abs(m1 - m0) == abs(p1 - m0) + abs(m1 - p0)
        for (p0, m0), (p1, m1) in zip(pairs, pairs[1:])
    ]
    assert sum(ties) == 1
    assert _bits(pairs) == _bits(_ref_relabel(pairs))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=12))
def test_continuity_swaps_match_relabel_loop(points):
    # branch pairs on a small integer lattice, so that exact ties between
    # the kept and the swapped pairing are common, after swaps too
    pairs = [(complex(a, b), complex(a, c)) for a, b, c in points]
    plus = np.array([p for p, _ in pairs])
    minus = np.array([m for _, m in pairs])
    swapped = _continuity_swaps(plus, minus)
    got = [(m, p) if s else (p, m) for (p, m), s in zip(pairs, swapped.tolist())]
    assert _bits(got) == _bits(_ref_relabel(pairs))


def _unlit_ep(coupling_j=1e4):
    """A pair at its EP with no light, n0 = 0: arm 1's intrinsic damping
    alone (4J) closes the gap. The strain rescales only
    optical damping, so the discriminant is exactly 0 at every h."""
    res = MechanicalResonator(omega_m=1e6, mass=1e-13, quality_factor=1e5, thickness=1e-7)
    system = balanced_system(res, length=1e-4, kappa=1e7, coupling_j=coupling_j)
    damped = dataclasses.replace(system.resonator_1, gamma_m=4.0 * coupling_j)
    return dataclasses.replace(system, resonator_1=damped)


@settings(max_examples=30)
@given(
    system=balanced_systems() | mismatched_systems(),
    h_max=log_uniform(-20.0, -1.0),
    points=st.integers(2, 40),
    log=st.booleans(),
)
@example(system=_unlit_ep(), h_max=0.1, points=2, log=False)
def test_sweep_strain_matches_scalar_reference_bitwise(system, h_max, points, log):
    try:
        n0 = ep_photon_number(system)
    except NoEPError:
        return
    h_min = h_max * 1e-6 if log else 0.0  # a linear grid starts at the h = 0 row
    sweep = sweep_strain(system, n0, h_min, h_max, points, log=log)
    columns = (sweep.strain, sweep.d_exact, sweep.d_approx, sweep.linewidth_split)
    got = list(zip(*(column.tolist() for column in columns)))
    grid = np.geomspace(h_min, h_max, points) if log else np.linspace(h_min, h_max, points)
    assert _bits(got) == _bits(_ref_splittings(system, n0, grid))
    single = splitting(system, n0, float(grid[-1]))
    assert _bits(single) == _bits(got[-1])


@settings(max_examples=30)
@given(
    system=balanced_systems() | mismatched_systems(),
    h_max=log_uniform(-20.0, -1.0),
    points=st.integers(2, 40),
    log=st.booleans(),
)
# a zero response is written as 0, not refused as an underflow
@example(system=_unlit_ep(), h_max=0.1, points=2, log=False)
@example(system=_unlit_ep(), h_max=0.1, points=3, log=True)
def test_sweep_rel_error_matches_splitting_bitwise(system, h_max, points, log):
    # the array rel_error is the scalar property point by point, including
    # its 0.0 on the h = 0 row of a linear grid, where d_approx is zero
    try:
        n0 = ep_photon_number(system)
    except NoEPError:
        return
    h_min = h_max * 1e-6 if log else 0.0
    sweep = sweep_strain(system, n0, h_min, h_max, points, log=log)
    expected = [splitting(system, n0, h).rel_error for h in sweep.strain.tolist()]
    assert _bits(sweep.rel_error.tolist()) == _bits(expected)
    assert log or sweep.d_approx[0] == sweep.rel_error[0] == 0.0


DBL_MIN = sys.float_info.min


def _ref_strain_refusal(system, n0, h):
    """The message with which the strain response at n0 refuses h, or None:
    the scalar response and its range test written out with np.maximum
    and np.minimum, and core.require_strain's rule for a subnormal h."""
    if h != 0.0 and abs(h) < DBL_MIN:
        return f"strain h = {h!r}; need h = 0 or a normal double with |h| < 1/2"
    arm_1, arm_2 = _arms(system)
    j = system.coupling_j
    b0_re = arm_1.omega_m - arm_2.omega_m
    b0_im = 0.5 * (arm_2.damping(n0) - arm_1.damping(n0))
    scale = -4.0 * h * (1.0 - h)
    opt_1, opt_2 = arm_1.optical_damping(n0), arm_2.optical_damping(n0)
    db_im = 0.5 * (scale * opt_2 - scale * opt_1)
    t_im = 2.0 * b0_im + db_im
    disc = complex(0.25 * -(db_im * t_im), 0.25 * (db_im * (2.0 * b0_re)))
    alpha = cmath.sqrt(disc)
    response = (2.0 * alpha.real, 4.0 * math.sqrt(2.0) * j * math.sqrt(abs(h)), 2.0 * abs(alpha.imag))
    with np.errstate(all="ignore"):
        disc_size = np.maximum(abs(disc.real), abs(disc.imag)) if opt_1 != opt_2 else math.inf
        smallest = np.minimum(disc_size, response[1])
    if not math.isfinite(sum(response)):
        return f"the strain response at n0 = {n0!r} overflows double precision"
    if smallest >= DBL_MIN or h == 0.0:
        return None
    return (
        f"coupling_j = {j!r}: the strain response at h = {h!r} underflows double precision"
        f" (disc = {disc!r}, d_approx = {response[1]!r}; each must be a normal double)"
    )


@st.composite
def strain_edge_systems(draw):
    """Systems at the ends of the strain response's range: a balanced one;
    the same with J near 2 pi 1e-300, where d_approx leaves the normal
    range at h ~ 4e-19 and the discriminant at every h, or near 2 pi
    1e-150, where the discriminant (~ 8 h J^2) leaves it at h in (0, 1/2);
    and the unlit pair, n0 = 0 with equal optical damping, at either J."""
    kind = draw(st.sampled_from(["balanced", "faint", "unlit"]))
    if kind == "unlit":
        return _unlit_ep(draw(st.sampled_from([1e4, 2.0 * math.pi * 1e-300])))
    system = draw(balanced_systems())
    if kind == "faint":
        exponent = draw(st.floats(-300.3, -299.7) | st.floats(-156.0, -145.0))
        system = dataclasses.replace(system, coupling_j=2.0 * math.pi * 10.0**exponent)
    return system


@settings(max_examples=200)
@given(system=strain_edge_systems(), data=st.data())
def test_strain_response_refuses_exactly_where_the_reference_does(system, data):
    # the range test, as comparisons joined by | and &, refuses the same
    # strains with the same messages as the max/min form, for a float and
    # on a sweep grid [0, |h|] (its h = 0 row is never refused)
    try:
        n0 = ep_photon_number(system)
    except NoEPError:
        return
    j = system.coupling_j
    # the strains at which d_approx and |disc| ~ 8 h J^2 reach DBL_MIN
    crossings = ((DBL_MIN / (4.0 * math.sqrt(2.0) * j)) ** 2, DBL_MIN / (8.0 * j) / j)
    edges = [0.0, DBL_MIN, math.nextafter(DBL_MIN, 0.0), math.nextafter(DBL_MIN, 1.0), 1e-300, 0.49]
    edges += [c * f for c in crossings for f in (0.9, 1.0, 1.1) if c * f < 0.5]
    h = data.draw(st.sampled_from(edges) | log_uniform(-307.0, -0.31)) * data.draw(st.sampled_from([1.0, -1.0]))
    expected = _ref_strain_refusal(system, n0, h)
    if expected is None:
        splitting(system, n0, h)
    else:
        with pytest.raises(InvalidRangeError) as info:
            splitting(system, n0, h)
        assert str(info.value) == expected
    if h == 0.0:
        return
    g = abs(h)
    expected = _ref_strain_refusal(system, n0, g)
    if expected is None:
        sweep = sweep_strain(system, n0, 0.0, g, 2)
        single = splitting(system, n0, g)
        assert _bits([sweep.d_exact[1].item(), sweep.linewidth_split[1].item()]) == _bits(
            [single.d_exact, single.linewidth_split]
        )
    else:
        with pytest.raises(InvalidRangeError) as info:
            sweep_strain(system, n0, 0.0, g, 2)
        assert str(info.value) == expected


def _reference_device(coupling_j=2.0 * math.pi * 1e7, omega_2=None, kappa_2_factor=1.0, n_cav=0.0):
    """The reference device with another J, resonator 2's frequency, red
    cavity decay and photon number in both cavities."""
    res = MechanicalResonator(omega_m=2.0 * math.pi * 1e9, mass=5.3e-15, quality_factor=1e5, thickness=8e-8)
    system = balanced_system(res, length=1e-4, kappa=2.0 * math.pi * 1e8, coupling_j=coupling_j)
    res_2 = dataclasses.replace(res, omega_m=res.omega_m if omega_2 is None else omega_2)
    cav_2 = dataclasses.replace(system.cavity_2, kappa=system.cavity_2.kappa * kappa_2_factor)
    return dataclasses.replace(system, resonator_2=res_2, cavity_2=cav_2).with_photon_number(n_cav)


@st.composite
def extreme_systems(draw):
    """The reference device with J and |omega_1 - omega_2| up to about 1e154
    and both photon numbers up to about 1e300, balanced or kappa-mismatched."""
    return _reference_device(
        coupling_j=draw(log_uniform(-3.0, 154.2)),
        omega_2=draw(st.none() | log_uniform(6.0, 154.2)),
        kappa_2_factor=draw(st.sampled_from([1.0, 1.2])),
        n_cav=draw(st.just(0.0) | log_uniform(0.0, 300.0)),
    )


@settings(max_examples=200)
@given(system=extreme_systems(), strain=st.sampled_from([0.0, 1e-20, -1e-3, 0.49]))
# a finite disc ~ 1.79e308 - 2.28e307j whose modulus overflows
@example(
    system=_reference_device(
        coupling_j=1.3218468929391967e154, omega_2=7.408800984916117e153, n_cav=1.3789067060798393e158
    ),
    strain=1e-3,
)
def test_single_point_calls_raise_only_library_errors_at_extreme_inputs(system, strain):
    # a point either raises an EpgwError or agrees with the first point of
    # a two-point sweep there, bit for bit and in phase
    n = system.cavity_1.n_cav
    try:
        pair = eigenvalues_general(system)
    except EpgwError:
        pass
    else:
        grid, sweep = sweep_photon_number(system, n, math.nextafter(n, math.inf), 2)
        assert grid[0] == n
        assert _bits([sweep.lambda_plus[0].item(), sweep.lambda_minus[0].item(), sweep.discriminant[0].item()]) == (
            _bits([pair.lambda_plus, pair.lambda_minus, pair.discriminant])
        )
        assert sweep.phase[0] is pair.phase
    try:
        n = ep_photon_number(system)
    except EpgwError:
        pass
    try:
        splitting(system, n, strain)
    except EpgwError:
        pass


def _as_float64(record):
    """The record with every field an np.float64, its records' fields too."""
    if not dataclasses.is_dataclass(record):
        return np.float64(record)
    fields = {f.name: _as_float64(getattr(record, f.name)) for f in dataclasses.fields(record)}
    return dataclasses.replace(record, **fields)


def _typed_bits(value):
    """_bits with each value's type (an array's dtype), field by field."""
    if dataclasses.is_dataclass(value):
        return [_typed_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype, _bits(value.tolist())
    return type(value), _bits(value)


def _outcome(call, *args):
    """call(*args) as _typed_bits, or its error's class and text."""
    try:
        return _typed_bits(call(*args))
    except EpgwError as exc:
        return type(exc), str(exc)


def _single_point_outcomes(system, strain, number):
    """What the single-point calls give, each as _typed_bits or its error's
    class and text: the pair at the system's photon number, the EP, and the
    splitting at the EP (else at that photon number) at ``strain`` and over
    [0, |strain|]. ``number`` makes every number argument."""
    n = system.cavity_1.n_cav
    try:
        n = number(ep_photon_number(system))
    except EpgwError:
        pass
    return [
        _outcome(eigenvalues_general, system),
        _outcome(ep_photon_number, system),
        _outcome(splitting, system, n, number(strain)),
        _outcome(sweep_strain, system, n, number(0.0), number(abs(strain)), 2) if strain else None,
    ]


@settings(max_examples=200)
@given(system=extreme_systems(), strain=st.sampled_from([0.0, 1e-20, -1e-3, 0.49]))
@example(
    system=_reference_device(
        coupling_j=1.3218468929391967e154, omega_2=7.408800984916117e153, n_cav=1.3789067060798393e158
    ),
    strain=1e-3,
)
# resonator 2's phi overflows: (Delta - omega_2)^2 leaves the double range
@example(system=_reference_device(omega_2=10.0**154.2), strain=1e-20)
def test_float64_inputs_take_the_python_float_path_at_extreme_inputs(system, strain):
    # numpy float64 fields and arguments give the bits, types and errors that
    # Python floats give, and no numpy warning (pytest makes one an error)
    numpy_system = _as_float64(system)
    assert type(numpy_system.resonator_2.omega_m) is float  # records store Python floats as built
    assert _single_point_outcomes(numpy_system, strain, np.float64) == _single_point_outcomes(system, strain, float)


def _off_by_ulps(omega, ulps):
    """omega moved ``ulps`` floats up (down where ulps < 0)."""
    return float(np.int64(np.float64(omega).view(np.int64) + ulps).view(np.float64))


def _tiny_pair(coupling_j, ulps):
    """The reference resonator at omega_m = 2^-508, kappa alike, with 1e76 m
    cavities (an optical slope of about 2) and omega_2 ``ulps`` floats off:
    |omega_1 - omega_2| J underflows, and J^2 is subnormal below J = 2^-511."""
    omega = 2.0**-508
    res = MechanicalResonator(omega_m=omega, mass=5.3e-15, quality_factor=1e5, thickness=8e-8)
    system = balanced_system(res, length=1e76, kappa=omega, coupling_j=coupling_j)
    return dataclasses.replace(system, resonator_2=dataclasses.replace(res, omega_m=_off_by_ulps(omega, ulps)))


@st.composite
def detuned_pairs(draw):
    """Detuned pairs on both sides of the detuning bound's margin 64 eps J:
    the reference device with omega_2 1 to 64 floats off omega_1 at J from
    1e-3 to 10 times omega_1, where the window can still locate an EP; with
    omega_2 shifted up by 0.05 J to 10 J at J from 1e-3 to 1e154.2, often
    above 1e153.8, where the guess's |disc| overflows; and _tiny_pair at J
    from 2^-560 to 2^-500."""
    kind = draw(st.sampled_from(["ulps", "shift", "tiny"]))
    ulps = draw(st.integers(1, 64)) * draw(st.sampled_from([1, -1]))
    if kind == "tiny":
        return _tiny_pair(2.0 ** draw(st.floats(-560.0, -500.0)), ulps)
    omega, kappa_2_factor = 2.0 * math.pi * 1e9, draw(st.sampled_from([1.0, 1.2]))
    if kind == "ulps":
        return _reference_device(omega * draw(log_uniform(-3.0, 1.0)), _off_by_ulps(omega, ulps), kappa_2_factor)
    j = draw(log_uniform(-3.0, 154.2) | log_uniform(153.8, 154.2))
    return _reference_device(j, omega + j * draw(st.floats(0.05, 10.0)), kappa_2_factor)


@settings(max_examples=200)
@given(system=detuned_pairs())
# one float off at J = omega_1/4: the window locates an EP
@example(system=_reference_device(0.5 * math.pi * 1e9, _off_by_ulps(2.0 * math.pi * 1e9, 1)))
# 8 eps J^2 underflows to 0 and |omega_1 - omega_2| J to 0: the guess's disc is
# 5e-324, the window would locate an EP one float off it, and the bound refuses it
@example(system=_tiny_pair(2.0**-514.5625, 1))
# the guess's discriminant overflows: the window raises InvalidRangeError
@example(system=_reference_device(1.3218468929391967e154, 7.408800984916117e153))
def test_the_detuning_bound_refuses_only_pairs_the_window_refuses(system):
    # the bound's NoEPError appears only where the full-window oracle raises
    # NoEPError, or where 8 eps J^2 is not normal: there a float |disc| can
    # underflow to pass the EP rule although |disc| >= |omega_1 - omega_2| J
    # exactly, and the oracle locates an EP the bound refuses. Every other
    # outcome is the oracle's, in bits or in class and text.
    found = _outcome(ep_photon_number, system)
    expected = _outcome(ep_photon_number_scanned, system)
    if found[0] is NoEPError and found[1].startswith("omega_1 - omega_2 = "):
        assert expected[0] is NoEPError or not _normal(ep_tolerance(system.coupling_j))
    else:
        assert found == expected


def test_a_detuned_pair_whose_threshold_underflows_has_no_ep():
    # |disc| >= |omega_1 - omega_2| J > 0 exactly, but 8 eps J^2 is not
    # normal: at J = 2^-537 the guess's float disc underflows to 0, at
    # 2^-514.5625 to 5e-324 with 0 one float off. The bound refuses both.
    guess = float.fromhex("0x1.b6ea9cc7947dap-538")
    assert _spectrum(_arms(_tiny_pair(2.0**-537, 1)), 2.0**-537, guess, guess)[1] == 0
    for coupling_j in (2.0**-537, 2.0**-514.5625):
        with pytest.raises(NoEPError, match="^omega_1 - omega_2 = "):
            ep_photon_number(_tiny_pair(coupling_j, 1))


@st.composite
def zero_bias_systems(draw):
    """Balanced systems whose resonator 2 has intrinsic damping 4 J: the
    EP sits at n = 0, where the discriminant cancels exactly."""
    system = draw(balanced_systems())
    damped = dataclasses.replace(system.resonator_2, gamma_m=4.0 * system.coupling_j)
    return dataclasses.replace(system, resonator_2=damped)


def _strain_outcomes(system, n0):
    """splitting at four strains and sweep_strain over two grids, at bias
    n0 on ``system()``, each as _outcome."""
    return [_outcome(splitting, system(), n0, h) for h in (0.0, 1e-20, -1e-3, 0.49)] + [
        _outcome(sweep_strain, system(), n0, -1e-3, 1e-3, 5),
        _outcome(sweep_strain, system(), n0, 1e-24, 1e-12, 4, True),
    ]


_BIASES = ["located", "above", "zero", "negative zero", "off"]


@settings(max_examples=150)
@given(
    system=any_systems | zero_bias_systems(),
    record=st.sampled_from(["ep_photon_number", *_BIASES]),
    copy_by=st.sampled_from([None, copy.copy, lambda s: pickle.loads(pickle.dumps(s))]),
    query=st.sampled_from(_BIASES),
)
def test_a_kept_bias_never_changes_a_strain_response(system, record, copy_by, query):
    # a system object holds a bias record from ep_photon_number or from a
    # strain response at some bias (a copy of such an object holds its
    # record); each strain response on it, in bits or in class and text, is
    # the one a fresh object gives
    try:
        n0 = ep_photon_number(dataclasses.replace(system))
    except EpgwError:
        n0 = 1.0
    biases = dict(zip(_BIASES, [n0, math.nextafter(n0, math.inf), 0.0, -0.0, 1.5 * n0]))
    recorded = dataclasses.replace(system)
    if record == "ep_photon_number":
        _outcome(ep_photon_number, recorded)
    else:
        _outcome(splitting, recorded, biases[record], 1e-20)
    if copy_by is not None:
        recorded = copy_by(recorded)
    fresh = _strain_outcomes(lambda: dataclasses.replace(system), biases[query])
    assert _strain_outcomes(lambda: recorded, biases[query]) == fresh


def _reference_context(temperature=4.0, sample_time=1.0):
    """The reference device's noise context at another temperature and tau."""
    return SensitivityContext(
        temperature=temperature, sample_time=sample_time, drive_amplitude=4.24e-8, quality_factor=1e5
    )


@st.composite
def extreme_contexts(draw):
    """Noise contexts with each field from about 1e-300 to 1e300."""
    return SensitivityContext(
        temperature=draw(log_uniform(-3.0, 300.0)),
        sample_time=draw(log_uniform(-300.0, 6.0)),
        drive_amplitude=draw(log_uniform(-300.0, -6.0)),
        quality_factor=draw(log_uniform(0.0, 300.0)),
    )


def _noise_and_dynamics_outcomes(system, ctx, coupling_j, f_max, number):
    """What mode_matrix, a propagate_exact of about 64 default steps, the
    thermal noise, the strain floor and a 3-point sensitivity curve from
    1 Hz to f_max give, each as _outcome. ``number`` makes every number
    argument; the duration is taken from the system's Python-float pair."""
    try:
        pair = eigenvalues_general(system)
        duration = 64 * 0.2 * math.pi / max(abs(pair.lambda_plus.real), abs(pair.lambda_minus.real))
    except EpgwError:
        duration = 1e-9
    resonator = system.resonator_1
    return [
        _outcome(mode_matrix, system),
        _outcome(propagate_exact, system, (1.0, 0.0), number(duration)),
        _outcome(thermal_frequency_noise, ctx, resonator),
        _outcome(min_detectable_strain, ctx, resonator, number(coupling_j)),
        _outcome(sensitivity_curve, ctx, resonator, number(coupling_j), number(1.0), number(f_max), 3),
    ]


@settings(max_examples=150)
@given(
    system=extreme_systems(),
    ctx=extreme_contexts(),
    coupling_j=log_uniform(-3.0, 300.0),
    f_max=log_uniform(-1.0, 308.0),
)
# T = 1e300 K, tau = 1e-300 s: the noise's divisor underflows, the strain floor overflows
@example(system=_reference_device(), ctx=_reference_context(1e300, 1e-300), coupling_j=1e7, f_max=1e3)
# the spectrum overflows in the mode matrix's photon numbers
@example(system=_reference_device(n_cav=1e290), ctx=_reference_context(), coupling_j=1e7, f_max=1e3)
# J^2 overflows in the strain floor's divisor
@example(system=_reference_device(), ctx=_reference_context(), coupling_j=1e300, f_max=1e3)
def test_float64_inputs_take_the_python_float_path_in_dynamics_and_noise(system, ctx, coupling_j, f_max):
    # numpy float64 fields and arguments give the bits, types and errors that
    # Python floats give, and no numpy warning (pytest makes one an error)
    numpy_outcomes = _noise_and_dynamics_outcomes(_as_float64(system), _as_float64(ctx), coupling_j, f_max, np.float64)
    assert numpy_outcomes == _noise_and_dynamics_outcomes(system, ctx, coupling_j, f_max, float)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: sweep_grid("h", x(0.0), x(0.0), 2, False),
        lambda x: sweep_grid("f", x(-1.0), x(1.0), 2, False),
        lambda x: sweep_grid("n", x(math.nan), x(1.0), 2, False),
        lambda x: splitting(_reference_device(), x(0.0), x(0.5)),
        lambda x: splitting(_reference_device(), x(-1.0), x(0.0)),
        lambda x: SensitivityContext(x(0.0), x(1.0), x(4.24e-8), x(1e5)),
        lambda x: sweep_photon_number(_reference_device(), x(0.0), x(1e308), 2),
        lambda x: sensitivity_curve(
            _reference_context(1e30), _reference_device().resonator_1, x(1e7), x(1.0), x(1e308), 3
        ),
        lambda x: propagate_exact(_reference_device(), (1.0, 0.0), x(1e-9), x(-1.0)),
        lambda x: propagate_exact(_reference_device(), (1.0, 0.0), x(math.inf)),
        lambda x: propagate_exact(_reference_device(), (1.0, 0.0), x(1e-12), x(1e-11)),
        # duration/dt overflows: inf, more samples than the cap
        lambda x: propagate_exact(_reference_device(), (1, 0), x(1e300), x(1e-300)),
    ],
    ids=[
        "sweep_grid-empty", "sweep_grid-negative", "sweep_grid-nan", "splitting-strain", "splitting-n0",
        "context", "sweep_photon_number-n_max", "sensitivity_curve-f_max", "propagate-dt", "propagate-duration",
        "propagate-duration-below-dt", "propagate-duration-over-dt",
    ],
)
def test_error_texts_name_a_numpy_number_as_its_python_float(call):
    # a numpy caller reads the text a Python-float caller reads, not np.float64(...)
    with pytest.raises(EpgwError) as numpy_error:
        call(np.float64)
    with pytest.raises(EpgwError) as float_error:
        call(float)
    assert (type(numpy_error.value), str(numpy_error.value)) == (type(float_error.value), str(float_error.value))
    assert "np." not in str(numpy_error.value)


@pytest.mark.parametrize(
    "n_guess",
    [3 * 5e-324, 1.4e12, math.nextafter(sys.float_info.max, 0.0), sys.float_info.max, math.inf],
    ids=["3-ulps-above-zero", "unclipped", "1-ulp-below-dbl-max", "dbl-max", "inf"],
)
@pytest.mark.parametrize("target", [0.0, math.inf, 1.0])
def test_polish_window_clips_at_zero_and_infinity(n_guess, target):
    # the window holds the floats the nextafter walk visits, in its order,
    # with 0.0 and +inf repeated where the walk stops there
    seen = []

    def magnitude(n):
        if isinstance(n, np.ndarray):
            seen.append(n.copy())
            return np.abs(n - target) if math.isfinite(target) else np.where(n == target, 0.0, 1.0)
        return abs(n - target) if math.isfinite(target) else (0.0 if n == target else 1.0)

    got = _polish_photon_number(magnitude, n_guess)
    assert _bits(got) == _bits(_ref_polish(magnitude, n_guess, _POLISH_STEPS))
    walk, down, up = [n_guess], n_guess, n_guess
    for _ in range(_POLISH_STEPS):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        walk += [down, up]
    assert _bits(seen[0].tolist()) == _bits(walk)


@settings(max_examples=300)
@given(
    temperature=log_uniform(-3.0, 4.0),
    tau=log_uniform(-6.0, 6.0),
    amplitude=log_uniform(-12.0, -6.0),
    quality_factor=log_uniform(1.0, 9.0),
    omega_m=log_uniform(3.0, 12.0),
    mass=log_uniform(-20.0, -9.0),
    coupling_j=log_uniform(0.0, 10.0),
)
def test_noise_and_strain_floor_match_their_written_out_formulas_bitwise(
    temperature, tau, amplitude, quality_factor, omega_m, mass, coupling_j
):
    ctx = SensitivityContext(
        temperature=temperature, sample_time=tau, drive_amplitude=amplitude, quality_factor=quality_factor
    )
    res = MechanicalResonator(omega_m=omega_m, mass=mass, quality_factor=quality_factor, thickness=1e-7)
    kt, msd = K_BOLTZMANN * temperature, amplitude * amplitude
    noise = math.sqrt(kt / (2.0 * math.pi * tau * mass * omega_m * msd * quality_factor))
    h_min = kt / (64.0 * math.pi * tau * mass * omega_m * msd * quality_factor * coupling_j * coupling_j)
    assert _bits(thermal_frequency_noise(ctx, res)) == _bits(noise)
    assert _bits(min_detectable_strain(ctx, res, coupling_j)) == _bits(h_min)
    assert _bits(_strain_floor(ctx, res, coupling_j, np.array([tau])).tolist()) == _bits([h_min])
