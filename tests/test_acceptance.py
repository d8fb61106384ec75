"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line (visible with pytest -s; the -v test names carry the
same verdict) and enforcing the stated numeric tolerance and runtime."""

import dataclasses
import json
import math
import re
import time

import numpy as np

from epgw import (
    CoupledSystem,
    MechanicalResonator,
    OpticalCavity,
    SensitivityContext,
    detuning_response,
    drive_amplitude_from_thickness,
    eigenvalues_general,
    estimate_spectrum,
    min_detectable_strain,
    mode_matrix,
    propagate_exact,
    propagate_rk,
    sweep_strain,
    vacuum_coupling,
    zero_point_fluctuation,
)
from oracle import eigenvalues_numeric

TWO_PI = 2.0 * math.pi


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_ep_photon_number(run_cli):
    start = time.perf_counter()
    code, out, _ = run_cli("ep-locate")
    elapsed = time.perf_counter() - start
    n0 = float(re.search(r"n0 = ([0-9.e+-]+)", out).group(1))
    deviation = abs(n0 - 1.48e12) / 1.48e12
    ok = code == 0 and deviation < 0.10 and elapsed < 1.0
    _report(1, ok, f"n0 = {n0:.6e} ({deviation * 100:.1f}% from 1.48e12), {elapsed * 1e3:.1f} ms")


def _noise_context(temperature):
    return SensitivityContext(
        temperature=temperature,
        sample_time=1.0,
        drive_amplitude=drive_amplitude_from_thickness(8e-8),
        quality_factor=1e5,
    )


def test_criterion_2_room_temperature_floor(device_resonator):
    ctx = _noise_context(300.0)
    start = time.perf_counter()
    h = min_detectable_strain(ctx, device_resonator, TWO_PI * 1e7)
    elapsed = time.perf_counter() - start
    deviation = abs(h - 8.9e-25) / 8.9e-25
    ok = deviation < 0.05 and elapsed < 1e-3
    _report(2, ok, f"h_min(300 K) = {h:.4e} ({deviation * 100:.1f}% from 8.9e-25), {elapsed * 1e6:.0f} us")


def test_criterion_3_cryogenic_floor(device_resonator):
    ctx = _noise_context(1.0)
    start = time.perf_counter()
    h = min_detectable_strain(ctx, device_resonator, TWO_PI * 1e7)
    elapsed = time.perf_counter() - start
    deviation = abs(h - 3.0e-27) / 3.0e-27
    ok = deviation < 0.05 and elapsed < 1e-3
    _report(3, ok, f"h_min(1 K) = {h:.4e} ({deviation * 100:.1f}% from 3.0e-27), {elapsed * 1e6:.0f} us")


def test_criterion_4_square_root_law(device, device_n0):
    start = time.perf_counter()
    sweep = sweep_strain(device, device_n0, 1e-26, 1e-20, 100, log=True)
    elapsed = time.perf_counter() - start
    slope = float(np.polyfit(np.log(sweep.strain), np.log(sweep.d_exact), 1)[0])
    worst = float(sweep.rel_error.max())
    ok = abs(slope - 0.5) < 1e-3 and worst < 1e-2 and elapsed < 1.0
    _report(4, ok, f"slope = {slope:.6f}, max rel err = {worst:.2e}, {elapsed * 1e3:.1f} ms")


def test_criterion_5_bifurcation_structure(run_cli, tmp_path, device):
    path = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code, _, _ = run_cli("sweep-ncav", "--points", "500", "--output", str(path))
    elapsed = time.perf_counter() - start
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    omega_hz = 1e9
    tol = 1e-12 * omega_hz
    real_ok = imag_ok = True
    phases = []
    for _, re_p, re_m, im_p, im_m, phase in rows:
        phases.append(phase)
        if phase == "pt_symmetric":
            imag_ok &= abs(float(im_p)) <= tol and abs(float(im_m)) <= tol
        elif phase == "broken":
            real_ok &= abs(float(re_p) - omega_hz) <= tol and abs(float(re_m) - omega_hz) <= tol
    transitions = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
    ok = (
        code == 0
        and len(rows) == 500
        and imag_ok
        and real_ok
        and transitions == 1
        and elapsed < 1.0
    )
    _report(
        5,
        ok,
        f"500 rows, Im=0 below / Re=f_m above to 1e-12 rel, "
        f"{transitions} transition(s), {elapsed * 1e3:.1f} ms",
    )


def _random_system(rng):
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


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_pair = worst_trace = 0.0
    for _ in range(1000):
        system = _random_system(rng)
        general = eigenvalues_general(system)
        numeric = eigenvalues_numeric(system)
        scale = abs(general.lambda_plus)
        worst_pair = max(
            worst_pair,
            abs(general.lambda_plus - numeric.lambda_plus) / scale,
            abs(general.lambda_minus - numeric.lambda_minus) / scale,
        )
        m = mode_matrix(system)
        trace = m[0, 0] + m[1, 1]
        worst_trace = max(
            worst_trace, abs(general.lambda_plus + general.lambda_minus - trace) / abs(trace)
        )
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-10 and worst_trace <= 1e-12 and elapsed < 5.0
    _report(
        6,
        ok,
        f"1000 systems, worst eigenvalue dev = {worst_pair:.2e}, "
        f"worst trace dev = {worst_trace:.2e}, {elapsed:.2f} s",
    )


def test_criterion_7_dynamics_end_to_end(device, device_n0):
    start = time.perf_counter()
    biased = device.with_photon_number(0.5 * device_n0)  # Gamma = J, PT phase
    pair = eigenvalues_general(biased)
    split = pair.lambda_plus.real - pair.lambda_minus.real
    duration = 100.0 * TWO_PI / split
    dt = 0.1 * TWO_PI / abs(pair.lambda_plus.real)
    trajectory = propagate_exact(biased, (1.0, 0.5), duration, dt)
    estimate = estimate_spectrum(trajectory)
    elapsed = time.perf_counter() - start

    got = sorted(estimate.peak_frequencies)
    want = sorted([pair.lambda_minus.real, pair.lambda_plus.real])
    budget = estimate.resolution / 10.0
    errs = [abs(g - w) for g, w in zip(got, want)]
    ok = (
        len(got) == 2
        and duration >= 100.0 * TWO_PI / split
        and max(errs) < budget
        and elapsed < 30.0
    )
    _report(
        7,
        ok,
        f"{len(trajectory)} samples, peak errors {[f'{e:.1e}' for e in errs]} rad/s "
        f"vs budget {budget:.1e}, {elapsed:.2f} s",
    )


def test_criterion_8_integrator_order():
    res = MechanicalResonator(omega_m=TWO_PI * 1e6, mass=1e-14, quality_factor=1e4, thickness=1e-7)
    cav = OpticalCavity(length=1e-4, kappa=TWO_PI * 1e8, detuning=0.0, n_cav=0.0)
    system = CoupledSystem(
        resonator_1=res, resonator_2=res, cavity_1=cav, cavity_2=cav, coupling_j=TWO_PI * 1e4
    )
    limit = 0.1 * TWO_PI / (res.omega_m + system.coupling_j)
    duration = 40.0 * TWO_PI / res.omega_m

    def max_deviation(dt):
        rk = propagate_rk(system, (1.0, 0.0), duration, dt)
        exact = propagate_exact(system, (1.0, 0.0), duration, dt)
        return max(np.max(np.abs(rk.a1 - exact.a1)), np.max(np.abs(rk.a2 - exact.a2)))

    start = time.perf_counter()
    coarse = max_deviation(limit / 2.0)
    fine = max_deviation(limit / 4.0)
    elapsed = time.perf_counter() - start
    ratio = coarse / fine
    ok = ratio >= 14.0 and elapsed < 10.0
    _report(8, ok, f"halving dt shrank the deviation {ratio:.2f}x (>= 14 required), {elapsed:.2f} s")


def test_criterion_9_determinism(run_cli, tmp_path):
    fast_simulate = ["--photon-number", "7.0313629496777e11", "--strain", "0"]
    invocations = {
        "ep-locate": [],
        "sweep-ncav": ["--points", "100"],
        "sweep-strain": ["--points", "50", "--log"],
        "sensitivity": ["--points", "50"],
        "simulate": fast_simulate,
    }
    identical = True
    for command, extra in invocations.items():
        first = tmp_path / f"{command}-a.out"
        second = tmp_path / f"{command}-b.out"
        assert run_cli(command, *extra, "--output", str(first))[0] == 0
        assert run_cli(command, *extra, "--output", str(second))[0] == 0
        identical &= first.read_bytes() == second.read_bytes()
    _report(9, identical, "all five subcommands rerun byte-identically")
