import io
import contextlib
import math

import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, and no timing-based failures on a slow or
    # shared machine.
    settings.register_profile("epgw", derandomize=True, deadline=None, database=None)
    settings.load_profile("epgw")

from epgw import MechanicalResonator, balanced_system, ep_photon_number
from epgw.cli import main

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session")
def device_resonator():
    """Reference device mechanics: 1 GHz, 5.3 fg, Q = 1e5, 80 nm beam."""
    return MechanicalResonator(
        omega_m=TWO_PI * 1e9,
        mass=5.3e-15,
        quality_factor=1e5,
        thickness=8e-8,
    )


@pytest.fixture(scope="session")
def device(device_resonator):
    """Reference balanced system: L = 0.1 mm, kappa/2pi = 0.1 GHz, J/2pi = 10 MHz."""
    return balanced_system(
        device_resonator,
        length=1e-4,
        kappa=TWO_PI * 1e8,
        coupling_j=TWO_PI * 1e7,
    )


@pytest.fixture(scope="session")
def device_n0(device):
    return ep_photon_number(device)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI entry point in-process; returns (exit_code, stdout, stderr)."""

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run
