"""Independent reference for the supermode spectrum, used by the tests.

``eigenvalues_numeric`` solves the characteristic polynomial of M, a
different route from the closed-form discriminant of
``epgw.spectral.eigenvalues_general``, so the tests can compare the two.
"""

import cmath

from epgw.core import CoupledSystem, SupermodePair
from epgw.spectral import _PHASES, _arms, _classify, _spectrum


def eigenvalues_numeric(system: CoupledSystem) -> SupermodePair:
    """Supermode pair via the characteristic polynomial of M.

    Independent of eigenvalues_general: solves lambda^2 + b lambda + c = 0
    with the numerically stable root recipe (larger-magnitude root from the
    quadratic formula, the other from c/q), then pairs the roots to the
    analytic branches by nearest match so the labels agree even when the
    eigenvalues nearly coincide.
    """
    arms = _arms(system)
    j = system.coupling_j
    n_1, n_2 = system.cavity_1.n_cav, system.cavity_2.n_cav
    a11 = complex(arms[0].omega_m, -0.5 * arms[0].damping(n_1))
    a22 = complex(arms[1].omega_m, -0.5 * arms[1].damping(n_2))
    b = -(a11 + a22)
    c = a11 * a22 - j * j
    s = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (b + s)
    if q == 0:
        r1 = r2 = 0.0j
    else:
        r1 = q
        r2 = c / q
    center, _, root = _spectrum(arms, j, n_1, n_2)
    plus, minus = center + root, center - root
    keep = abs(r1 - plus) + abs(r2 - minus)
    swap = abs(r2 - plus) + abs(r1 - minus)
    lp, lm = (r1, r2) if keep <= swap else (r2, r1)
    disc = 0.25 * (b * b - 4.0 * c)
    return SupermodePair(
        lambda_plus=lp,
        lambda_minus=lm,
        discriminant=disc,
        phase=_PHASES[_classify(disc, j)],
    )
