"""Relative accuracy of the closed forms against a 60-digit reference.

The reference solves the characteristic cubic in mpmath and evaluates the
textbook formulas (alpha = 2k/(E + k - 2h), beta = 2k/(E + k + 2h),
xx = 4 Z^2 (1 + alpha beta), xxz = 4 Z^2 (alpha - beta), ...) whose cancellation at large h/k costs
far fewer than the 60 digits carried.
"""

import numpy as np
import pytest

from qetsim.model import (MAX_FIELD_RATIO, MAX_PARAMETER, ModelParams,
                          energy_decomposition, ground_state)
from qetsim.optimize import max_extracted_energy, max_site_reduction
from qetsim.protocol import correlators_closed

mpmath = pytest.importorskip("mpmath")

RATIOS = np.logspace(-6.0, np.log10(MAX_FIELD_RATIO), 41)
SCALES = (1e-100, 1.0, 1e100)
BOUND = 1e-13


def _reference(h, k):
    """E, alpha, beta, xx, yy, xxz, e_B and both maxima to 60 digits."""
    with mpmath.workdps(60):
        h, k = mpmath.mpf(h), mpmath.mpf(k)
        t = h / k
        cubic = lambda x: (x + 1) * (x * x - 5) - 4 * t * t * (x - 1)
        x = mpmath.findroot(cubic, (-3 - 2 * t, -mpmath.sqrt(5)),
                            solver="anderson")
        e = k * x
        alpha = 2 * k / (e + k - 2 * h)
        beta = 2 * k / (e + k + 2 * h)
        z2 = 1 / (4 + 2 * alpha**2 + 2 * beta**2)
        xx, yy = 4 * z2 * (1 + alpha * beta), 4 * z2 * (1 - alpha * beta)
        site = 2 * h * z2 * (alpha**2 - beta**2)
        # sqrt(e_B^2 + g^2) - |e_B|, in its cancellation-free form
        maximum = lambda g: g * g / (mpmath.sqrt(site**2 + g * g) + abs(site))
        return {"energy": e, "alpha": alpha, "beta": beta, "xx": xx, "yy": yy,
                "xxz": 4 * z2 * (alpha - beta), "site": site,
                "extracted_max": maximum(h * yy),
                "site_reduction_max": maximum(h * xx)}


def _library(state):
    c = correlators_closed(state)
    return {"energy": state.energy, "alpha": state.alpha, "beta": state.beta,
            "xx": c.xx, "yy": c.yy, "xxz": c.xxz,
            "site": energy_decomposition(state).site_b,
            "extracted_max": max_extracted_energy(state).value,
            "site_reduction_max": max_site_reduction(state).value}


@pytest.mark.parametrize("k", SCALES)
def test_closed_forms_relative_accuracy(k):
    hs = [float(t) * k for t in RATIOS if float(t) * k <= MAX_PARAMETER]
    got = _library(ground_state(ModelParams(h=np.array(hs), k=k)))
    worst = {}
    for i, h in enumerate(hs):
        for name, want in _reference(h, k).items():
            error = float(abs((got[name][i] - want) / want))
            if error > worst.get(name, (0.0,))[0]:
                worst[name] = (error, h / k)
    assert {name: v for name, v in worst.items() if v[0] > BOUND} == {}
