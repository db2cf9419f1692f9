"""Shared fixtures."""

import numpy as np
import pytest

from sphereshrink import radial_convolution
from sphereshrink.radial_models import gaussian, poly_exp, tabulated
from sphereshrink.rv_priors import harmonic_prior, log_thickened_prior, power_prior

_PRIORS = {
    "harmonic": lambda: harmonic_prior(5),
    "power": lambda: power_prior(-2.5, 5),
    "log_thickened": lambda: log_thickened_prior(0, 2.0, 3),
}
_TABLE_R = np.geomspace(0.01, 100.0, 300)
_MODELS = {
    "gaussian": gaussian,
    "poly_exp": lambda p: poly_exp(2.0, 1.0, p),
    # a power tail: its oracle tail rows use the power map
    "tabulated": lambda p: tabulated(_TABLE_R, (1.0 + _TABLE_R**2) ** -4, p),
}


@pytest.fixture
def parity_case():
    """The oracle's parity grid: (prior, model, radii) by prior and model name.

    The radii are 0.1, 1, the head/tail cut support_radius(1e-16), 64
    and 1000; the model takes the prior's dimension.
    """

    def build(prior_name, model_name):
        prior = _PRIORS[prior_name]()
        model = _MODELS[model_name](prior.p)
        return prior, model, (0.1, 1.0, model.support_radius(1e-16), 64.0, 1000.0)

    return build


@pytest.fixture
def swept():
    """``terms`` (kernel, rho, class) at r > 0 as one batch of the 2-d sweep.

    The request path takes the sweep for every model without ``bells()``;
    for a gaussian-family model this reaches it directly, as the sweep's
    pins do.  A term whose index is in ``directional`` is its along-x
    numerator.
    """

    def sweep(model, r, terms, directional=()):
        problems = [radial_convolution.ConvolutionProblem(model, kernel, rho, r, c) for kernel, rho, c in terms]
        cos = np.array([j in directional for j in range(len(terms))])
        return radial_convolution._sweep(problems, cos, [f"term {j}" for j in range(len(terms))]).tolist()

    return sweep
