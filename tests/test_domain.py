"""The argument contract: a value outside its domain is refused up front.

Each row is a call that once built a wrong object, returned nan or a
silent 0, or leaked a bare Python or numpy error, or a quadrature
failure the CLI read as numeric.  Each must now raise its module's
configuration error, with a message that names the argument, before
any quadrature runs.
"""

import math
import re

import numpy as np
import pytest

from sphereshrink import numerics
from sphereshrink.radial_convolution import ConvolutionError, asymptotic_ratio_probe, harmonic_marginal_closed
from sphereshrink.radial_models import ModelError, gaussian, poly_exp
from sphereshrink.risk_sim import RiskConfig, RiskSimError, estimate_risk, radial_cdf
from sphereshrink.rv_priors import (
    LogTower,
    PriorError,
    classify_prior,
    harmonic_prior,
    log_thickened_prior,
    power_prior,
)
from sphereshrink.shrinkage import ShrinkageError, phi_star
from sphereshrink.special_integrals import (
    IdentityError,
    gegenbauer_identity,
    kernel_mass_identity,
    min_power_identity,
)

G5 = gaussian(5)
nan, inf = math.nan, math.inf

# (call, error class, start of its message)
LEAKS = {
    # int() truncated p to 3, or leaked ValueError / OverflowError
    "harmonic_prior(3.5)": (lambda: harmonic_prior(3.5), PriorError, "dimension p must be an integer >= 3, not 3.5"),
    "power_prior(-1, 3.7)": (lambda: power_prior(-1, 3.7), PriorError, "dimension p must be"),
    "harmonic_prior(nan)": (lambda: harmonic_prior(nan), PriorError, "dimension p must be"),
    "harmonic_prior(inf)": (lambda: harmonic_prior(inf), PriorError, "dimension p must be"),
    # returned a verdict
    "classify_prior(p=5, gaussian(3))": (lambda: classify_prior(harmonic_prior(5), gaussian(3)), PriorError,
                                         "prior dimension 5 does not match p=3"),
    "poly_exp(inf, 1, 5)": (lambda: poly_exp(inf, 1.0, 5), ModelError, "poly_exp alpha must be finite"),
    "poly_exp(1, inf, 5)": (lambda: poly_exp(1.0, inf, 5), ModelError, "poly_exp beta must be finite"),
    # built, and beta_eval read 0.0; LogTower(1.5, e) leaked TypeError
    "LogTower(1, inf)": (lambda: LogTower(1, inf), PriorError, "kernel offset c must be finite"),
    "log_thickened_prior(0, inf, 3)": (lambda: log_thickened_prior(0, inf, 3), PriorError,
                                       "log offset c must be finite"),
    "LogTower(1.5, e)": (lambda: LogTower(1.5, math.e), PriorError, "kernel depth n must be an integer >= 1"),
    # leaked numerics' "integrate requires finite endpoints"
    "phi_star(r=inf)": (lambda: phi_star(G5, 5, inf), ShrinkageError, "r must be positive and finite"),
    # returned 0.0
    "harmonic_marginal_closed(r=inf)": (lambda: harmonic_marginal_closed(G5, inf), ConvolutionError,
                                        "radius must be nonnegative and finite"),
    # returned nan
    "kernel_moment(nan, 1)": (lambda: G5.kernel_moment(nan, 1.0), ModelError, "m must be finite"),
    "kernel_moment(2, nan)": (lambda: G5.kernel_moment(2.0, nan), ModelError, "r must be nonnegative and finite"),
    "moment(nan)": (lambda: G5.moment(nan), ModelError, "moment order k must be finite"),
    # leaked ValueError, TypeError, or was accepted
    "RiskConfig(samples_per_point=nan)": (lambda: RiskConfig(G5, 5, samples_per_point=nan), RiskSimError,
                                          "samples_per_point must be an integer >= 1"),
    "RiskConfig(2-d theta_norms)": (lambda: RiskConfig(G5, 5, theta_norms=[[0.0, 1.0]]), RiskSimError,
                                    "theta_norms must be nonempty, nonnegative and finite numbers in a 1-d list"),
    "probe(2-d radii)": (lambda: asymptotic_ratio_probe(harmonic_prior(5), G5, [[10.0, 100.0]]), ConvolutionError,
                         "probe radii must be positive and finite numbers in a 1-d list"),
    "RiskConfig(p=5.0)": (lambda: RiskConfig(G5, 5.0), RiskSimError, "dimension p must be an integer >= 3, not 5.0"),
    # leaked ValueError, or ran seed 1
    "RiskConfig(seed=nan)": (lambda: RiskConfig(G5, 5, seed=nan), RiskSimError, "seed must be an integer, not nan"),
    "RiskConfig(seed=1.7)": (lambda: RiskConfig(G5, 5, seed=1.7), RiskSimError, "seed must be an integer, not 1.7"),
    "RiskConfig(seed=True)": (lambda: RiskConfig(G5, 5, seed=True), RiskSimError, "seed must be an integer, not True"),
    # leaked the kernel moment's ModelError
    "radial_cdf(nan)": (lambda: radial_cdf(G5, nan), RiskSimError, "r must be a number, not nan"),
    "radial_cdf([1, nan])": (lambda: radial_cdf(G5, [1.0, nan]), RiskSimError, "r must be a number, not nan"),
    # int() truncated the thread count
    "estimate_risk(threads=1.5)": (lambda: estimate_risk(RiskConfig(G5, 5, samples_per_point=10), threads=1.5),
                                   RiskSimError, "threads must be an integer >= 1"),
    # raised NonFiniteIntegrand, a numeric failure
    "gegenbauer_identity(nan, 0)": (lambda: gegenbauer_identity(nan, 0.0), IdentityError, "alpha must be finite"),
    "kernel_mass_identity(order=nan)": (lambda: kernel_mass_identity(G5, nan), IdentityError, "order must be finite"),
    # returned rel_error 0, or ran at p = 3.5
    "min_power_identity(3, inf)": (lambda: min_power_identity(3, inf), IdentityError, "t must be positive and finite"),
    "min_power_identity(3.5, 1)": (lambda: min_power_identity(3.5, 1.0), IdentityError, "dimension p must be"),
}


@pytest.mark.parametrize("name", sorted(LEAKS))
def test_a_value_outside_its_domain_is_refused_before_any_quadrature(name, monkeypatch):
    call, error, message = LEAKS[name]
    rounds = []
    pair = numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda *args: rounds.append(1) or pair(*args))
    with pytest.raises(error, match=f"^{re.escape(message)}") as exc:
        call()
    assert not isinstance(exc.value, ArithmeticError)  # a configuration error, not a numeric one
    assert rounds == []


@pytest.mark.parametrize("value", [True, 3.0, np.float64(4.0), "5", None])
def test_a_dimension_is_an_integer(value):
    with pytest.raises(ModelError, match=r"^dimension p must be an integer >= 3, not "):
        gaussian(value)
    assert gaussian(np.int64(4)).p == 4


@pytest.mark.parametrize("seed", [-1, np.int64(-1), 2**64 - 1, np.uint64(2**64 - 1)])
def test_a_seed_is_an_integer_of_any_sign(seed):
    assert RiskConfig(G5, 5, seed=seed).seed == 2**64 - 1


def test_the_radial_cdf_is_0_below_the_origin_and_1_at_infinity():
    assert radial_cdf(G5, -1.0) == radial_cdf(G5, -inf) == 0.0
    assert radial_cdf(G5, inf) == 1.0
    assert radial_cdf(G5, [-inf, 0.0, inf]).tolist() == [0.0, 0.0, 1.0]
