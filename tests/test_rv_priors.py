"""Tests for the regularly varying prior machinery.

Derivative formulas are checked against sympy symbolics and central
finite differences; the H averages against a two-level scipy oracle
with an independent parametrization and, with H', against a 40-digit
mpmath reference; the growth classifiers against frozen pilot values.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from sphereshrink import numerics, rv_priors
from sphereshrink.numerics import DivergenceSuspected, ToleranceNotReached
from sphereshrink.radial_models import gaussian, tabulated
from sphereshrink.rv_priors import (
    AssumptionProfile,
    BetaKernel,
    HSequence,
    LogTower,
    PriorError,
    blyth_decay,
    brown_diagnostic,
    classify_prior,
    custom_prior,
    harmonic_prior,
    kernel_offset,
    log_thickened_prior,
    log_tower,
    power_prior,
    prior_assumption_audit,
    properness_index,
    select_gamma,
)

K1 = BetaKernel(LogTower(1, math.e))
K2 = BetaKernel(LogTower(2, math.e**math.e))


def tail_oracle(kernel, eta):
    """Quadrature of the kernel tail, log-substituted so scipy converges.

    Only usable for depth-1 kernels, where the substitution w = log(r+c)
    turns the integrand into 1/w^2; deeper towers stay stubbornly slow
    for scipy whatever single substitution is applied, so those use the
    windowed identity check below instead.
    """
    assert kernel.tower.n == 1
    c = kernel.tower.c

    def w_integrand(w):
        r = math.exp(w) - c
        return kernel.beta_eval(r) * math.exp(w)

    val, err = quad(w_integrand, math.log(eta + c), np.inf, limit=400)
    assert err < 5e-9 * max(1.0, val)
    return val


class TestLogTower:
    def test_tower_values(self):
        assert log_tower(0, 5.0) == 1.0
        assert log_tower(1, math.e) == pytest.approx(1.0, abs=1e-15)
        assert log_tower(2, math.e**math.e) == pytest.approx(1.0, abs=1e-14)

    def test_tower_rejects_nonpositive_intermediate(self):
        assert log_tower(2, 2.0) < 0  # defined, just negative
        with pytest.raises(PriorError):
            log_tower(3, 2.0)  # would take log of a negative number

    @pytest.mark.parametrize("n,c", [(1, 1.0), (2, math.e), (1, 0.5)])
    def test_invalid_offsets_rejected(self, n, c):
        with pytest.raises(PriorError):
            LogTower(n, c)

    def test_depth_zero_rejected(self):
        with pytest.raises(PriorError):
            LogTower(0, 10.0)

    def test_kernel_offsets(self):
        assert [kernel_offset(n) for n in range(4)] == [1.0, math.e, math.exp(math.e), math.exp(math.exp(math.e))]
        # exp^4(1) overflows: depth 4 sits at 2 exp^3(1), where Log_4 is small but positive
        c4 = kernel_offset(4)
        assert c4 == 2.0 * kernel_offset(3)
        assert log_tower(4, c4) == pytest.approx(0.01619, abs=1e-5)
        LogTower(4, c4)

    @pytest.mark.parametrize("n", [5, 6])
    def test_no_kernel_fits_a_double_past_depth_four(self, n):
        with pytest.raises(PriorError, match=f"depth {n}"):
            kernel_offset(n)


class TestBetaKernel:
    def test_tail_at_zero_depth1(self):
        # Log_1(e) = 1
        assert K1.beta_tail(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_tail_half_value(self):
        # log(eta + e) = 2 at eta = e^2 - e
        assert K1.beta_tail(math.e**2 - math.e) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 7.3])
    def test_closed_tail_matches_quadrature(self, eta):
        assert K1.beta_tail(eta) == pytest.approx(tail_oracle(K1, eta), rel=3e-8)

    @pytest.mark.parametrize("kernel,eta", [(K1, 7.3), (K2, 2.0), (K2, 500.0)])
    def test_windowed_tail_identity(self, kernel, eta):
        # int_eta^X beta equals the difference of the closed-form tails
        hi = 1e3 * (eta + 1.0)
        val, err = quad(lambda r: kernel.beta_eval(r), eta, hi, limit=400)
        assert err < 1e-8 * max(1.0, val)
        assert val == pytest.approx(kernel.beta_tail(eta) - kernel.beta_tail(hi), rel=3e-8)

    def test_tail_monotone_to_zero(self):
        grid = np.geomspace(1e-2, 1e12, 60)
        vals = np.array([K1.beta_tail(e) for e in grid])
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 0.04

    def test_beta_positive_decreasing(self):
        grid = np.geomspace(1e-3, 1e8, 200)
        for kernel in (K1, K2):
            vals = np.asarray(kernel.beta_eval(grid))
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("kernel", [K1, K2])
    @pytest.mark.parametrize("eta", [0.4, 3.7, 250.0])
    def test_beta_deriv_matches_finite_difference(self, kernel, eta):
        h = 1e-6 * max(1.0, eta)
        fd = (kernel.beta_eval(eta + h) - kernel.beta_eval(eta - h)) / (2 * h)
        assert kernel.beta_deriv(eta) == pytest.approx(fd, rel=2e-7)

    def test_beta_deriv_matches_sympy_depth2(self):
        c = 2 * math.e
        kernel = BetaKernel(LogTower(2, c))
        x = sympy.symbols("x", positive=True)
        expr = 1 / ((x + c) * sympy.log(sympy.log(x + c)) ** 2 * sympy.log(x + c))
        dexpr = sympy.diff(expr, x)
        for eta in (0.9, 3.7, 120.0):
            want = float(dexpr.subs(x, eta))
            assert kernel.beta_deriv(eta) == pytest.approx(want, rel=1e-10)

    def test_vectorized_eval(self):
        grid = np.array([0.5, 1.0, 9.0])
        vals = K1.beta_eval(grid)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(K1.beta_eval(1.0), rel=1e-15)


class TestHSequence:
    """The exponential averages and their stated properties."""

    def test_h_at_origin_matches_two_level_oracle(self):
        num, err = quad(lambda r: math.exp(-r) * K1.beta_eval(r), 0, np.inf, limit=400)
        assert err < 1e-9
        oracle = num / tail_oracle(K1, 0.0)
        mine = HSequence(K1, 1.0).h_eval(0.0)
        assert mine == pytest.approx(oracle, rel=1e-8)
        assert mine == pytest.approx(0.198497130040337, rel=1e-10)

    @pytest.mark.parametrize("kernel", [K1, K2])
    def test_h_in_unit_interval(self, kernel):
        for i in (1, 10, 100):
            hs = HSequence(kernel, i)
            for eta in (0.0, 0.7, 5.0, 300.0):
                v = hs.h_eval(eta)
                assert 0.0 < v < 1.0

    @pytest.mark.parametrize("kernel", [K1, K2])
    def test_h_nondecreasing_in_timescale(self, kernel):
        for eta in (0.0, 0.5, 2.0, 10.0, 1e3):
            vals = [HSequence(kernel, i).h_eval(eta) for i in (1, 10, 100)]
            assert vals[0] < vals[1] < vals[2]

    def test_h_approaches_one(self):
        # pointwise limit 1 as the timescale grows
        v = HSequence(K1, 1e6).h_eval(1.0)
        assert v > 0.8

    @pytest.mark.parametrize("kernel", [K1, K2])
    @pytest.mark.parametrize("i", [1, 5, 25])
    def test_scaling_law_at_large_radius(self, kernel, i):
        hs = HSequence(kernel, i)
        eta = 1e6
        scaled = kernel.beta_tail(eta) / kernel.beta_eval(eta) * hs.h_eval(eta)
        assert abs(scaled - i) / i < 1e-4

    def test_integration_by_parts_identity(self):
        # numerator = i * (beta(eta) - int e^{(eta-r)/i}(-beta'(r)) dr)
        for i in (1.0, 7.0):
            hs = HSequence(K1, i)
            eta = 2.5
            num = hs.numerator(eta)
            dpart = hs._avg(eta, True)[3]
            assert num == pytest.approx(i * (K1.beta_eval(eta) - dpart), rel=1e-9)

    @pytest.mark.parametrize("i", [1, 10])
    @pytest.mark.parametrize("eta", [0.5, 3.0, 50.0])
    def test_derivative_matches_finite_difference(self, i, eta):
        hs = HSequence(K1, i)
        h = 1e-5 * max(1.0, eta)
        fd = (hs.h_eval(eta + h) - hs.h_eval(eta - h)) / (2 * h)
        assert hs.h_derivative(eta) == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("kernel", [K1, K2])
    def test_derivative_bound(self, kernel):
        for i in (1, 10, 100):
            hs = HSequence(kernel, i)
            for eta in (0.1, 1.0, 8.0, 90.0, 2e3):
                bound = 2.0 * kernel.beta_eval(eta) / kernel.beta_tail(eta)
                assert abs(hs.h_derivative(eta)) < bound

    def test_derivative_vanishes_with_timescale(self):
        # the pointwise limit is 0 but approached at 1/log i speed, so
        # assert the decreasing trend across widely spaced timescales
        devs = [abs(HSequence(K1, i).h_derivative(2.0)) for i in (1e2, 1e4, 1e8)]
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] < 0.013

    @pytest.mark.parametrize("kernel,expect", [(K1, -1.054287), (K2, -1.072920)])
    def test_log_slope_window_at_large_radius(self, kernel, expect):
        # eta H'/H stays in (-1.1, 0] far out, approaching -1
        for i in (1, 10, 100):
            hs = HSequence(kernel, i)
            eta = 1e8
            ratio = eta * hs.h_derivative(eta) / hs.h_eval(eta)
            assert -1.1 < ratio <= 0.0
            assert ratio == pytest.approx(expect, abs=2e-4)

    def test_invalid_timescale(self):
        with pytest.raises(PriorError):
            HSequence(K1, 0.0)

    @pytest.mark.parametrize("i", [math.inf, math.nan])
    def test_a_timescale_that_is_not_finite_is_refused(self, i):
        # an infinite i used to reach integrate_rows as NaN edges
        with pytest.raises(PriorError, match="timescale i must be positive and finite"):
            HSequence(K1, i)

    @pytest.mark.parametrize("method", ["numerator", "h_eval", "h_derivative"])
    @pytest.mark.parametrize("eta", [-0.5, -2.0, -3.0, math.inf, math.nan], ids=["-0.5", "-2", "-3", "inf", "nan"])
    @pytest.mark.parametrize("shape", ["float", "array"])
    def test_an_eta_outside_the_domain_is_refused(self, method, eta, shape):
        # with c = e, eta = -0.5 returned an H (0.464 here); -2 and inf
        # raised NonFiniteIntegrand; -3 and nan leaked integrate_rows'
        # ValueError on the row edges
        arg = eta if shape == "float" else np.array([1.0, eta])
        with pytest.raises(PriorError, match="eta must be nonnegative and finite"):
            getattr(HSequence(K1, 4.0), method)(arg)

    def test_a_tiny_timescale_is_graded_without_overflow(self):
        # the layer scale 1/(3 i |(log beta)'|) overflows at i = 1e-300 and
        # made the first edge NaN; clipped at 1/2, H ~ i beta/Tail stays finite
        hs = HSequence(K1, 1e-300)
        etas = np.array([0.0, 1.0, 1e10])
        h = hs.h_eval(etas)
        assert h == pytest.approx(1e-300 * K1.beta_eval(etas) / K1.beta_tail(etas), rel=1e-6)
        assert 0.0 < -hs.h_derivative(1.0) < math.inf

    def test_array_calls_equal_scalar_calls(self):
        etas = np.array([1e-3, 0.7, 5.0, 300.0, 1e6])
        for i in (1.0, 64.0):
            hs = HSequence(K2, i)
            h, hp = hs.h_eval(etas), hs.h_derivative(etas)
            assert isinstance(hs.h_eval(0.7), float)
            assert isinstance(hs.h_derivative(0.7), float)
            assert h.tolist() == [hs.h_eval(float(e)) for e in etas]
            assert hp.tolist() == [hs.h_derivative(float(e)) for e in etas]

    @pytest.mark.parametrize("method", ["numerator", "h_eval", "h_derivative"])
    def test_an_eta_array_of_any_shape_is_one_batch_of_scalar_calls(self, method):
        # a 2-d eta leaked numpy's broadcast ValueError from _averages
        hs = HSequence(K1, 4.0)
        fn = getattr(hs, method)
        etas = np.array([[0.0, 0.7, 5.0], [300.0, 1e6, 2.5]])
        for arg in (etas, etas[:, :, None], etas.T):
            out = fn(arg)
            assert out.shape == arg.shape
            assert [x.hex() for x in out.ravel().tolist()] == [fn(float(e)).hex() for e in arg.ravel()]
        assert fn(np.ones((2, 0))).shape == (2, 0)
        with pytest.raises(PriorError, match="eta must be nonnegative and finite"):
            fn(np.array([[1.0], [math.nan]]))


def h_reference(i, eta, tower=K1.tower):
    """H_i and H_i' of the kernel of ``tower`` at 40 digits with mpmath.

    H' comes from the exact identity H' = H/i - (beta/Tail)(1 - H),
    whose cancellation at eta >> i costs nothing at this precision.
    The boundary layer of a large i or a small offset sits at v = 0,
    where tanh-sinh crowds its nodes.
    """
    with mpmath.workdps(40):
        c, i, eta = mpmath.mpf(tower.c), mpmath.mpf(i), mpmath.mpf(eta)

        def beta(r):
            levels = mp_levels(r, c, tower.n)
            return 1 / (mpmath.fprod(levels[:-1]) * levels[-1] ** 2)

        tail = 1 / mp_levels(eta, c, tower.n)[-1]
        num = mpmath.quad(lambda v: mpmath.exp(-v / i) * beta(eta + v), [0, i, 10 * i, 100 * i, mpmath.inf])
        h = num / tail
        return float(h), float(h / i - beta(eta) / tail * (1 - h))


@pytest.mark.parametrize("i", [1.0, 64.0, 1024.0, 1e6])
@pytest.mark.parametrize("eta", [1e-3, 0.1, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_h_and_derivative_match_a_40_digit_reference(i, eta):
    h_ref, hp_ref = h_reference(i, eta)
    hs = HSequence(K1, i)
    # abs=0: H' falls to 6e-18 here, below approx's default abs floor
    assert hs.h_eval(eta) == pytest.approx(h_ref, rel=1e-11, abs=0.0)
    assert hs.h_derivative(eta) == pytest.approx(hp_ref, rel=1e-9, abs=0.0)


# the Blyth workload's kernel offset, and the depth-1 and depth-2 kernels
LAYER_TOWERS = [LogTower(1, 1.02), LogTower(1, math.e), LogTower(2, math.e**math.e)]


@pytest.mark.parametrize("tower", LAYER_TOWERS, ids=["c1.02", "n1", "n2"])
@pytest.mark.parametrize("i", [1024.0, 1e6, 1e8])
def test_h_inside_its_boundary_layer_matches_a_40_digit_reference(tower, i):
    # a large i puts a layer at t ~ 1/(3 i |(log beta)'(eta)|) in each row,
    # 3e-11 at i = 1e8 on the 1.02 kernel, where log(1 - t) would keep
    # only the digits of t that 1 - t does not round away
    hs = HSequence(BetaKernel(tower), i)
    for eta in (0.0, 1e-3, 0.1, 1e2):
        assert hs.h_eval(eta) == pytest.approx(h_reference(i, eta, tower)[0], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("tower", LAYER_TOWERS, ids=["c1.02", "n1", "n2"])
def test_h_rows_start_graded_at_their_boundary_layer(tower, monkeypatch):
    # rounds of the adaptive loop (one _gauss_pair call each) per scalar
    # h_eval or h_derivative: each converges in its first; bisecting down
    # to the layer from [0, 1/2] took up to 13 rounds at i = 1024 on n1
    # and 19 on c1.02, and a ratio-2 mesh, with one layer scale for the
    # beta and -beta' rows, up to 3
    rounds, real = [], numerics._gauss_pair

    def counted(f, lo, hi):
        rounds[-1] += 1
        return real(f, lo, hi)

    monkeypatch.setattr(numerics, "_gauss_pair", counted)
    kernel = BetaKernel(tower)
    for i in (1.0, 64.0, 1024.0, 1e6, 1e8):
        hs = HSequence(kernel, i)
        for eta in (0.0, 1e-3, 0.1, 1.0, 1e2, 1e4, 1e8):
            for call in (hs.h_eval, hs.h_derivative):
                rounds.append(0)
                assert 0.0 < abs(call(eta)) < math.inf
                assert rounds[-1] == 1, (i, eta, call.__name__, rounds[-1])


@pytest.mark.parametrize("c, i", [(math.e, 1e8), (1.02, 1e6), (1.02, 1e8)])
def test_h_mesh_reaches_the_layers_of_far_timescales(c, i, monkeypatch):
    # rounds of the adaptive loop for h_eval(0), whose layer scale s is
    # 3e-11 to 3e-9: a mesh that ended at 2^20 s left one wide piece
    # below t = 1/2, which took 9, 9 and 15 rounds
    rounds, real = [], numerics._gauss_pair
    monkeypatch.setattr(numerics, "_gauss_pair", lambda f, lo, hi: rounds.append(1) or real(f, lo, hi))
    assert 0.0 < HSequence(BetaKernel(LogTower(1, c)), i).h_eval(0.0) < 1.0
    assert len(rounds) == 1


def test_h_rows_converge_in_few_passes():
    # The map leaves (1-t)^2 in each row's integrand, which vanishes at
    # t = 1; with the weight absorbed whole (v = -i log(1-t)) the
    # integrand of beta decays only like 1/log^2 there and these 24 rows
    # (a beta and a -beta' row per h_derivative) took 221 passes.
    passes = []

    def counted(fn):
        def wrapped(r):
            passes.append(r.size)
            return fn(r)
        return wrapped

    kernel = BetaKernel(K1.tower)
    kernel.beta_eval, kernel.minus_beta_deriv = counted(kernel.beta_eval), counted(kernel.minus_beta_deriv)
    for i in (1.0, 64.0, 1024.0):
        hs = HSequence(kernel, i)
        for eta in (0.1, 1.0, 1e4, 1e8):
            hs.h_derivative(eta)
    assert len(passes) <= 120


# --- the iterated-log product at 40 digits -----------------------------

ETAS = [1e-6, 1e-3, 0.5, 3.0, 1e2, 1e5, 1e8, 1e12]


def mp_levels(eta, c, n):
    """[eta + c, Log_1(eta + c), ..., Log_n(eta + c)] in the current mpmath precision."""
    levels = [eta + c]
    for _ in range(n):
        levels.append(mpmath.log(levels[-1]))
    return levels


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_a_40_digit_reference(n):
    # the depth-4 kernel loses the most: Log_4(c) = 0.016 turns the last
    # bit of Log_3 into 6e-15 of Log_4, and beta holds Log_4 squared
    c = kernel_offset(n)
    kernel = BetaKernel(LogTower(n, c))
    with mpmath.workdps(40):
        def beta(x):
            levels = mp_levels(x, mpmath.mpf(c), n)
            return 1 / (mpmath.fprod(levels[:-1]) * levels[-1] ** 2)

        want = []
        for e in ETAS:
            x = mpmath.mpf(e)
            want.append((beta(x), mpmath.diff(beta, x), 1 / mp_levels(x, mpmath.mpf(c), n)[-1]))
    got = [(kernel.beta_eval(e), kernel.beta_deriv(e), kernel.beta_tail(e)) for e in ETAS]
    assert np.asarray(got) == pytest.approx(np.asarray(want, dtype=float), rel=5e-14, abs=0.0)


def test_a_log_product_takes_real_exponents():
    # the exponent 1.5 was truncated to 1, which read log 12 here
    assert rv_priors._LogProduct(2.0, (0, 1.5))(10.0)[0] == pytest.approx(math.log(12.0) ** 1.5, rel=1e-15)
    y = 12.0
    f, d1, d2 = rv_priors._LogProduct(2.0, (0.5, -1.5))(10.0, 2)
    assert f == pytest.approx(y**0.5 * math.log(y) ** -1.5, rel=1e-15)
    assert d1 == pytest.approx(0.5 / y - 1.5 / (y * math.log(y)), rel=1e-15)
    assert d2 == pytest.approx(-0.5 / y**2 + 1.5 * (1.0 + math.log(y)) / (y * math.log(y)) ** 2, rel=1e-15)


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
def test_a_log_product_refuses_an_exponent_that_is_not_finite(e):
    with pytest.raises(PriorError, match="log exponent must be finite"):
        rv_priors._LogProduct(2.0, (0, e))


@pytest.mark.parametrize("prior", [power_prior(-1.5, 3), log_thickened_prior(0, 2.0, 3)], ids=["power", "log_thickened"])
def test_far_out_values_raise_no_warning(prior):
    # the log-thickened G and eta G''/G' read nan at inf (0 * inf), and
    # G'' overflowed in eta**2 at 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prior.g_eval(math.inf) == 0.0
        assert prior.log_deriv(math.inf) == prior.k
        assert prior.second_log_deriv(math.inf) == prior.k - 1.0
        assert prior.second_log_deriv(1e300) == pytest.approx(prior.k - 1.0, abs=2e-3)
        assert 0.0 <= prior.g_deriv2(1e300) < 1e-300


@pytest.mark.parametrize("n,c", [(0, 2.0), (1, 16.0), (2, 1e6), (3, 1e7)])
@pytest.mark.parametrize("p", [3, 5])
def test_log_thickened_prior_matches_a_40_digit_reference(n, c, p):
    prior = log_thickened_prior(n, c, p)
    with mpmath.workdps(40):
        def g(x):
            return x ** (2 - p) * mpmath.fprod(mp_levels(x, mpmath.mpf(c), n + 1)[1:])

        want = []
        for e in ETAS:
            x = mpmath.mpf(e)
            g0, g1 = g(x), mpmath.diff(g, x)
            want.append((g0, g1, mpmath.diff(g, x, 2), x * g1 / g0))
    got = [(prior.g_eval(e), prior.g_deriv(e), prior.g_deriv2(e), prior.log_deriv(e)) for e in ETAS]
    assert np.asarray(got) == pytest.approx(np.asarray(want, dtype=float), rel=5e-14, abs=0.0)


# --- parity with the per-level formulas the product replaced -------------

# H_i, H_i' (kernel LogTower(1, e), rows eta = 0.1, 3, 100, 1e4), J(i)
# and the properness index of the benchmark's prior diagnostics, as rows
# graded at their boundary layer compute them, each J tail from the
# ratio-4 ladder; every H and H' pin here is within 9e-16 of the 40-digit
# reference, and every J pin within 1e-11 of a rel_tol 1e-11 J
H_PARITY = {
    1.0: (("0x1.839f910fc004bp-3", "0x1.3627cd3b4ba29p-4", "0x1.0fbbb13194d41p-9", "0x1.6c2897519aee5p-17"),
          ("-0x1.69f5883ff6324p-4", "-0x1.162715818b0b8p-6", "-0x1.96dabeb1487dap-16", "-0x1.4a9496ae216ecp-30")),
    32.0: (("0x1.4351ce5222e41p-1", "0x1.c20abfd9c4de2p-2", "0x1.92e796ee74488p-5", "0x1.6acb768f8180cp-12"),
           ("-0x1.b415d6379fe66p-4", "-0x1.5c004e36f12cbp-5", "-0x1.e3da2cba0e2f5p-12", "-0x1.4836423d6e6aep-25")),
    1024.0: (("0x1.a7d7900ff52a6p-1", "0x1.6d0721f704af4p-1", "0x1.27c817c3f3266p-2", "0x1.46c1ec129606ap-7"),
             ("-0x1.dc6b1b225a5a8p-5", "-0x1.cc481a8c9f724p-6", "-0x1.3ddfd007d2612p-10", "-0x1.0e82371675640p-20")),
}


def from_hex(values):
    return [float.fromhex(v) for v in values]


@pytest.mark.parametrize("i", sorted(H_PARITY))
def test_h_sequence_parity(i):
    hs = HSequence(K1, i)
    etas = np.array([0.1, 3.0, 100.0, 1e4])
    h, hp = H_PARITY[i]
    assert hs.h_eval(etas) == pytest.approx(from_hex(h), rel=1e-14, abs=0.0)
    assert hs.h_derivative(etas) == pytest.approx(from_hex(hp), rel=1e-14, abs=0.0)


def test_mixed_timescale_average_equals_single_timescale_calls():
    # H_1 numerators, H_32' parts and H_1024 numerators share one batch,
    # on overlapping runs of the H_PARITY etas
    etas = np.array([0.1, 3.0, 100.0, 1e4])
    (beta, slope, curve), tail = K1._layer(etas, 2)
    blocks = [(K1.beta_eval, 1.0, slice(None), slope), (K1.minus_beta_deriv, 32.0, slice(1, 4), slope + curve / slope),
              (K1.beta_eval, 1024.0, slice(0, 2), slope)]
    got = rv_priors._averages(etas, beta, blocks)
    # _avg's entry 2 is the average of beta, entry 3 that of -beta'
    for (_, i, at, _), part, k in zip(blocks, got, (2, 3, 2)):
        assert part.tolist() == HSequence(K1, i)._avg(etas[at], k == 3)[k].tolist()
    assert (got[0] / tail).tolist() == HSequence(K1, 1.0).h_eval(etas).tolist()


def test_blyth_and_properness_parity():
    js = blyth_decay(harmonic_prior(3), BetaKernel(LogTower(1, 1.02)), [64.0, 1024.0])
    assert js == pytest.approx(from_hex(("0x1.0f95264bf2842p-3", "0x1.b0750d7d8d944p-4")), rel=1e-14, abs=0.0)
    jg = blyth_decay(harmonic_prior(3, gamma=1.5), K1, [4.0])
    assert jg == pytest.approx(from_hex(("0x1.c655890ed0861p-4",)), rel=1e-14, abs=0.0)
    # each decade row starts from four log-even pieces; from one piece
    # per decade this was 0x1.abdda2eafdfddp-2, 2.5e-12 off the reference
    value = properness_index(harmonic_prior(3), K1).value
    assert value == pytest.approx(float.fromhex("0x1.abdda2eb02a28p-2"), rel=1e-14, abs=0.0)


def test_properness_matches_a_fine_reference():
    # reference: the same integrand from 32 log-even pieces per decade at
    # rel_tol 1e-13
    prior, h1 = harmonic_prior(3), HSequence(K1, 1.0)
    edges = 10.0 ** (np.arange(8)[:, None] + np.arange(33) / 32.0)
    ref = numerics.integrate_rows(lambda row, eta: eta**2.0 * prior.g_eval(eta) * h1.h_eval(eta) ** prior.gamma,
                                  edges, 1e-300, numerics.QuadratureSpec(abs_tol=1e-300, rel_tol=1e-13))
    assert properness_index(prior, K1).value == pytest.approx(float(ref.sum()), rel=1e-13, abs=0.0)


def test_decade_rows_start_graded(monkeypatch):
    # rounds of the adaptive loop (one _gauss_pair call each): from one
    # piece per decade properness took 10 and Brown 4
    rounds, real = [], numerics._gauss_pair

    def counted(f, lo, hi):
        rounds[-1] += 1
        return real(f, lo, hi)

    monkeypatch.setattr(numerics, "_gauss_pair", counted)
    rounds.append(0)
    assert properness_index(harmonic_prior(3), K1).verdict == "finite"
    assert rounds[-1] <= 4
    rounds.append(0)
    assert brown_diagnostic(harmonic_prior(3)).verdict == "diverges"
    assert rounds[-1] <= 2


class TestSlowVariationTrend:
    """Limits of the kernel itself hold, but only at 1/log eta speed."""

    def test_tail_ratio_tends_to_one(self):
        dev6 = abs(K1.beta_tail(2e6) / K1.beta_tail(1e6) - 1.0)
        dev12 = abs(K1.beta_tail(2e12) / K1.beta_tail(1e12) - 1.0)
        assert dev6 == pytest.approx(0.04777, abs=5e-4)
        assert dev12 < dev6 < 0.05
        dev6_deep = abs(K2.beta_tail(2e6) / K2.beta_tail(1e6) - 1.0)
        assert dev6_deep < 0.02

    def test_kernel_log_slope_tends_to_minus_one(self):
        devs = []
        for eta in (1e6, 1e9, 1e12):
            slope = eta * K1.beta_deriv(eta) / K1.beta_eval(eta)
            devs.append(abs(slope + 1.0))
        assert devs[0] == pytest.approx(0.1448, abs=2e-3)
        assert devs[0] > devs[1] > devs[2]

    def test_beta_over_tail_vanishes(self):
        vals = [eta * K1.beta_eval(eta) / K1.beta_tail(eta) for eta in (1e6, 1e12)]
        assert vals[0] == pytest.approx(0.0724, abs=1e-3)
        assert vals[1] < vals[0] < 0.08


class TestRadialPrior:
    def test_factory_guard(self):
        from sphereshrink.rv_priors import RadialPrior

        with pytest.raises(PriorError):
            RadialPrior("power", 3, {"k": -1.0})

    def test_power_eval_and_derivs(self):
        pri = power_prior(-1.5, 4)
        eta = np.array([0.5, 2.0, 7.0])
        assert pri.g_eval(eta) == pytest.approx(eta**-1.5)
        assert pri.log_deriv(3.0) == -1.5
        assert pri.second_log_deriv(3.0) == -2.5
        assert pri.rv_index == -1.5

    def test_harmonic_is_boundary_power(self):
        pri = harmonic_prior(5)
        assert pri.rv_index == -3.0
        assert pri.log_deriv(0.01) == -3.0

    def test_log_thickened_depth_count(self):
        # n = 0 carries one log factor
        pri = log_thickened_prior(0, 2.0, 3)
        assert pri.g_eval(1.0) == pytest.approx(math.log(3.0), rel=1e-14)
        assert pri.log_depth == 1
        pri2 = log_thickened_prior(1, 20.0, 3)
        want = (1 / 5.0) * math.log(25.0) * math.log(math.log(25.0))
        assert pri2.g_eval(5.0) == pytest.approx(want, rel=1e-14)

    def test_log_thickened_offset_validation(self):
        with pytest.raises(PriorError):
            log_thickened_prior(1, 2.0, 3)  # needs Log_2(c) > 0

    @pytest.mark.parametrize("n,c,p", [(0, 3.0, 3), (1, 17.0, 4)])
    def test_log_thickened_derivs_match_sympy(self, n, c, p):
        pri = log_thickened_prior(n, c, p)
        x = sympy.symbols("x", positive=True)
        expr = x ** (2 - p)
        inner = sympy.log(x + c)
        for _ in range(n + 1):
            expr = expr * inner
            inner = sympy.log(inner)
        d1 = sympy.diff(expr, x)
        d2 = sympy.diff(expr, x, 2)
        for eta in (0.6, 2.0, 55.0):
            assert pri.g_deriv(eta) == pytest.approx(float(d1.subs(x, eta)), rel=1e-9)
            assert pri.g_deriv2(eta) == pytest.approx(float(d2.subs(x, eta)), rel=1e-9)

    def test_custom_prior_roundtrip(self):
        p = 3
        pri = custom_prior(
            lambda e: np.asarray(e) ** (2.0 - p) * np.log(np.asarray(e) + 2.0),
            lambda e: (2.0 - p) * np.asarray(e) ** (1.0 - p) * np.log(np.asarray(e) + 2.0)
            + np.asarray(e) ** (2.0 - p) / (np.asarray(e) + 2.0),
            p,
        )
        eta = 4.0
        assert pri.g_eval(eta) == pytest.approx(math.log(6.0) / 4.0, rel=1e-14)
        with pytest.raises(PriorError):
            pri.g_deriv2(eta)
        assert abs(pri.estimated_rv_index() - (2.0 - p)) < 0.1

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_a_power_that_is_not_finite_is_refused(self, k):
        # power_prior(nan, 3) was accepted, and classify_prior then raised
        # NonFiniteIntegrand
        with pytest.raises(PriorError, match="power k must be finite"):
            power_prior(k, 3)

    def test_a_missing_power_is_refused_not_read_as_harmonic(self):
        with pytest.raises(PriorError, match="^power k must be finite, not None"):
            power_prior(None, 3)
        assert power_prior(2 - 3, 3).harmonic and power_prior(2 - 5, 5).harmonic

    def test_gamma_validation(self):
        with pytest.raises(PriorError):
            power_prior(-1.0, 3, gamma=0.0)
        with pytest.raises(PriorError):
            power_prior(-1.0, 3, gamma=2.5)

    def test_dimension_validation(self):
        with pytest.raises(PriorError):
            harmonic_prior(2)


class TestAssumptionAudit:
    def test_harmonic_profile_is_flat(self):
        prof = prior_assumption_audit(harmonic_prior(4))
        assert prof.t0 == prof.t1 == prof.t2 == -2.0
        assert prof.t3 == prof.t4 == -3.0
        assert prof.origin_ok
        assert prof.eta_low == 1.0

    def test_log_thickened_profile(self):
        prof = prior_assumption_audit(log_thickened_prior(0, 2.0, 3))
        assert prof.t0 == pytest.approx(-1.0, abs=1e-6)
        # slope -1 + eta/((eta+2)log(eta+2)) peaks near eta = 3.4 and
        # then drifts down toward -1
        assert prof.t2 == pytest.approx(-0.6266, abs=1e-3)
        assert prof.t1 == pytest.approx(-0.945713, abs=1e-3)
        assert prof.origin_ok

    def test_origin_violation_flagged(self):
        prof = prior_assumption_audit(power_prior(-3.0, 3))
        assert prof.t0 == -3.0
        assert not prof.origin_ok  # needs t0 > 1 - p = -2

    def test_custom_without_second_derivative(self):
        pri = custom_prior(lambda e: 1.0 / np.asarray(e), lambda e: -np.asarray(e) ** -2.0, 3)
        prof = prior_assumption_audit(pri)
        assert math.isnan(prof.t3) and math.isnan(prof.t4)
        assert prof.t1 == pytest.approx(-1.0, abs=1e-9)

    def test_cached_property(self):
        pri = harmonic_prior(3)
        assert isinstance(pri.assumption_profile, AssumptionProfile)
        assert pri.assumption_profile is pri.assumption_profile


def log_prior(p, squared=False):
    """eta^{2-p} log(eta+2) priors used by the growth fixtures."""
    power = 1 + int(squared)

    def g(e):
        e = np.asarray(e, dtype=float)
        return e ** (2.0 - p) * np.log(e + 2.0) ** power

    def gp(e):
        e = np.asarray(e, dtype=float)
        return (2.0 - p) * e ** (1.0 - p) * np.log(e + 2.0) ** power + e ** (
            2.0 - p
        ) * power * np.log(e + 2.0) ** (power - 1) / (e + 2.0)

    return custom_prior(g, gp, p)


class TestBrownDiagnostic:
    @pytest.mark.parametrize("p", [3, 5])
    def test_harmonic_diverges(self, p):
        rep = brown_diagnostic(harmonic_prior(p))
        assert rep.verdict == "diverges"
        assert rep.decay_exponent < 0.1
        # integrand is c_p / eta exactly, each decade contributes c_p ln 10
        from sphereshrink.numerics import sphere_surface

        assert rep.partials[0] == pytest.approx(sphere_surface(p) * math.log(10.0), rel=1e-9)

    @pytest.mark.parametrize("p", [3, 5])
    def test_single_log_diverges(self, p):
        rep = brown_diagnostic(log_prior(p))
        assert rep.verdict == "diverges"
        assert 0.9 < rep.decay_exponent < 1.25

    @pytest.mark.parametrize("p", [3, 5])
    def test_squared_log_converges(self, p):
        rep = brown_diagnostic(log_prior(p, squared=True))
        assert rep.verdict == "converges"
        assert 1.8 < rep.decay_exponent < 2.6

    def test_supercritical_power_converges(self):
        rep = brown_diagnostic(power_prior(2.0 - 3 + 0.3, 3))
        assert rep.verdict == "converges"
        assert 3.5 < rep.decay_exponent < 4.5

    def test_subcritical_power_diverges(self):
        rep = brown_diagnostic(power_prior(2.0 - 3 - 0.4, 3))
        assert rep.verdict == "diverges"


class TestProperness:
    def test_harmonic_smoothed_is_proper(self):
        rep = properness_index(harmonic_prior(3), K1)
        assert rep.verdict == "finite"
        assert rep.value == pytest.approx(0.417838, abs=5e-5)
        assert len(rep.growth.partials) == 8

    def test_thick_power_not_proper(self):
        rep = properness_index(power_prior(2.0 - 3 + 0.5, 3), K1)
        assert rep.verdict == "divergence-suspected"

    def test_small_gamma_not_proper(self):
        rep = properness_index(harmonic_prior(3, gamma=0.1), K1)
        assert rep.verdict == "divergence-suspected"

    def test_gamma_search_lands_on_two(self):
        assert select_gamma(harmonic_prior(3), K1, step=0.5) == 2.0

    def test_gamma_search_on_the_default_grid(self):
        # all eight steps 0.25, ..., 2: only gamma = 2 keeps it proper
        assert select_gamma(harmonic_prior(3), K1) == 2.0


# J(i) cases of ROADMAP direction 5 and the benchmark: the harmonic prior
# on the 1.02 kernel at i = 64 and 1024, on K1 at 1e4 and 1e6, and glued
# on at gamma = 1.5
BLYTH_CASES = [
    (harmonic_prior(3), LogTower(1, 1.02), 64.0),
    (harmonic_prior(3), LogTower(1, 1.02), 1024.0),
    (harmonic_prior(3), LogTower(1, math.e), 1e4),
    (harmonic_prior(3), LogTower(1, math.e), 1e6),
    (harmonic_prior(3, gamma=1.5), LogTower(1, math.e), 4.0),
]
BLYTH_IDS = ["c1.02-64", "c1.02-1024", "n1-1e4", "n1-1e6", "gamma1.5-4"]


class TestBlythDecay:
    def test_finite_and_eventually_decreasing(self):
        # the transition shoulder sweeps outward first; decay shows up
        # beyond the desk-scale timescales, so probe i = 64 and 1024
        kernel = BetaKernel(LogTower(1, 1.02))
        js = blyth_decay(harmonic_prior(3), kernel, [64, 1024])
        assert all(math.isfinite(j) and j > 0 for j in js)
        assert js[0] == pytest.approx(0.13261, abs=2e-3)
        assert js[1] == pytest.approx(0.10558, abs=2e-3)
        assert js[1] < js[0]

    def test_small_timescales_finite(self):
        js = blyth_decay(harmonic_prior(3), K1, [1, 4])
        assert js[0] == pytest.approx(0.0070358, rel=5e-3)
        assert js[1] == pytest.approx(0.0257586, rel=5e-3)

    def test_tiny_integrals_are_held_to_the_relative_tolerance(self, monkeypatch):
        # J(1) = 2.8e-16 here; an absolute tolerance of 1e-14 passed
        # 5.3e-24 after one segment per piece
        prior = log_thickened_prior(1, 100.0, 3)
        kernel = BetaKernel(LogTower(3, kernel_offset(3)))
        js = blyth_decay(prior, kernel, [1, 64])
        tight = rv_priors.QuadratureSpec(abs_tol=1e-280, rel_tol=1e-9, max_subdivisions=400)
        monkeypatch.setattr(rv_priors, "_BLYTH_SPEC", tight)
        assert js == pytest.approx(blyth_decay(prior, kernel, [1, 64]), rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("gamma", [2.0, 1.5])
    def test_a_j_alone_equals_the_same_j_in_a_batch(self, gamma):
        # gamma = 1.5 glues H_1 on, which at i = 1 shares its timescale
        prior = harmonic_prior(3, gamma=gamma)
        i_list = [1.0, 4.0, 64.0, 1024.0]
        batch = blyth_decay(prior, K1, i_list)
        assert batch == [blyth_decay(prior, K1, [i])[0] for i in i_list]
        assert blyth_decay(prior, K1, []) == []

    # an infinite i used to reach integrate_rows as NaN edges
    @pytest.mark.parametrize("i_list", [[0.0], [4.0, -1.0], [math.nan], [4.0, math.inf]])
    def test_a_timescale_that_is_not_positive_is_refused(self, i_list):
        with pytest.raises(PriorError, match="timescale i must be positive and finite"):
            blyth_decay(harmonic_prior(3), K1, i_list)

    @pytest.mark.parametrize("prior, tower, i", BLYTH_CASES, ids=BLYTH_IDS)
    def test_j_matches_a_tight_reference(self, prior, tower, i, monkeypatch):
        # each tail starts from the ratio-4 ladder; bisecting toward t = 1
        # from [0, 1] left J(1e4) off by 3.9e-7 and J(1e6) by 1.2e-7
        kernel = BetaKernel(tower)
        j = blyth_decay(prior, kernel, [i])[0]
        monkeypatch.setattr(rv_priors, "_BLYTH_SPEC", rv_priors.QuadratureSpec(
            abs_tol=1e-280, rel_tol=1e-11, max_subdivisions=2000))
        assert j == pytest.approx(blyth_decay(prior, kernel, [i])[0], rel=1e-8, abs=0.0)

    def test_tails_start_from_a_ladder_toward_infinity(self, monkeypatch):
        # rounds of the adaptive loops (one _gauss_pair call each, outer
        # and inner) per J(i): from the one tail piece [0, 1] they took
        # 25, 38, 25, 48 and 77, one factor of 2 in eta a round
        rounds, real = [], numerics._gauss_pair

        def counted(f, lo, hi):
            rounds[-1] += 1
            return real(f, lo, hi)

        monkeypatch.setattr(numerics, "_gauss_pair", counted)
        for (prior, tower, i), name in zip(BLYTH_CASES, BLYTH_IDS):
            rounds.append(0)
            blyth_decay(prior, BetaKernel(tower), [i])
            assert rounds[-1] <= 12, (name, rounds[-1])

    def test_an_exhausted_budget_names_its_j_and_piece(self, monkeypatch):
        monkeypatch.setattr(rv_priors, "_BLYTH_SPEC", rv_priors.QuadratureSpec(
            abs_tol=1e-280, rel_tol=1e-6, max_subdivisions=1))
        # the head's worst segment is interior: the gate fails
        with pytest.raises(ToleranceNotReached, match=r"^J\(64\.0\) head needed more than 1 subdivisions") as exc:
            blyth_decay(harmonic_prior(3), BetaKernel(LogTower(1, 1.02)), [64.0])
        assert exc.value.row == 0
        # the tail is slow, not divergent: from its ladder it meets 1e-6
        # with one bisection, and at 1e-10 its worst segment is the ladder
        # piece [0.75, 0.9375], far from t = 1
        monkeypatch.setattr(rv_priors, "_BLYTH_SPEC", rv_priors.QuadratureSpec(
            abs_tol=1e-280, rel_tol=1e-10, max_subdivisions=1))
        with pytest.raises(ToleranceNotReached, match=r"^J\(1\.0\) tail needed more than 1 subdivisions") as exc:
            blyth_decay(harmonic_prior(3), K1, [1.0, 4.0])
        assert exc.value.row == 1 and exc.value.worst_segment == (0.75, 0.9375)

    def test_a_divergent_tail_is_refused_by_the_probe(self, monkeypatch):
        # J's tail integrand in v grows like e^{(p+k-4)v}: k = 2 > 4 - p
        calls, real = [], rv_priors._averages

        def averages(etas, scale, blocks):
            calls.append(etas.size)
            return real(etas, scale, blocks)

        monkeypatch.setattr(rv_priors, "_averages", averages)
        with pytest.raises(DivergenceSuspected, match=r"^J\(4\.0\) tail does not look integrable"):
            blyth_decay(power_prior(2.0, 3), K1, [4.0])
        assert calls == [3]  # only the probe's outer call ran, on its three nodes


class TestClassification:
    def test_harmonic_gaussian_certified(self):
        out = classify_prior(harmonic_prior(5), gaussian(5))
        assert out.verdict == "admissible_certified"
        assert out.brown.verdict == "diverges"
        assert out.fg1_ok

    def test_default_model_is_gaussian(self):
        out = classify_prior(harmonic_prior(3))
        assert out.verdict == "admissible_certified"

    def test_interior_power_certified(self):
        out = classify_prior(power_prior(-1.5, 3), gaussian(3))
        assert out.verdict == "admissible_certified"

    @pytest.mark.parametrize("c", [2.0, 1e3, 1e8, 1e20])
    def test_log_thickened_certified(self, c):
        # the offset sets only a constant multiple of G over the boundary;
        # a max of that ratio on [1, 1e8] left c = 1e8 and 1e20 uncertified
        out = classify_prior(log_thickened_prior(0, c, 3), gaussian(3))
        assert out.verdict == "admissible_certified"

    def test_squared_log_inadmissible(self):
        out = classify_prior(log_prior(3, squared=True), gaussian(3))
        assert out.verdict == "inadmissible_certified"

    def test_supercritical_power_inadmissible(self):
        # k > 2-p makes the Brown integral converge; the growth fit sees
        # it clearly, so this is certified rather than left open
        out = classify_prior(power_prior(-0.7, 3), gaussian(3))
        assert out.verdict == "inadmissible_certified"

    def test_log_thickened_certified_at_depth_two(self):
        out = classify_prior(log_thickened_prior(2, 1e6, 3), gaussian(3))
        assert out.verdict == "admissible_certified"

    def test_no_boundary_kernel_of_depth_five(self):
        # the prior's four log factors ask for a depth-5 boundary kernel
        with pytest.raises(PriorError, match="Log_5"):
            classify_prior(log_thickened_prior(3, 1e7, 3), gaussian(3))

    def test_depth_five_refusal_names_the_prior_not_an_offset(self):
        # the refusal comes from the kernel depth the prior asks for, not
        # from a tower built at an offset the caller never gave
        with pytest.raises(PriorError) as info:
            classify_prior(log_thickened_prior(3, 1e7, 3), gaussian(3))
        msg = str(info.value)
        assert "the prior's log depth 4 asks for a boundary kernel of depth 5" in msg
        assert "no double supports" in msg
        assert "15257116" not in msg

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_boundary_closed_form_matches_the_kernel(self, depth):
        # eta^{2-p} Tail^2 / (eta beta) of the depth-`depth` kernel is
        # eta^{1-p} times the boundary of a prior with depth - 1 logs,
        # the product with exponents (1, ..., 1)
        p, c = 3, 2.0 * kernel_offset(depth - 1)
        boundary = rv_priors._coded_boundary(depth - 1)
        assert (boundary.c, boundary.exponents) == (c, (1.0,) * depth)
        kernel = BetaKernel(LogTower(depth, c))
        grid = np.geomspace(1.0, 1e8, 200)
        want = grid ** (2.0 - p) * kernel.beta_tail(grid) ** 2 / (grid * kernel.beta_eval(grid))
        assert grid ** (1.0 - p) * boundary(grid)[0] == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("exponents,bounded", [
        ((0.9,), True), ((1.0,), True), ((1.1,), False), ((1.5,), False),
        ((1.0, 0.0), True), ((2.0,), False), ((0.0, 5.0), True), ((1.0, 1.5), False)])
    def test_the_first_exponent_off_the_boundary_decides(self, exponents, bounded):
        # eta^{2-p} prod_j Log_j^{e_j} is certified exactly when the first
        # nonzero of e - (1, ..., 1) is negative or all are zero
        prior = rv_priors._Declared("log_power", 3, 2.0, 2.0 - 3, c=20.0, exponents=exponents)
        assert (classify_prior(prior, gaussian(3)).verdict == "admissible_certified") == bounded

    @pytest.mark.parametrize("p", [3, 5])
    def test_fg1_holds_exactly_for_power_indices_above_one_minus_p(self, p):
        # int g f lambda^{p-1} converges at 0 for k > -p, int g F lambda^{p-2} for k > 1 - p
        for k in (-p - 1.0, -float(p), 1.0 - p, 1.25 - p, -1.5, 0.0, 3.0):
            assert classify_prior(power_prior(k, p), gaussian(p)).fg1_ok == (k > 1 - p), k

    def test_a_prior_whose_tail_kernel_marginal_diverges_is_not_certified(self):
        # power(-2.5) in p = 3 lies inside (-p, 2-p), but int r^{-1.5} F diverges at 0
        out = classify_prior(power_prior(-2.5, 3), gaussian(3))
        assert not out.fg1_ok
        assert out.verdict != "admissible_certified"

    def test_fg1_fails_where_the_tail_kernel_does_not_exist(self):
        # f ~ r^-4.5 in p = 3: E||X||^2 diverges, so F/C_f is no kernel
        r = np.geomspace(0.1, 1000.0, 200)
        out = classify_prior(harmonic_prior(3), tabulated(r, r**-4.5, 3))
        assert not out.fg1_ok and out.verdict == "uncertified"

    def test_nonintegrable_power_uncertified(self):
        out = classify_prior(power_prior(-3.0, 3), gaussian(3))
        assert out.verdict == "uncertified"
