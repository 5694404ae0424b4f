"""Expansion kinematics, accumulated decoherence, and the CET/CED solvers."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macrocoh import (DecoherenceSpec, ExpansionKinematics,
                      InfiniteCoherenceError, ced, cet_closed_form, gamma,
                      sigma, solve_cet, visibility_factor)
from macrocoh.expansion import (TAU_CAP, ced_or_inf, cet_or_inf,
                                gamma_quadrature)
from macrocoh.numerics import QuadratureError, piecewise, quad_checked

BASE_KIN = ExpansionKinematics(x0=3.5335810589322331e-12,
                               v_m=2.2202144591211091e-06)
BASE_SPEC = DecoherenceSpec(quadratic_lambda=3.4759328117255e15,
                            constant_rate=3.35234550047738e-2)


# ------------------------------------------------------------------ sigma

def test_sigma_limits():
    kin = ExpansionKinematics(x0=3.0, v_m=4.0)
    assert sigma(0.0, kin) == 3.0
    assert sigma(1.0, kin) == pytest.approx(5.0, rel=1e-15)
    t = 100.0 * kin.x0 / kin.v_m
    assert sigma(t, kin) == pytest.approx(kin.v_m * t, rel=1e-4)
    with pytest.raises(ValueError):
        sigma(-1.0, kin)


# ------------------------------------------------------------------ gamma

def test_gamma_zero_time():
    assert gamma(0.0, BASE_SPEC, BASE_KIN) == 0.0


def test_gamma_pure_constant_rate():
    spec = DecoherenceSpec(constant_rate=7.5)
    kin = ExpansionKinematics(x0=1.0, v_m=1.0)
    assert gamma(2.0, spec, kin) == pytest.approx(15.0, rel=1e-15)


def test_gamma_pure_quadratic_abstract_units():
    spec = DecoherenceSpec(quadratic_lambda=1.0)
    kin = ExpansionKinematics(x0=1.0, v_m=1.0)
    assert gamma(1.0, spec, kin) == pytest.approx(16.0 / 3.0, rel=1e-15)


def test_gamma_closed_form_matches_quadrature():
    # dual route: the exact closed form against the all-numeric integral
    for lam, const in ((1e15, 0.0), (0.0, 2.0), (3.2e12, 0.05), (1e3, 1e-6)):
        spec = DecoherenceSpec(quadratic_lambda=lam, constant_rate=const)
        for tau in (1e-4, 0.02, 3.0):
            assert gamma_quadrature(tau, spec, BASE_KIN) == pytest.approx(
                gamma(tau, spec, BASE_KIN), rel=1e-6)


def test_gamma_monotone_in_time():
    taus = [1e-6 * 4**k for k in range(12)]
    values = [gamma(t, BASE_SPEC, BASE_KIN) for t in taus]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_gamma_general_component_via_quadrature():
    # general law identical to a quadratic one must integrate to the same
    # value as the closed form; the closed forms refuse a general component
    lam = 2.5e14
    quad_spec = DecoherenceSpec(quadratic_lambda=lam)
    gen_spec = DecoherenceSpec(general_rate=lambda dx: lam * dx * dx)
    for tau in (1e-3, 0.05):
        assert gamma_quadrature(tau, gen_spec, BASE_KIN) == pytest.approx(
            gamma(tau, quad_spec, BASE_KIN), rel=1e-8)
    for closed_form in (lambda s: gamma(1e-3, s, BASE_KIN),
                        lambda s: cet_closed_form(s, BASE_KIN),
                        lambda s: solve_cet(s, BASE_KIN)):
        with pytest.raises(ValueError):
            closed_form(gen_spec)


def test_dp_style_general_law_quadratic_fast_path():
    # while 2 sigma(t) stays below the kink, the saturated law is purely
    # quadratic and its exposure must match the unsaturated closed form
    kink = 1e-6
    lam = 4.47e10
    piecewise = DecoherenceSpec(quadratic_lambda=lam, saturation_separation=kink)
    quadratic = DecoherenceSpec(quadratic_lambda=lam)
    tau_small = 0.9 * (0.5 * kink) / BASE_KIN.v_m  # 2 sigma(tau) < kink
    assert 2.0 * sigma(tau_small, BASE_KIN) < kink
    assert gamma(tau_small, piecewise, BASE_KIN) == \
        gamma(tau_small, quadratic, BASE_KIN)
    # well beyond the kink the saturated exposure falls below the quadratic
    # one, and equals the quadrature of the same law given as a general rate
    tau_large = 100.0 * kink / BASE_KIN.v_m
    assert gamma(tau_large, piecewise, BASE_KIN) < \
        gamma(tau_large, quadratic, BASE_KIN)
    general = DecoherenceSpec(
        general_rate=lambda dx: lam * (dx * dx if dx < kink else kink * kink),
        general_breakpoints=(kink,))
    for tau in (tau_small, tau_large):
        assert gamma_quadrature(tau, general, BASE_KIN) == pytest.approx(
            gamma(tau, piecewise, BASE_KIN), rel=1e-8)


def test_spec_validation():
    with pytest.raises(ValueError):
        DecoherenceSpec(quadratic_lambda=-1.0)
    with pytest.raises(ValueError):
        DecoherenceSpec(constant_rate=-0.5)
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError):
            DecoherenceSpec(quadratic_lambda=1.0, saturation_separation=bad)
    assert DecoherenceSpec().is_null
    assert DecoherenceSpec(saturation_separation=1e-9).is_null
    assert not DecoherenceSpec(constant_rate=1.0).is_null
    spec = DecoherenceSpec(quadratic_lambda=2.0, constant_rate=0.5,
                           saturation_separation=3.0)
    assert spec.rate(1.0) == 2.5
    assert spec.rate(3.0) == spec.rate(30.0) == 18.5


# ------------------------------------------------------------------ solver

def test_cet_constant_rate_inversion():
    spec = DecoherenceSpec(constant_rate=8.0)
    assert solve_cet(spec, BASE_KIN) == pytest.approx(1.0 / 32.0, rel=1e-10)
    assert cet_closed_form(spec, BASE_KIN) == pytest.approx(1.0 / 32.0, rel=1e-15)


def test_cet_cubic_dominant_regime():
    # with a negligible ground-state width the cubic term rules:
    # CET = (3 / (16 v_m^2 Lambda))^(1/3)
    kin = ExpansionKinematics(x0=1e-20, v_m=2.22e-6)
    lam = 3.5e15
    expected = (3.0 / (16.0 * kin.v_m**2 * lam)) ** (1.0 / 3.0)
    spec = DecoherenceSpec(quadratic_lambda=lam)
    assert solve_cet(spec, kin) == pytest.approx(expected, rel=1e-6)


def test_cet_baseline_value():
    # frozen from a 40-digit root of the quartic-free cubic 4*Gamma = 1
    assert solve_cet(BASE_SPEC, BASE_KIN) == pytest.approx(
        2.21793505125815e-2, rel=1e-9)
    assert cet_closed_form(BASE_SPEC, BASE_KIN) == pytest.approx(
        2.21793505125815e-2, rel=1e-12)


def test_cet_residual_and_quadrature_agreement():
    for lam, const in ((1e16, 0.0), (3.48e15, 0.0335), (1e5, 1e-3), (0.0, 0.25)):
        spec = DecoherenceSpec(quadratic_lambda=lam, constant_rate=const)
        tau = solve_cet(spec, BASE_KIN)
        assert abs(4.0 * gamma(tau, spec, BASE_KIN) - 1.0) <= 1e-9
        assert 4.0 * gamma_quadrature(tau, spec, BASE_KIN) == pytest.approx(
            1.0, rel=1e-8)


def test_cet_closed_form_accurate_in_every_regime():
    # 4 Gamma = A tau^3 + B tau is near-linear in tau at the root when B
    # dominates; the root must keep full precision there too
    rng = random.Random(11)
    kin = ExpansionKinematics(x0=1.0, v_m=1.0)
    for _ in range(500):
        spec = DecoherenceSpec(quadratic_lambda=10.0 ** rng.uniform(-30, 30),
                               constant_rate=10.0 ** rng.uniform(-30, 30))
        tau = cet_closed_form(spec, kin)
        assert abs(4.0 * gamma(tau, spec, kin) - 1.0) <= 1e-14


def test_cet_constant_rate_in_the_former_bracketing_window():
    # a root in (1e-12 * 2^69, TAU_CAP] s used to be reported as infinite
    spec = DecoherenceSpec(constant_rate=1.0 / (4.0 * 7e8))
    assert solve_cet(spec, BASE_KIN) == pytest.approx(7.0e8, rel=1e-15)


def test_cet_cap_boundary():
    just_below = DecoherenceSpec(constant_rate=1.0 / (4.0 * TAU_CAP * (1.0 - 1e-9)))
    assert solve_cet(just_below, BASE_KIN) <= TAU_CAP
    just_above = DecoherenceSpec(constant_rate=1.0 / (4.0 * TAU_CAP * (1.0 + 1e-9)))
    assert cet_closed_form(just_above, BASE_KIN) > TAU_CAP
    with pytest.raises(InfiniteCoherenceError):
        solve_cet(just_above, BASE_KIN)


def test_cet_tiny_root_is_a_root():
    # a root below 1e-300 s used to come back as a non-root from a walk-down
    spec = DecoherenceSpec(constant_rate=1e300)
    kin = ExpansionKinematics(x0=1e-12, v_m=1e-6)
    tau = solve_cet(spec, kin)
    assert tau == pytest.approx(2.5e-301, rel=1e-15)
    assert 4.0 * gamma(tau, spec, kin) == pytest.approx(1.0, rel=1e-15)


def test_cet_where_cardano_sum_overflows():
    # A = 1 and B = 8.7e-206 give a finite Cardano w ~ 1.0e308 whose
    # w + hypot(1, w) overflows; the CET used to come back as 0
    spec = DecoherenceSpec(quadratic_lambda=3.0 / 16.0)
    kin = ExpansionKinematics(x0=math.sqrt(8.7e-206 / 3.0), v_m=1.0)
    tau = solve_cet(spec, kin)
    assert tau == pytest.approx(1.0, rel=1e-12)
    assert 4.0 * gamma(tau, spec, kin) == pytest.approx(1.0, rel=1e-12)
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        column = cet_or_inf(DecoherenceSpec(np.array([3.0 / 16.0] * 2)),
                            ExpansionKinematics(np.array([kin.x0] * 2),
                                                np.array([1.0, 1.0])))
    assert column.tolist() == [tau, tau]


def test_cet_infinite_signals():
    with pytest.raises(InfiniteCoherenceError):
        solve_cet(DecoherenceSpec(), BASE_KIN)
    with pytest.raises(InfiniteCoherenceError):
        cet_closed_form(DecoherenceSpec(), BASE_KIN)
    # nonzero but hopelessly weak decoherence: threshold beyond the time cap
    feeble = DecoherenceSpec(constant_rate=1e-12)
    with pytest.raises(InfiniteCoherenceError):
        solve_cet(feeble, BASE_KIN)
    # coefficients so small that the cubic or saturated terms underflow
    for underflow in (DecoherenceSpec(quadratic_lambda=1e-320),
                      DecoherenceSpec(quadratic_lambda=1e-310,
                                      saturation_separation=1e-11)):
        with pytest.raises(InfiniteCoherenceError):
            solve_cet(underflow, BASE_KIN)
    # a saturated law with nothing to saturate never decoheres either
    silent = DecoherenceSpec(saturation_separation=1e-9)
    with pytest.raises(InfiniteCoherenceError):
        solve_cet(silent, BASE_KIN)
    assert gamma(1e3, silent, BASE_KIN) == 0.0


def test_cet_shrinks_with_more_decoherence():
    for spec in (BASE_SPEC, DecoherenceSpec(constant_rate=2.0),
                 DecoherenceSpec(quadratic_lambda=1e10)):
        doubled = DecoherenceSpec(
            quadratic_lambda=2.0 * spec.quadratic_lambda,
            constant_rate=2.0 * spec.constant_rate)
        assert solve_cet(doubled, BASE_KIN) < solve_cet(spec, BASE_KIN)


def test_ced_baseline_and_scaling():
    assert ced(BASE_SPEC, BASE_KIN) == pytest.approx(4.92429147019487e-8, rel=1e-9)
    # cubic regime: doubling Lambda shortens the distance by 2^(1/3)
    kin = ExpansionKinematics(x0=1e-20, v_m=2.22e-6)
    d1 = ced(DecoherenceSpec(quadratic_lambda=1e15), kin)
    d2 = ced(DecoherenceSpec(quadratic_lambda=2e15), kin)
    assert d1 / d2 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-6)


# -------------------------------------------------------------- visibility

def test_visibility_factors():
    assert visibility_factor(0.0) == (1.0, 1.0)
    amp, vis = visibility_factor(math.log(2.0) / 4.0)
    assert vis == pytest.approx(0.5, rel=1e-12)
    assert amp == pytest.approx(math.sqrt(0.5), rel=1e-12)
    tau = solve_cet(BASE_SPEC, BASE_KIN)
    _, vis_at_cet = visibility_factor(gamma(tau, BASE_SPEC, BASE_KIN))
    assert vis_at_cet == pytest.approx(math.exp(-1.0), rel=1e-9)
    with pytest.raises(ValueError):
        visibility_factor(-0.1)


# ----------------------------------------------------------- numeric tools

def test_quad_checked_reports_failure_with_error_estimate():
    with pytest.raises(QuadratureError) as err:
        # far too few subdivisions for an integrable endpoint singularity
        quad_checked(lambda x: x**-0.9, 0.0, 1.0, epsrel=1e-12, limit=2)
    assert err.value.error_estimate is not None


def test_cet_closed_form_cubic_root_basic():
    # x0 = v_m = 1 and Lambda = 3/32 give 4 Gamma = tau^3 / 2 + 3 tau / 2,
    # so the CET is the real root of tau^3 + 3 tau - 2 = 0
    spec = DecoherenceSpec(quadratic_lambda=3.0 / 32.0)
    kin = ExpansionKinematics(x0=1.0, v_m=1.0)
    root = (1.0 + math.sqrt(2.0)) ** (1.0 / 3.0) - (math.sqrt(2.0) - 1.0) ** (1.0 / 3.0)
    assert cet_closed_form(spec, kin) == pytest.approx(root, rel=1e-12)
    # without a ground-state width the root of the pure cubic is a cube root
    narrow = ExpansionKinematics(x0=1e-200, v_m=1.0)
    assert cet_closed_form(spec, narrow) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


# ------------------------------------------------------- saturated laws

def random_saturated_case(rng):
    """A saturated law and kinematics; b spans b/2 <= x0 up to b >> x0."""
    kin = ExpansionKinematics(x0=10.0 ** rng.uniform(-13, -10),
                              v_m=10.0 ** rng.uniform(-9, -5))
    spec = DecoherenceSpec(
        quadratic_lambda=10.0 ** rng.uniform(8, 22),
        constant_rate=rng.choice([0.0, 10.0 ** rng.uniform(-6, 0)]),
        saturation_separation=2.0 * kin.x0 * 10.0 ** rng.uniform(-0.5, 4))
    return spec, kin


def saturation_time(spec, kin):
    half = 0.5 * spec.saturation_separation
    return math.sqrt(max(half**2 - kin.x0**2, 0.0)) / kin.v_m


def as_general(spec):
    """The same law as a general rate, integrated only by the quadrature."""
    lam, b = spec.quadratic_lambda, spec.saturation_separation
    return DecoherenceSpec(constant_rate=spec.constant_rate,
                           general_rate=lambda dx: lam * min(dx, b) ** 2,
                           general_breakpoints=(b,))


def test_saturated_closed_form_matches_quadrature_oracle():
    rng = random.Random(20261018)
    cases = {"constant from the start": 0, "root on the cubic": 0,
             "root on the linear tail": 0}
    for _ in range(60):
        spec, kin = random_saturated_case(rng)
        t_b = saturation_time(spec, kin)
        tau = cet_closed_form(spec, kin)
        if t_b == 0.0:
            cases["constant from the start"] += 1
        elif tau <= t_b:
            cases["root on the cubic"] += 1
        else:
            cases["root on the linear tail"] += 1
        oracle = as_general(spec)
        assert 4.0 * gamma_quadrature(tau, oracle, kin) == pytest.approx(
            1.0, rel=1e-7)
        for t in (0.3 * tau, 3.0 * tau, 0.5 * t_b, 2.0 * t_b):
            if t > 0.0:
                assert gamma(t, spec, kin) == pytest.approx(
                    gamma_quadrature(t, oracle, kin), rel=1e-7)
    assert min(cases.values()) >= 5, cases


def test_saturated_gamma_continuous_at_saturation_and_increasing():
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        spec, kin = random_saturated_case(rng)
        t_b = saturation_time(spec, kin)
        if t_b == 0.0:
            continue
        checked += 1
        at = gamma(t_b, spec, kin)
        # the rate is continuous at t_b, so Gamma is smooth to first order
        slope = spec.rate(spec.saturation_separation)
        for eps in (1e-9, 1e-6):
            below = gamma(t_b * (1.0 - eps), spec, kin)
            above = gamma(t_b * (1.0 + eps), spec, kin)
            assert below < at < above
            assert (at - below) == pytest.approx(slope * t_b * eps, rel=1e-3)
            assert (above - at) == pytest.approx(slope * t_b * eps, rel=1e-3)
        taus = [t_b * 2.0 ** k for k in range(-20, 21)]
        values = [gamma(t, spec, kin) for t in taus]
        assert all(a < b for a, b in zip(values, values[1:]))
    assert checked >= 50


# ------------------------------------------------------ column solves

def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# (Lambda, F_c, b, x0, v_m); Lambda and F_c reach values whose products
# underflow, b falls on either side of 2 x0
LAWS = st.tuples(st.one_of(st.just(0.0), _decades(-330.0, 25.0)),
                 st.one_of(st.just(0.0), _decades(-330.0, 5.0)),
                 st.one_of(st.just(math.inf), _decades(-14.0, -4.0)),
                 _decades(-13.0, -9.0),
                 _decades(-10.0, -2.0))

NAMED_CASES = [
    (3.4759328117255e15, 3.35e-2, math.inf, 3.5e-12, 2.2e-6),  # cubic
    (1e15, 0.0, 2e-10, 3.5e-12, 2.2e-6),       # cubic, then linear past t_b
    (1e15, 1e-3, 1e-12, 3.5e-12, 2.2e-6),      # b/2 <= x0: constant rate
    (1e-300, 0.0, math.inf, 1e-12, 1e-8),      # B underflows, A subnormal
    (1e-320, 0.0, math.inf, 1e-12, 1e-8),      # both coefficients underflow
    (1e-320, 0.0, 2e-10, 1e-12, 1e-8),         # saturated rate underflows
    (0.0, 1.0 / (4.0 * 7e8), math.inf, 1e-12, 1e-6),  # CET 7e8 s < TAU_CAP
    (0.0, 1.0 / (4.0 * 2e9), math.inf, 1e-12, 1e-6),  # CET 2e9 s > TAU_CAP
    (0.0, 0.0, math.inf, 1e-12, 1e-6),         # null law
    (0.0, 0.0, 2e-10, 1e-12, 1e-6),            # null saturated law
    (1e10, 0.0, math.inf, 1e-160, 1e-5),       # w overflows: pure cube root
    (3.0 / 16.0, 0.0, math.inf, math.sqrt(8.7e-206 / 3.0), 1.0),  # w + hypot overflows
]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_columns_match_scalars(laws):
    lam, f_c, b, x0, v_m = (np.array(column) for column in zip(*laws))
    spec = DecoherenceSpec(lam, f_c, b)
    kin = ExpansionKinematics(x0, v_m)
    with np.errstate(all="ignore"):
        cets = cet_or_inf(spec, kin)
        ceds = ced_or_inf(spec, kin)
    for law, cet_column, ced_column in zip(laws, cets.tolist(), ceds.tolist()):
        one_spec = DecoherenceSpec(*law[:3])
        one_kin = ExpansionKinematics(*law[3:])
        try:
            cet_one = solve_cet(one_spec, one_kin)
            ced_one = ced(one_spec, one_kin)
        except InfiniteCoherenceError:
            cet_one = ced_one = math.inf
        assert _same(cet_column, cet_one), law
        assert _same(ced_column, ced_one), law


@given(st.lists(LAWS, min_size=1, max_size=25))
@example(NAMED_CASES)
def test_column_cet_equals_scalar_solve_bit_for_bit(laws):
    _assert_columns_match_scalars(laws)


def test_column_cet_equals_scalar_where_both_cubic_terms_matter():
    # Cardano's w is near 1 here, where a numpy hypot differs from
    # Python's in the last bit often enough to move a few roots
    laws = [(1.78e12 * 10.0 ** (k / 600.0), 1.0, math.inf, 1e-12, 1e-6)
            for k in range(-1800, 1800)]
    _assert_columns_match_scalars(laws)


# The CET of each NAMED_CASES law, by repr.  The column-versus-scalar tests
# cannot see a change that moves both paths alike; these pins can.
NAMED_CETS = ["0.02231488501848139", "6250.0000302473645", "249.99975000025003",
              "inf", "inf", "inf", "700000000.0", "inf", "inf", "inf",
              "0.5723571212766659", "1.0"]


def test_named_cases_keep_their_cet():
    scalars = [cet_or_inf(DecoherenceSpec(*law[:3]), ExpansionKinematics(*law[3:]))
               for law in NAMED_CASES]
    assert list(map(repr, scalars)) == NAMED_CETS
    lam, f_c, b, x0, v_m = (np.array(column) for column in zip(*NAMED_CASES))
    with np.errstate(all="ignore"):
        column = cet_or_inf(DecoherenceSpec(lam, f_c, b),
                            ExpansionKinematics(x0, v_m))
    assert list(map(repr, column.tolist())) == NAMED_CETS


def test_piecewise_runs_each_branch_on_its_own_elements():
    x = np.array([0.0, 1.0, 4.0])
    seen = []

    def inverse(values):
        seen.append(values.tolist())
        return 1.0 / values

    with np.errstate(divide="raise"):
        out = piecewise(x > 0.0, (x,), inverse, lambda values: math.inf)
    assert out.tolist() == [math.inf, 1.0, 0.25]
    assert seen == [[1.0, 4.0]]
    assert piecewise(0.0 > 0.0, (0.0,), inverse, lambda value: -1.0) == -1.0
    # a scalar condition takes a computed value as a branch too
    assert piecewise(0.0 > 0.0, (0.0,), inverse, -1.0) == -1.0
    assert piecewise(2.0 > 0.0, (2.0,), 0.5, inverse) == 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: ExpansionKinematics(x0=0.0, v_m=1.0), "x0 and v_m must be positive"),
    (lambda: ExpansionKinematics(x0=np.array([1e-12, -1e-12]), v_m=1.0),
     "x0 and v_m must be positive"),
    (lambda: gamma(-1.0, BASE_SPEC, BASE_KIN),
     "expansion time must be non-negative"),
], ids=["x0", "x0-column", "tau"])
def test_range_checks_name_the_bad_quantity(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
