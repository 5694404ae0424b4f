"""Properties of the decoherence laws over randomly drawn inputs.

The laws Lambda min(dx, b)^2 + F_c are drawn from these ranges (decades
uniform): Lambda 1e0..1e25 1/(m^2 s); F_c 0 or 1e-6..1e3 1/s; b infinite or
1e-13..1e-3 m, so that b/2 falls below the ground-state width as well as far
above it; x0 1e-13..1e-9 m; v_m 1e-9..1e-4 m/s; expansion times 1e-6..1e9 s.
Spheres for the DP and saturated-K laws have radii 1e-9..1e-5 m and densities
500..25000 kg/m^3, with the permittivities of the shipped baseline.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from macrocoh import (DecoherenceSpec, ExpansionKinematics, cet_closed_form,
                      dp_rate, gamma, scenario_kinematics)
from macrocoh.config import replace
from macrocoh.testability import (MODEL_PRESETS, model_decoherence_spec,
                                  scenario_presets)

BASELINE = scenario_presets()["fig2_baseline"]


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


LAMBDA = decades(0.0, 25.0)
CONSTANT = st.one_of(st.just(0.0), decades(-6.0, 3.0))
SATURATION = decades(-13.0, -3.0)
KINEMATICS = st.builds(ExpansionKinematics, x0=decades(-13.0, -9.0),
                       v_m=decades(-9.0, -4.0))
LAWS = st.builds(DecoherenceSpec, quadratic_lambda=LAMBDA,
                 constant_rate=CONSTANT,
                 saturation_separation=st.one_of(st.just(math.inf),
                                                 SATURATION))
SATURATED_LAWS = st.builds(DecoherenceSpec, quadratic_lambda=LAMBDA,
                           constant_rate=CONSTANT,
                           saturation_separation=SATURATION)
SPHERES = st.builds(lambda radius, density: replace(
    BASELINE.particle, radius=radius, density=density),
    decades(-9.0, -5.0), st.floats(500.0, 25000.0))


@given(LAWS, KINEMATICS, decades(-6.0, 9.0), decades(-6.0, 3.0))
def test_gamma_increases_strictly(spec, kin, tau, step):
    later = tau * (1.0 + step)
    assert gamma(later, spec, kin) > gamma(tau, spec, kin) > 0.0


@given(SATURATED_LAWS, KINEMATICS)
def test_saturated_cet_is_a_root(spec, kin):
    tau = cet_closed_form(spec, kin)
    assert math.isfinite(tau) and tau > 0.0
    assert abs(4.0 * gamma(tau, spec, kin) - 1.0) <= 1e-12


@given(SPHERES, st.sampled_from(["dp", "k_sat"]))
def test_dp_and_k_sat_continuous_at_saturation(particle, name):
    spec = model_decoherence_spec(MODEL_PRESETS[name], particle)
    b = spec.saturation_separation
    at = spec.rate(b)
    assert at > 0.0 and math.isfinite(at)
    eps = 1e-12
    for near in (b * (1.0 - eps), b * (1.0 + eps)):
        assert abs(spec.rate(near) - at) <= 3.0 * eps * at
    if name == "dp":
        assert b == particle.radius
        assert dp_rate(particle, b) == at
        assert abs(dp_rate(particle, b * (1.0 - eps)) - at) <= 3.0 * eps * at
    # Gamma has no jump where the packet reaches b
    _, x0, v_m = scenario_kinematics(replace(BASELINE, particle=particle))
    kin = ExpansionKinematics(x0=x0, v_m=v_m)
    half = 0.5 * b
    if half > x0:
        t_b = math.sqrt(half * half - x0 * x0) / v_m
        jump = gamma(t_b * (1.0 + eps), spec, kin) - gamma(t_b * (1.0 - eps),
                                                          spec, kin)
        assert abs(jump) <= 2.0 * eps * t_b * at * (1.0 + 1e-3) \
            + 4.0 * math.ulp(gamma(t_b, spec, kin))
