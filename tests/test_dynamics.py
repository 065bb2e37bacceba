"""Lorenz field construction, truncated flow maps, and RK4 integration."""

import math

import numpy as np
import pytest

from polycast import (
    BLOWUP_LIMIT,
    BlowupError,
    DEFAULT_LORENZ_STATE,
    LorenzParams,
    Polynomial,
    VectorField,
    build_truncated_flow_map,
    flow_step,
    lorenz_field,
    lorenz_series,
    rk4_integrate,
)

from helpers import reference_evaluate, reference_rk4


def test_lorenz_field_terms():
    field = lorenz_field(LorenzParams(sigma=10.0, r=28.0, b=8.0 / 3.0))
    assert field.components[0] == Polynomial(
        3, {(1, 0, 0): -10.0, (0, 1, 0): 10.0}
    )
    assert field.components[1] == Polynomial(
        3, {(0, 1, 0): -1.0, (1, 0, 1): -1.0, (1, 0, 0): 28.0}
    )
    assert field.components[2] == Polynomial(
        3, {(1, 1, 0): 1.0, (0, 0, 1): -8.0 / 3.0}
    )


def test_lorenz_quadratic_terms_carry_no_parameters():
    # The two quadratic terms -x1*x3 and x1*x2 have fixed coefficients, so
    # zeroing every parameter leaves exactly them plus the -x2 term.
    field = lorenz_field(LorenzParams(sigma=0.0, r=0.0, b=0.0))
    assert field.components[0].is_zero
    assert field.components[1] == Polynomial(3, {(0, 1, 0): -1.0, (1, 0, 1): -1.0})
    assert field.components[2] == Polynomial(3, {(1, 1, 0): 1.0})
    quadratics = [
        (e, c)
        for comp in lorenz_field(LorenzParams()).components
        for e, c in comp.terms.items()
        if sum(e) == 2
    ]
    assert sorted(quadratics) == [((1, 0, 1), -1.0), ((1, 1, 0), 1.0)]


def test_order_one_map_is_euler():
    field = lorenz_field(LorenzParams())
    dt = 0.01
    fmap = build_truncated_flow_map(field, 1, dt)
    for i in range(3):
        expected = Polynomial.variable(3, i) + field.components[i] * dt
        assert fmap.components[i] == expected


def test_map_degree_grows_linearly_with_order():
    # Quadratic field (d=2): order-N map has degree 1 + N*(d-1) = N + 1.
    field = lorenz_field(LorenzParams())
    for order in range(1, 5):
        fmap = build_truncated_flow_map(field, order, 0.01)
        assert fmap.total_degree == order + 1
    assert build_truncated_flow_map(field, 4, 0.01).total_degree == 5


def test_map_metadata():
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 2, 0.02)
    assert fmap.dimension == 3


def test_flow_map_is_a_vector_field():
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 3, 0.01)
    assert isinstance(fmap, VectorField)
    assert fmap.total_degree == 4
    state = DEFAULT_LORENZ_STATE
    assert np.array_equal(flow_step(fmap, state), fmap.evaluate(state))
    assert np.array_equal(
        fmap.evaluate(state), VectorField(fmap.components).evaluate(state)
    )


def test_linear_field_map_coefficient_is_partial_exponential():
    # For dx/dt = a*x the order-N map is x * sum_{k<=N} (a*dt)^k / k!.
    a, dt = -1.7, 0.3
    field = VectorField((Polynomial(1, {(1,): a}),))
    prev = 1.0
    for order in range(1, 7):
        fmap = build_truncated_flow_map(field, order, dt)
        assert len(fmap.components[0]) == 1
        got = fmap.components[0].coefficient((1,))
        expected = sum((a * dt) ** k / math.factorial(k) for k in range(order + 1))
        assert got == pytest.approx(expected, rel=1e-14)
        # each order adds exactly the next Taylor term
        assert got - prev == pytest.approx(
            (a * dt) ** order / math.factorial(order), rel=1e-12
        )
        prev = got


def test_flow_step_fixes_origin():
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 4, 0.01)
    assert np.array_equal(flow_step(fmap, (0.0, 0.0, 0.0)), np.zeros(3))


def test_flow_step_shape_check():
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 1, 0.01)
    with pytest.raises(ValueError):
        flow_step(fmap, (1.0, 2.0))


def _attractor_state():
    traj = rk4_integrate(
        lorenz_field(LorenzParams()), DEFAULT_LORENZ_STATE, 0.01, 200, substeps=10
    )
    return traj.states[-1]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_flow_step_truncation_error_scales_with_order(order):
    # One-step error against a fine RK4 reference halves like dt^(order+1):
    # the log2 of the error ratio at dt and dt/2 sits near order + 1.
    field = lorenz_field(LorenzParams())
    state = _attractor_state()

    def one_step_error(dt):
        fmap = build_truncated_flow_map(field, order, dt)
        approx = flow_step(fmap, state)
        exact = rk4_integrate(field, state, dt, 1, substeps=100).states[-1]
        return np.linalg.norm(approx - exact)

    ratio = one_step_error(0.01) / one_step_error(0.005)
    assert math.log2(ratio) == pytest.approx(order + 1, abs=0.3)


def test_build_map_validation():
    field = lorenz_field(LorenzParams())
    with pytest.raises(ValueError):
        build_truncated_flow_map(field, 0, 0.01)
    with pytest.raises(ValueError):
        build_truncated_flow_map(field, 2, 0.0)
    with pytest.raises(ValueError):
        build_truncated_flow_map(field, 2, float("inf"))


def test_rk4_scalar_linear_closed_form():
    # One RK4 step on dx/dt = a*x multiplies by the degree-4 Taylor factor.
    a, h, x0 = -2.3, 0.1, 1.5
    field = VectorField((Polynomial(1, {(1,): a}),))
    ah = a * h
    factor = 1.0 + ah + ah**2 / 2 + ah**3 / 6 + ah**4 / 24
    traj = rk4_integrate(field, (x0,), h, 1)
    assert traj.states[1, 0] == pytest.approx(x0 * factor, rel=1e-12)
    traj = rk4_integrate(field, (x0,), h, 7)
    assert traj.states[-1, 0] == pytest.approx(x0 * factor**7, rel=1e-12)
    assert len(traj) == 8


def test_rk4_substeps_bit_equivalence():
    # substeps=s over one recorded interval walks the identical float path
    # as s recorded steps of size dt/s.
    field = lorenz_field(LorenzParams())
    coarse = rk4_integrate(field, DEFAULT_LORENZ_STATE, 0.01, 1, substeps=10)
    fine = rk4_integrate(field, DEFAULT_LORENZ_STATE, 0.001, 10, substeps=1)
    assert np.array_equal(coarse.states[-1], fine.states[-1])


def test_rk4_zero_field_is_constant():
    field = VectorField((Polynomial.zero(2), Polynomial.zero(2)))
    traj = rk4_integrate(field, (3.0, -4.0), 0.5, 5)
    assert np.array_equal(traj.states, np.tile([3.0, -4.0], (6, 1)))


def test_rk4_blowup_names_recorded_step():
    # dx/dt = x^2 from x=1 diverges at t=1; the error mentions which
    # recorded step left the range.
    field = VectorField((Polynomial(1, {(2,): 1.0}),))
    with pytest.raises(BlowupError, match="step"):
        rk4_integrate(field, (1.0,), 0.1, 20)
    with pytest.raises(BlowupError):
        rk4_integrate(field, (2.0 * BLOWUP_LIMIT,), 0.1, 1)
    # A power overflowing inside a substep yields inf, caught at the
    # recorded step rather than escaping as OverflowError.
    field = VectorField((Polynomial(1, {(40,): 1.0}),))
    with pytest.raises(BlowupError, match="recorded step 1:"):
        rk4_integrate(field, (100.0,), 0.1, 5)


def test_rk4_blowup_limit_is_inclusive():
    # a state exactly at the limit is in range; the next float up is not
    field = VectorField((Polynomial.zero(1),))
    traj = rk4_integrate(field, (BLOWUP_LIMIT,), 0.1, 3)
    assert np.array_equal(traj.states, np.full((4, 1), BLOWUP_LIMIT))
    with pytest.raises(BlowupError, match="recorded step 0:"):
        rk4_integrate(field, (np.nextafter(BLOWUP_LIMIT, np.inf),), 0.1, 3)


# (field, initial state, delta_t, steps, substeps); every field with a
# power above one exercises ``x ** e`` in the generated substep.
RK4_CASES = {
    "cubic_1d": (
        VectorField((Polynomial(1, {(1,): 0.5, (3,): -0.2}),)),
        (0.3,), 0.05, 40, 3,
    ),
    "van_der_pol_2d": (
        VectorField((
            Polynomial(2, {(0, 1): 1.0}),
            Polynomial(2, {(0, 1): 1.5, (2, 1): -1.5, (1, 0): -1.0}),
        )),
        (2.0, -0.5), 0.02, 60, 2,
    ),
    "lorenz_3d": (
        lorenz_field(LorenzParams()), DEFAULT_LORENZ_STATE, 0.01, 80, 10,
    ),
    "rossler_3d": (
        VectorField((
            Polynomial(3, {(0, 1, 0): -1.0, (0, 0, 1): -1.0}),
            Polynomial(3, {(1, 0, 0): 1.0, (0, 1, 0): 0.2}),
            Polynomial(3, {(0, 0, 0): 0.2, (1, 0, 1): 1.0, (0, 0, 1): -5.7}),
        )),
        (1.0, 1.0, 0.0), 0.05, 50, 4,
    ),
    "zero_2d": (
        VectorField((Polynomial.zero(2), Polynomial.zero(2))),
        (3.0, -0.0), 0.5, 5, 2,
    ),
}


@pytest.mark.parametrize("case", sorted(RK4_CASES))
def test_rk4_matches_reference_numpy_rk4_bit_for_bit(case):
    field, state, dt, steps, substeps = RK4_CASES[case]
    got = rk4_integrate(field, state, dt, steps, substeps).states
    want = reference_rk4(field, state, dt, steps, substeps)
    assert got.shape == want.shape == (steps + 1, field.dimension)
    assert got.tobytes() == want.tobytes()


def test_flow_step_matches_reference_bit_for_bit():
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 4, 0.01)
    rng = np.random.default_rng(3)
    for point in rng.uniform(-25.0, 25.0, size=(200, 3)):
        got = flow_step(fmap, point)
        want = np.array([reference_evaluate(c, point) for c in fmap.components])
        assert got.tobytes() == want.tobytes()


def test_rk4_validation():
    field = lorenz_field(LorenzParams())
    with pytest.raises(ValueError):
        rk4_integrate(field, DEFAULT_LORENZ_STATE, 0.01, -1)
    with pytest.raises(ValueError):
        rk4_integrate(field, DEFAULT_LORENZ_STATE, 0.01, 5, substeps=0)
    with pytest.raises(ValueError):
        rk4_integrate(field, DEFAULT_LORENZ_STATE, -0.01, 5)
    with pytest.raises(ValueError):
        rk4_integrate(field, (1.0, 2.0), 0.01, 5)


def test_rk4_zero_steps_records_initial_state():
    field = lorenz_field(LorenzParams())
    traj = rk4_integrate(field, DEFAULT_LORENZ_STATE, 0.01, 0)
    assert traj.states.shape == (1, 3)
    assert np.array_equal(traj.states[0], np.asarray(DEFAULT_LORENZ_STATE))


def test_lorenz_trajectory_stays_bounded():
    traj = rk4_integrate(
        lorenz_field(LorenzParams()), DEFAULT_LORENZ_STATE, 0.01, 599, substeps=10
    )
    assert np.max(np.abs(traj.states)) < 60.0


def test_lorenz_series_defaults_and_determinism():
    a = lorenz_series()
    b = lorenz_series()
    assert len(a.values) == 600
    assert a.name == "x1"
    assert np.all(np.isfinite(a.values))
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        lorenz_series(samples=0)
