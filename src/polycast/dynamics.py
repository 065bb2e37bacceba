"""Polynomial dynamical systems: the Lorenz field, truncated flow maps,
and Runge-Kutta reference integration.

A truncated flow map advances a state by one time step ``delta_t`` using
the Lie series of the field's generator X = sum_i f_i d/dx_i, cut at a
chosen order N:

    x_i(t + delta_t) ~= sum_{k=0..N} delta_t^k / k!  *  X^k[x_i](x(t))

Each component of the map is itself a polynomial, so repeated
differentiation raises the degree: for a field of maximum degree d the
order-N map has degree 1 + N*(d - 1).

Fields and maps evaluate through code compiled once per polynomial
(``algebra.polynomial_lines``); ``rk4_integrate`` compiles each field's
whole RK4 substep, all four stages unrolled over Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .algebra import Polynomial, VectorField, compile_lines, lie_derivative, polynomial_lines
from .embedding import TimeSeries

# States whose largest component magnitude exceeds this are treated as a
# diverged integration rather than silently returning overflow values.
BLOWUP_LIMIT = 1e8


class BlowupError(RuntimeError):
    """Raised when an integration step leaves the trusted numeric range."""


@dataclass(frozen=True)
class LorenzParams:
    """Parameters (sigma, r, b) of the Lorenz convection equations."""

    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0


#: Initial state used by the bundled Lorenz generator defaults.
DEFAULT_LORENZ_STATE = (-0.3336666667, -0.3336666667, 21.9996666667)


def lorenz_field(params: LorenzParams) -> VectorField:
    """The Lorenz vector field as polynomial components.

        dx1/dt = sigma*(x2 - x1)
        dx2/dt = -x2 - x1*x3 + r*x1
        dx3/dt = x1*x2 - b*x3

    Only the two quadratic terms -x1*x3 and x1*x2 are nonlinear, and they
    carry no parameters; setting sigma = r = b = 0 leaves the field
    (0, -x2 - x1*x3, x1*x2).
    """
    comp1 = Polynomial(3, {(1, 0, 0): -params.sigma, (0, 1, 0): params.sigma})
    comp2 = Polynomial(3, {(0, 1, 0): -1.0, (1, 0, 1): -1.0, (1, 0, 0): params.r})
    comp3 = Polynomial(3, {(1, 1, 0): 1.0, (0, 0, 1): -params.b})
    return VectorField((comp1, comp2, comp3))


@dataclass(frozen=True)
class TruncatedFlowMap:
    """A one-step polynomial approximation of a field's time-``delta_t`` flow."""

    order: int
    delta_t: float
    components: Tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def total_degree(self) -> int:
        return max(c.total_degree for c in self.components)


def build_truncated_flow_map(
    field: VectorField, order: int, delta_t: float
) -> TruncatedFlowMap:
    """Expand the Lie series of ``field`` to ``order`` for step ``delta_t``."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (delta_t > 0 and math.isfinite(delta_t)):
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    components = []
    for i in range(field.dimension):
        term = Polynomial.variable(field.dimension, i)
        acc = term
        for k in range(1, order + 1):
            term = lie_derivative(field, term)
            acc = acc + term * (delta_t ** k / math.factorial(k))
        components.append(acc)
    return TruncatedFlowMap(order, delta_t, tuple(components))


def flow_step(fmap: TruncatedFlowMap, state: Sequence[float]) -> np.ndarray:
    """Advance ``state`` by one step of the truncated flow map."""
    return VectorField(fmap.components).evaluate(state)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Equally spaced states of one integration: shape (samples, dimension)."""

    states: np.ndarray
    delta_t: float

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def rk4_integrate(
    field: VectorField,
    initial_state: Sequence[float],
    delta_t: float,
    steps: int,
    substeps: int = 1,
) -> Trajectory:
    """Integrate ``field`` with classical fourth-order Runge-Kutta.

    Records ``steps + 1`` states (the initial state included) spaced
    ``delta_t`` apart; each recorded interval is covered by ``substeps``
    internal RK4 stages of size ``delta_t / substeps``.  Raises
    BlowupError naming the failing recorded step when any component
    exceeds BLOWUP_LIMIT or stops being finite.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    if not (delta_t > 0 and math.isfinite(delta_t)):
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    x = np.asarray(initial_state, dtype=float)
    if x.shape != (field.dimension,):
        raise ValueError(
            f"initial state has shape {x.shape}, expected ({field.dimension},)"
        )
    substep = _rk4_substep(field)
    h = float(delta_t) / substeps
    hh, h6 = 0.5 * h, h / 6.0
    state = tuple(x.tolist())
    _check_in_range(state, 0)
    rows = [state]
    for step in range(1, steps + 1):
        for _ in range(substeps):
            state = substep(*state, h, hh, h6)
        _check_in_range(state, step)
        rows.append(state)
    return Trajectory(np.array(rows), delta_t)


def _rk4_substep(field: VectorField):
    """One classical RK4 step of ``field`` as a compiled function.

    Called as ``substep(*x, h, 0.5 * h, h / 6.0)``, it returns the new
    state, applying the same float operations in the same order as
    ``x + (h/6) * (k1 + 2*k2 + 2*k3 + k4)`` with ``k2`` taken at
    ``x + (0.5*h) * k1``, ``k3`` at ``x + (0.5*h) * k2`` and ``k4`` at
    ``x + h * k3``.
    """
    n = field.dimension
    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]
    k = [[f"k{stage}_{i}" for i in range(n)] for stage in range(1, 5)]
    lines = []
    # Stage s evaluates the field at ``point`` into k[s], then sets the
    # next stage's point y = x + scale * k[s].
    for ks, (point, scale) in zip(k, ((x, "hh"), (y, "hh"), (y, "h"), (y, None))):
        for i, component in enumerate(field.components):
            lines += polynomial_lines(component, point, ks[i])
        if scale is not None:
            lines += [f"y{i} = x{i} + {scale} * {ks[i]}" for i in range(n)]
    k1, k2, k3, k4 = k
    results = [
        f"x{i} + h6 * ({k1[i]} + 2.0 * {k2[i]} + 2.0 * {k3[i]} + {k4[i]})"
        for i in range(n)
    ]
    return compile_lines(x + ["h", "hh", "h6"], lines, results)


def _check_in_range(state: Tuple[float, ...], step: int) -> None:
    if not all(abs(v) <= BLOWUP_LIMIT for v in state):
        raise BlowupError(
            f"integration diverged at recorded step {step}: "
            f"state left the range |x| <= {BLOWUP_LIMIT:g}"
        )


def sample_coordinate(trajectory: Trajectory, coordinate: int) -> TimeSeries:
    """Extract one coordinate of a trajectory as a scalar time series."""
    if not 0 <= coordinate < trajectory.dimension:
        raise ValueError(
            f"coordinate {coordinate} out of range for dimension "
            f"{trajectory.dimension}"
        )
    return TimeSeries(trajectory.states[:, coordinate], name=f"x{coordinate + 1}")


def lorenz_series(
    params: LorenzParams = LorenzParams(),
    samples: int = 600,
    delta_t: float = 0.01,
    initial_state: Sequence[float] = DEFAULT_LORENZ_STATE,
    substeps: int = 10,
    coordinate: int = 0,
) -> TimeSeries:
    """Generate a sampled Lorenz coordinate series of length ``samples``."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    traj = rk4_integrate(
        lorenz_field(params), initial_state, delta_t, samples - 1, substeps
    )
    return sample_coordinate(traj, coordinate)
