"""Frozen reference data and independent oracles shared across tests.

The worked-example blocks below are fixed regression data for a
lag-6/dimension-3 chaotic-series forecast (cases A and B) and a
lag-10/dimension-3 measured-series forecast (cases C and D): a raw map
forecast, the true next value, the difference-magnitude column of the
correction table, and the corrected forecast at each order.  The two
nine-term quadratic maps are reference coefficient sets for the same
systems.  All values were cross-checked before freezing: each corrected
column telescopes against its magnitude column to ~1e-15.
"""

import math

import numpy as np

from polycast import (
    FitError,
    enumerate_monomials,
    fit_least_squares,
    usable_point_indices,
)

# -- worked correction example A: anchor entry 316, forecasting entry 317

GF_A = -0.782644049
ACTUAL_A = -1.041455029
# |Delta^k| at the anchor for k = 1..20
MAGS_A = (
    0.015127123, 0.000902659, 0.000202785, 0.000032905, 0.000014807,
    0.000018502, 0.000011662, 0.000009405, 0.000006933, 0.000006450,
    0.000005072, 0.000011998, 0.000020272, 0.000055212, 0.000149033,
    0.000346170, 0.000723317, 0.001398781, 0.002499815, 0.004042167,
)
# corrected forecast using orders 0..k, for k = 1..20
IGF_A = (
    -1.042168004, -1.041265345, -1.041468130, -1.041435225, -1.041450032,
    -1.041468534, -1.041456872, -1.041447467, -1.041454400, -1.041460850,
    -1.041455778, -1.041443780, -1.041423508, -1.041368296, -1.041219263,
    -1.040873093, -1.040149776, -1.038750995, -1.036251180, -1.032209013,
)
KSTAR_A = 5
GF_ERR_A = 24.85090309

# -- worked correction example B: anchor entry 533, forecasting entry 534

GF_B = 7.062374264
ACTUAL_B = 7.225654731
MAGS_B = (
    0.005833355, 0.000348756, 0.000008184, 0.000008912, 0.000003874,
    0.000001257, 0.000000331, 0.000000150, 0.000000251, 0.000000532,
    0.000001007, 0.000001712, 0.000002692, 0.000004115, 0.000006683,
    0.000012706, 0.000028487, 0.000068998, 0.000166009, 0.000380304,
)
IGF_B = (
    7.225283437, 7.225632193, 7.225640377, 7.225649289, 7.225653163,
    7.225654420, 7.225654751, 7.225654901, 7.225655152, 7.225655684,
    7.225656691, 7.225658403, 7.225661095, 7.225665210, 7.225671893,
    7.225684599, 7.225713086, 7.225782084, 7.225948093, 7.226328397,
)
IGF_ERR_B = (
    0.005138551644, 0.0003119163708, 0.0001986532783, 0.00007531497425,
    0.00002170045565, 0.000004304108231, 0.0000002767915261,
    0.000002352727972, 0.000005826461624, 0.00001318911622,
    0.00002712556956, 0.00005081892419, 0.00008807506360, 0.0001450249201,
    0.0002375148085, 0.0004133604651, 0.0008076084753, 0.001762511561,
    0.004060005784, 0.009323252011,
)
KSTAR_B = 3
GF_ERR_B = 2.259732482
DELTA0_B = 0.157075818  # reconstructed via IGF(k=1) - GF_B - Delta^1

# -- magnitude-only plateau cases C and D (k = 0..10)

MAGS_C = (
    1.40709476, 0.06841402, 0.11034922, 0.44228546, 0.56575633, 0.43932335,
    0.00174856, 0.99434282, 3.10231730, 7.64654504, 17.67633668,
)
KSTAR_C = 1
MAGS_D = (
    9.89683125, 2.18086125, 1.05010575, 0.01110500, 0.49314562, 0.37340972,
    0.43065248, 2.97396166, 10.77153154, 32.44747527, 86.66665506,
)
KSTAR_D = 3

# -- reference nine-term quadratic maps (variables oldest..newest)

MAP9_A_TERMS = {
    (1, 0, 0): 1.317833301,
    (2, 0, 0): -0.005266089766,
    (1, 1, 0): 0.07580676400,
    (1, 0, 1): -0.1245478927,
    (0, 2, 0): -0.01839588238,
    (0, 1, 1): 0.06578287850,
    (0, 0, 2): -0.01025562766,
    (0, 1, 0): -0.4700554502,
    (0, 0, 1): 0.1415056465,
}

MAP9_B_TERMS = {
    (1, 0, 0): -1.172534275,
    (0, 0, 2): -0.2617292220,
    (0, 1, 1): 0.4661889468,
    (0, 2, 0): -0.3426537822,
    (1, 0, 1): -0.1107944588,
    (1, 1, 0): 0.3574412776,
    (2, 0, 0): -0.1136908621,
    (0, 0, 1): 15.65933419,
    (0, 1, 0): -12.98866231,
}


def signed_deltas(gf, mags, igfs):
    """Recover signed anchor deltas from a magnitude column and the
    corrected-forecast column.

    The order-k corrected forecast adds deltas 0..k to gf, so consecutive
    differences of the corrected column give the signed deltas for
    k >= 2, and delta_0 follows from the k=1 identity with delta_1 taken
    positive (only delta_0 + delta_1 is pinned by the columns).
    """
    d = [0.0] * (len(mags) + 1)
    d[1] = mags[0]
    d[0] = igfs[0] - gf - d[1]
    for k in range(2, len(mags) + 1):
        d[k] = igfs[k - 1] - igfs[k - 2]
    return d


def eps_from_deltas(deltas):
    """Error window (oldest first) whose anchor deltas equal ``deltas``.

    Inverse of the backward-difference triangle:
    eps(P-j) = sum_k (-1)^k C(j,k) delta_k.
    """
    count = len(deltas)
    eps = [
        sum((-1) ** k * math.comb(j, k) * deltas[k] for k in range(j + 1))
        for j in range(count)
    ]
    return np.array(eps[::-1])


def reference_evaluate(poly, point):
    """Term-by-term evaluation of a Polynomial in storage order.

    This is the loop the compiled evaluator replaces; it must agree with
    ``Polynomial.evaluate`` bit for bit.
    """
    total = 0.0
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def reference_rk4(field, initial_state, delta_t, steps, substeps=1):
    """Classical RK4 over numpy arrays with the field evaluated by
    ``reference_evaluate``; returns the (steps + 1, dimension) states."""

    def f(x):
        return np.array([reference_evaluate(c, x) for c in field.components])

    x = np.asarray(initial_state, dtype=float)
    h = delta_t / substeps
    states = [x]
    for _ in range(steps):
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def reference_design_columns(basis, points):
    """Every monomial of ``basis`` at every point, as one (rows, terms, m)
    broadcast power reduced by ``np.prod``; ``MonomialBasis.design_columns``
    must agree with it bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.array(basis.monomials, dtype=float).reshape(
        len(basis.monomials), basis.variable_count
    )
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def reference_fit_kfold(series, space, config, target_lag_offset=0):
    """Fold-averaged coefficients with the design matrix rebuilt from
    ``reference_design_columns`` for every fold (``config.folds`` >= 2).

    A failing fold raises the same ``FitError`` text as ``fit_kfold``.
    """
    basis = enumerate_monomials(
        space.params.dimension, config.degree, config.include_constant
    )
    rows = usable_point_indices(space, series, config.training_range)
    targets = (
        rows + space.params.window_span + 1 - target_lag_offset * space.params.lag
    )
    per_fold = []
    for k, part in enumerate(np.array_split(np.arange(len(rows)), config.folds)):
        keep = np.ones(len(rows), dtype=bool)
        keep[part] = False
        matrix = reference_design_columns(basis, space.points[rows[keep]])
        try:
            per_fold.append(fit_least_squares(matrix, series.values[targets[keep]]))
        except FitError as exc:
            raise type(exc)(f"fold {k + 1} of {config.folds}: {exc}") from exc
    return np.mean(per_fold, axis=0)


def naive_poly_sum(terms, point):
    """Horner-free per-term accumulation oracle for polynomial evaluation."""
    total = 0.0
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                value *= x
        total += value
    return total


def backward_difference_oracle(eps, k):
    """Delta^k at the window end via the binomial identity
    sum_j (-1)^j C(k,j) eps[-1-j]."""
    return sum((-1) ** j * math.comb(k, j) * eps[-1 - j] for j in range(k + 1))


def quadratic_delay_series(coeff_terms, lag, dimension, length, initial):
    """Iterate x[n+1] = M(x[n-(m-1)p], ..., x[n-p], x[n]) from seed values.

    ``coeff_terms`` maps exponent tuples (oldest..newest component) to
    coefficients; ``initial`` seeds the first (m-1)*p + 1 values.  Series
    built this way satisfy the forecast-map relation exactly, so a fit
    must recover ``coeff_terms``.
    """
    span = (dimension - 1) * lag
    values = list(initial)
    assert len(values) == span + 1
    while len(values) < length:
        point = [values[-1 - span + j * lag] for j in range(dimension)]
        values.append(naive_poly_sum(coeff_terms, point))
    return np.array(values)
