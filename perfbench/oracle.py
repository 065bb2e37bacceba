"""Reference computations the benchmark checks polycast against.

Nothing here imports polycast: the series generator, the forecast
correction and the fold-averaged fit are written again from the paper's
definitions, so a defect in the package cannot hide in its own reference.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

LAG, DIMENSION = 6, 3
SPAN = (DIMENSION - 1) * LAG
WINDOW, N_CAP = 40, 30
DEFAULT_STATE = (-0.3336666667, -0.3336666667, 21.9996666667)
RANK_TOLERANCE = 1e-12

# Forecasts may drift by summation order (a batched path, a compiled
# field), never by more than this relative share; k* must match exactly.
VALUE_RTOL = 1e-9
# Held-out predictions of a fitted map against the column-scaled oracle,
# as a share of the series' largest magnitude.  At the seed commit the
# worst case over 12 seeds is 4e-8 (degree 5 on 300 rows, the least
# determined fit); well-conditioned fits agree to 1e-14.
FIT_RTOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def close(a, b, rtol=VALUE_RTOL) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= rtol * (1.0 + np.abs(b))


def lorenz_x1(state, samples, dt=0.01, substeps=10, sigma=10.0, r=28.0, b=8.0 / 3.0):
    """x1 of the Lorenz system by classical RK4, sampled every ``dt``."""
    h = dt / substeps
    x, y, z = (float(v) for v in state)

    def field(x, y, z):
        return sigma * (y - x), r * x - y - x * z, x * y - b * z

    out = [x]
    for _ in range(samples - 1):
        for _ in range(substeps):
            a1, b1, c1 = field(x, y, z)
            a2, b2, c2 = field(x + 0.5 * h * a1, y + 0.5 * h * b1, z + 0.5 * h * c1)
            a3, b3, c3 = field(x + 0.5 * h * a2, y + 0.5 * h * b2, z + 0.5 * h * c2)
            a4, b4, c4 = field(x + h * a3, y + h * b3, z + h * c3)
            x = x + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y = y + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            z = z + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        out.append(x)
    return np.array(out)


def seeded_state(rng: np.random.Generator, spread: float) -> tuple:
    """The default initial state moved by up to ``spread`` per coordinate."""
    return tuple(float(v) for v in np.asarray(DEFAULT_STATE) + rng.uniform(-spread, spread, 3))


def monomials(degree: int, constant: bool) -> np.ndarray:
    """Exponent rows in graded-lexicographic order, variable 0 strongest."""
    monos = []
    for d in range(0 if constant else 1, degree + 1):
        for combo in combinations_with_replacement(range(DIMENSION), d):
            monos.append(tuple(combo.count(v) for v in range(DIMENSION)))
    monos.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return np.array(monos, dtype=float).reshape(len(monos), DIMENSION)


def embed(x: np.ndarray) -> np.ndarray:
    count = len(x) - SPAN
    return np.column_stack([x[j * LAG: j * LAG + count] for j in range(DIMENSION)])


def design(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


class ForecastOracle:
    """GF and IGF forecasts, k* and difference magnitudes at every anchor point.

    Anchor point p forecasts series index p + SPAN + 2 from point p + 1 and
    corrects it with the difference table of the errors of points
    p - WINDOW .. p.  ``ambiguous`` marks anchors where a plateau
    comparison is closer than the rounding noise of the map's own
    evaluation, so k* there is not decided by the definition alone.
    """

    def __init__(self, x: np.ndarray, exps: np.ndarray, coeffs: np.ndarray):
        points = embed(x)
        pred = design(points, exps) @ np.asarray(coeffs, dtype=float)
        count = len(points)
        eps = x[SPAN + 1: SPAN + count] - pred[: count - 1]
        self.first, self.last = WINDOW, count - 2
        anchors = np.arange(self.first, self.last + 1)
        rows = np.lib.stride_tricks.sliding_window_view(eps, WINDOW + 1)[anchors - WINDOW]
        zero_window = np.all(rows == 0.0, axis=1)
        deltas = [rows[:, -1].copy()]
        for _ in range(N_CAP):
            rows = rows[:, 1:] - rows[:, :-1]
            deltas.append(rows[:, -1].copy())
        deltas = np.column_stack(deltas)
        mags = np.abs(deltas)
        stop = mags[:, :-1] <= mags[:, 1:]
        found = stop.any(axis=1) & ~zero_window
        k_star = np.where(found, stop.argmax(axis=1), -1)
        noise = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(pred))))
        margin = (3.0 * 2.0 ** np.arange(N_CAP)) * noise
        near = np.abs(mags[:, :-1] - mags[:, 1:]) <= margin
        upto = np.where(found, k_star, N_CAP - 1)
        self.ambiguous = (near & (np.arange(N_CAP) <= upto[:, None])).any(axis=1)
        self.gf = pred[anchors + 1]
        igf = self.gf.copy()
        for k in range(N_CAP):
            use = found & (k <= k_star)
            igf = np.where(use, igf + deltas[:, k], igf)
        self.igf = igf
        self.k_star = k_star
        self.magnitudes = mags

    def index(self, point: int) -> int:
        if not self.first <= point <= self.last:
            raise ValueError(f"point {point} has no oracle record")
        return point - self.first

    def mismatch(self, point: int, k_star, gf: float, igf: float) -> str | None:
        """Why a program record disagrees with the oracle, or None."""
        i = self.index(point)
        if not close(gf, self.gf[i]):
            return f"point {point}: gf {gf!r} != oracle {self.gf[i]!r}"
        want = None if self.k_star[i] < 0 else int(self.k_star[i])
        if k_star != want:
            if self.ambiguous[i]:
                return None
            return f"point {point}: k* {k_star} != oracle {want}"
        if not close(igf, self.igf[i]):
            return f"point {point}: igf {igf!r} != oracle {self.igf[i]!r}"
        return None


def fit_oracle(x: np.ndarray, degree: int, constant: bool, train_stop: int, folds: int = 10):
    """Fold-averaged least squares in norm-scaled columns.

    Returns (exponents, coefficients), or None when a scaled fold matrix
    is rank deficient by the package's own tolerance.
    """
    exps = monomials(degree, constant)
    points = embed(x)
    rows = np.arange(0, min(train_stop, len(x)) - SPAN - 1)
    matrix = design(points[rows], exps)
    targets = x[rows + SPAN + 1]
    scale = np.linalg.norm(matrix, axis=0)
    scaled = matrix / scale
    solutions = []
    for part in np.array_split(np.arange(len(rows)), folds):
        keep = np.ones(len(rows), dtype=bool)
        keep[part] = False
        sol, _, _, sv = np.linalg.lstsq(scaled[keep], targets[keep], rcond=None)
        if sv[0] == 0.0 or sv[-1] / sv[0] < RANK_TOLERANCE:
            return None
        solutions.append(sol / scale)
    return exps, np.mean(solutions, axis=0)


def fit_mismatch(x, reference, program, train_stop) -> str | None:
    """Why a program map's held-out predictions disagree with the oracle's.

    ``reference`` and ``program`` are (exponents, coefficients) pairs.
    """
    points = heldout_points(x, train_stop)
    want = design(points, reference[0]) @ reference[1]
    got = design(points, np.asarray(program[0], dtype=float)) @ np.asarray(program[1], dtype=float)
    worst = float(np.max(np.abs(got - want)))
    if not worst <= FIT_RTOL * float(np.max(np.abs(x))):
        return f"held-out predictions differ from the oracle by {worst:.3e}"
    return None


def heldout_points(x: np.ndarray, train_stop: int, count: int = 200) -> np.ndarray:
    """Phase-space points whose forecast targets lie just past the training range."""
    points = embed(x)
    first = max(train_stop - SPAN - 1, 0)
    return points[first: min(first + count, len(points) - 1)]


def load_reference(name: str):
    path = REFERENCE_DIR / name
    return json.loads(path.read_text()) if path.exists() else None
