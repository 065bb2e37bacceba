"""Backward-difference tables over forecast errors and plateau-corrected
forecasts.

For anchor index P and window a, let eps(J) = actual(J) - forecast(J)
for J = P-a .. P.  Difference rows follow

    row 0:      eps(J)
    row k:      row_{k-1}(J) - row_{k-1}(J - 1)

so row k holds a+1-k entries and its last entry is Delta^k eps(P).  The
magnitudes |Delta^k eps(P)| typically fall to a plateau and then grow
again as rounding noise amplifies; the plateau order k* is the smallest
k with |Delta^k eps(P)| <= |Delta^{k+1} eps(P)| (ties count as stopped).
The corrected forecast adds the partial sum of anchor deltas through k*
to the raw map forecast.

``correct_block`` applies these rules to many anchors over one error
block; ``DifferenceTable``, ``find_plateau`` and ``corrected_forecast``
are its one-window reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


class NoPlateauError(RuntimeError):
    """No difference order satisfied the plateau rule within the cap."""


class DifferenceTable:
    """Difference rows of a forecast-error window, anchored at its end.

    Rows are computed on demand up to the window size and cached; the
    table itself is read-only from the caller's point of view.
    """

    def __init__(self, epsilon: np.ndarray):
        epsilon = np.asarray(epsilon, dtype=float)
        if epsilon.ndim != 1 or len(epsilon) < 1:
            raise ValueError("epsilon window must be a non-empty 1-d array")
        if not np.all(np.isfinite(epsilon)):
            raise ValueError("epsilon window contains non-finite values")
        self.epsilon = epsilon
        self._rows = [epsilon]

    @property
    def window(self) -> int:
        """The window size a; rows exist for orders 0..a."""
        return len(self.epsilon) - 1

    def row(self, k: int) -> np.ndarray:
        """Difference row k (length window + 1 - k)."""
        if not 0 <= k <= self.window:
            raise ValueError(
                f"row {k} out of range; window of size {self.window} has "
                f"rows 0..{self.window}"
            )
        while len(self._rows) <= k:
            self._rows.append(np.diff(self._rows[-1]))
        return self._rows[k]

    def delta_at_anchor(self, k: int) -> float:
        """Delta^k eps at the anchor (the last entry of row k)."""
        return float(self.row(k)[-1])

    def magnitudes(self, k_max: int) -> np.ndarray:
        """|Delta^k eps| at the anchor for k = 0..k_max."""
        return np.array([abs(self.delta_at_anchor(k)) for k in range(k_max + 1)])


@dataclass(frozen=True)
class PlateauResult:
    """Outcome of a plateau search.

    ``magnitudes[i]`` is |Delta^k eps| for k = first_k + i; the search
    compared orders up to ``n_final`` = k_star + 1.
    """

    k_star: int
    magnitudes: Tuple[float, ...]
    n_final: int
    first_k: int = 0


def find_plateau(
    magnitudes: Sequence[float],
    n_cap: int = 30,
    first_k: int = 0,
) -> PlateauResult:
    """Locate the plateau order in difference magnitudes.

    ``magnitudes`` is a sequence whose first entry is order ``first_k``;
    signs are ignored.  The search scans orders k = first_k .. n-1, where
    n is ``n_cap`` or the last order available if that is smaller, for
    the smallest k with magnitude(k) <= magnitude(k+1).
    """
    if n_cap < 1:
        raise ValueError(f"n_cap must be >= 1, got {n_cap}")
    mags = [abs(float(v)) for v in magnitudes]
    if not mags:
        raise ValueError("magnitude sequence is empty")
    if first_k < 0:
        raise ValueError(f"first_k must be >= 0, got {first_k}")

    limit = min(n_cap, first_k + len(mags) - 1)
    for k in range(first_k, limit):
        if mags[k - first_k] <= mags[k + 1 - first_k]:
            return PlateauResult(
                k_star=k,
                magnitudes=tuple(mags[: k + 2 - first_k]),
                n_final=k + 1,
                first_k=first_k,
            )
    raise NoPlateauError(
        f"no plateau: magnitudes fall through order {limit} "
        f"without |Delta^k| <= |Delta^(k+1)| (cap {n_cap})"
    )


def corrected_forecast(
    gf_forecast: float, table: DifferenceTable, k_star: int
) -> float:
    """Add anchor deltas of orders 0..k_star to the raw forecast."""
    if not 0 <= k_star <= table.window:
        raise ValueError(
            f"k_star {k_star} out of range for window of size {table.window}"
        )
    total = float(gf_forecast)
    for k in range(k_star + 1):
        total += table.delta_at_anchor(k)
    return total


def correct_block(
    gf: np.ndarray, errors: np.ndarray, ends: np.ndarray, window: int, n_cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plateau-corrected forecasts of many anchors from one error block.

    Anchor i's window is errors[ends[i] - window : ends[i] + 1] and gf[i]
    is its raw forecast.  The caller checks that the errors are finite,
    that window <= ends[i] < len(errors) and that 1 <= n_cap <= window.
    The block is differenced as a whole, one order at a time, and each
    anchor reads its own delta of each order: a delta depends only on
    the errors it spans, so it equals the one in the anchor's
    DifferenceTable.  Differencing stops once every anchor has its
    plateau order k*, or at order ``n_cap``.

    Returns (igf, k_star, codes).  codes[i] is 0 when anchor i is
    corrected, 1 when its window is all zero and 2 when no plateau
    exists within ``n_cap``; then k_star[i] is -1 and igf[i] is gf[i].
    """
    # After k passes, diffs[j] is Delta^k ending at errors[start + k + j].
    start = window - n_cap
    diffs = errors[start:]
    rows = (ends - start) - np.arange(n_cap + 1)[:, None]
    deltas = [diffs[rows[0]]]
    mags = [np.abs(deltas[0])]
    # Only an anchor whose own error is exactly 0 can have a perfect
    # window.  (np.count_nonzero costs a fraction of ndarray.any() on the
    # small arrays a single forecast has.)
    if np.count_nonzero(deltas[0]) < len(ends):
        nonzero_before = np.concatenate(([0], np.cumsum(errors != 0.0)))
        perfect = nonzero_before[ends + 1] == nonzero_before[ends - window]
    else:
        perfect = np.zeros(len(ends), dtype=bool)
    searching = ~perfect  # magnitudes still falling
    for k in range(1, n_cap + 1):
        diffs = diffs[1:] - diffs[:-1]
        deltas.append(diffs[rows[k]])
        mags.append(np.abs(deltas[-1]))
        searching[mags[-2] <= mags[-1]] = False
        if not np.count_nonzero(searching):
            break
    mags = np.array(mags)
    codes = perfect + 2 * searching
    k_star = np.where(codes, -1, (mags[:-1] <= mags[1:]).argmax(axis=0))
    # Row j of the running sums is gf + Delta^0 + ... + Delta^(j-1), so
    # row k* + 1 is the IGF forecast and row 0 (k* = -1) is gf.
    sums = np.cumsum(np.array([gf] + deltas), axis=0)
    igf = sums[k_star + 1, np.arange(len(ends))]
    return igf, k_star, codes
