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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np


class NoPlateauError(RuntimeError):
    """No difference order satisfied the plateau rule within the cap."""


class DifferenceTable:
    """Difference rows of a forecast-error window, anchored at its end.

    Rows are computed on demand up to the window size and cached; the
    table itself is read-only from the caller's point of view.
    """

    def __init__(self, epsilon: np.ndarray, anchor: int | None = None):
        epsilon = np.asarray(epsilon, dtype=float)
        if epsilon.ndim != 1 or len(epsilon) < 1:
            raise ValueError("epsilon window must be a non-empty 1-d array")
        if not np.all(np.isfinite(epsilon)):
            raise ValueError("epsilon window contains non-finite values")
        self.epsilon = epsilon
        self.anchor = anchor
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
    source: Union[DifferenceTable, Sequence[float]],
    n_cap: int = 30,
    first_k: int = 0,
) -> PlateauResult:
    """Locate the plateau order in difference magnitudes.

    ``source`` is either a DifferenceTable (orders from 0, magnitudes
    taken at the anchor) or a raw magnitude sequence whose first entry is
    order ``first_k``.  The search scans orders k = first_k .. n-1, where
    n is ``n_cap`` or the last order available if that is smaller, for
    the smallest k with magnitude(k) <= magnitude(k+1); a table must
    therefore carry a window of at least ``n_cap``.
    """
    if n_cap < 1:
        raise ValueError(f"n_cap must be >= 1, got {n_cap}")
    anchor = None
    if isinstance(source, DifferenceTable):
        if first_k != 0:
            raise ValueError("first_k applies only to raw magnitude sequences")
        if source.window < n_cap:
            raise ValueError(
                f"table window {source.window} is smaller than n_cap {n_cap}"
            )
        mags = source.magnitudes(n_cap).tolist()
        anchor = source.anchor
    else:
        mags = [abs(float(v)) for v in source]
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
    where = "" if anchor is None else f" at anchor {anchor}"
    raise NoPlateauError(
        f"no plateau{where}: magnitudes fall through order {limit} "
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
