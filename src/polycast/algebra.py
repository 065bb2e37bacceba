"""Sparse multivariate polynomials, monomial bases, and vector fields.

A polynomial is stored as a mapping from exponent tuples to float
coefficients, one non-negative integer exponent per variable.  Canonical
form merges duplicate monomials and drops coefficients smaller than
``COEFF_EPS`` in magnitude; all arithmetic returns canonical results.

The canonical term order is graded lexicographic: terms are sorted by
ascending total degree, and within a degree lexicographically with
variable 0 strongest (for three variables: x1^2, x1*x2, x1*x3, x2^2,
x2*x3, x3^2).

Evaluation runs on straight-line code compiled once per polynomial
(``polynomial_lines``, ``compile_lines``), in storage order over Python
floats; overflow gives IEEE ``inf``/``nan``, never ``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]

# Coefficients below this magnitude are treated as exact zeros when a
# polynomial is put in canonical form.  Repeated directional derivatives
# would otherwise accumulate rounding-noise terms.
COEFF_EPS = 1e-15

# Terms per emitted statement: a single sum of many thousand terms would
# exceed the Python compiler's nesting limit.
_TERMS_PER_LINE = 100


def grlex_key(exponents: Sequence[int]) -> tuple:
    """Sort key realising graded-lexicographic order, variable 0 strongest."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomial_label(exponents: Monomial) -> str:
    """Human-readable form of an exponent tuple, e.g. ``x1^2*x3``."""
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial over ``variable_count`` real variables."""

    __slots__ = ("variable_count", "_terms", "_compiled")

    def __init__(self, variable_count: int, terms: Mapping[Monomial, float] | None = None):
        if variable_count < 1:
            raise ValueError(f"variable_count must be >= 1, got {variable_count}")
        merged: Dict[Monomial, float] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != variable_count:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, "
                    f"expected {variable_count}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff!r} for {exps}")
            merged[exps] = merged.get(exps, 0.0) + coeff
        self.variable_count = variable_count
        self._terms: Dict[Monomial, float] = {
            e: c for e, c in merged.items() if abs(c) >= COEFF_EPS
        }
        self._compiled: Callable[..., Tuple[float]] | None = None

    def __reduce__(self):
        # The compiled evaluator is rebuilt on demand, never pickled.
        return (Polynomial, (self.variable_count, self._terms))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variable_count: int) -> "Polynomial":
        return cls(variable_count)

    @classmethod
    def constant(cls, variable_count: int, value: float) -> "Polynomial":
        return cls(variable_count, {(0,) * variable_count: value})

    @classmethod
    def variable(cls, variable_count: int, index: int) -> "Polynomial":
        """The coordinate polynomial x_{index} (0-based index)."""
        if not 0 <= index < variable_count:
            raise ValueError(
                f"variable index {index} out of range for {variable_count} variables"
            )
        exps = tuple(1 if i == index else 0 for i in range(variable_count))
        return cls(variable_count, {exps: 1.0})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, float]:
        return dict(self._terms)

    def ordered_terms(self) -> Tuple[Tuple[Monomial, float], ...]:
        """Terms in graded-lexicographic order."""
        return tuple(sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0])))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int:
        """Largest total degree among stored terms; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def coefficient(self, exponents: Sequence[int]) -> float:
        return self._terms.get(tuple(exponents), 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.variable_count == other.variable_count
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.variable_count, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for exps, coeff in self.ordered_terms():
            label = monomial_label(exps)
            if label == "1":
                parts.append(f"{coeff:g}")
            else:
                parts.append(f"{coeff:g}*{label}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variable_count != other.variable_count:
            raise ValueError(
                f"variable counts differ: {self.variable_count} vs "
                f"{other.variable_count}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.variable_count, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0.0) + coeff
        return Polynomial(self.variable_count, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.variable_count, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.variable_count, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(
                self.variable_count,
                {e: c * float(other) for e, c in self._terms.items()},
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: Dict[Monomial, float] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.variable_count, out)

    __rmul__ = __mul__

    # -- calculus and evaluation ----------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.variable_count:
            raise ValueError(
                f"variable index {index} out of range for "
                f"{self.variable_count} variables"
            )
        out: Dict[Monomial, float] = {}
        for exps, coeff in self._terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = tuple(
                v - 1 if i == index else v for i, v in enumerate(exps)
            )
            out[lowered] = out.get(lowered, 0.0) + coeff * e
        return Polynomial(self.variable_count, out)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.variable_count:
            raise ValueError(
                f"point has dimension {len(point)}, expected {self.variable_count}"
            )
        if self._compiled is None:
            names = [f"x{i}" for i in range(self.variable_count)]
            self._compiled = compile_lines(
                names, polynomial_lines(self, names, "value"), ["value"]
            )
        return self._compiled(*[float(x) for x in point])[0]


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials over ``variable_count`` variables of total degree at
    most ``max_degree``, less the degree-0 one unless ``include_constant``;
    ``size`` counts them without listing them, and ``monomials`` lists
    them in graded-lexicographic order on first access."""

    variable_count: int
    max_degree: int
    include_constant: bool = True

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError(f"variable_count must be >= 1, got {self.variable_count}")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {self.max_degree}")

    @property
    def size(self) -> int:
        """C(max_degree + n, n) for n variables, less one without the constant."""
        n = self.variable_count
        return math.comb(self.max_degree + n, n) - (not self.include_constant)

    @cached_property
    def monomials(self) -> Tuple[Monomial, ...]:
        n = self.variable_count
        monos = []
        for degree in range(0 if self.include_constant else 1, self.max_degree + 1):
            for combo in combinations_with_replacement(range(n), degree):
                exps = [0] * n
                for var in combo:
                    exps[var] += 1
                monos.append(tuple(exps))
        monos.sort(key=grlex_key)
        return tuple(monos)

    def __len__(self) -> int:
        return len(self.monomials)

    def design_columns(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at every point.

        ``points`` has shape (rows, variable_count); the result is a
        C-ordered (rows, len(self)) array, column j holding monomial j
        evaluated row-wise.  Each variable is raised to every power up to
        ``max_degree`` once, and a column is the product of its variables'
        powers taken in variable order.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.variable_count:
            raise ValueError(
                f"points have dimension {points.shape[1]}, "
                f"expected {self.variable_count}"
            )
        powers = points[:, :, None] ** np.arange(self.max_degree + 1, dtype=float)
        # A gather along the last axis comes out F-ordered; writing into a
        # C-ordered array keeps the summation order of a later ``@``.
        columns = np.empty((len(points), len(self.monomials)))
        columns[...] = powers[:, 0, self._exponents[0]]
        for i in range(1, self.variable_count):
            columns *= powers[:, i, self._exponents[i]]
        return columns

    @cached_property
    def _exponents(self) -> np.ndarray:
        """The monomials as a (variable_count, terms) integer index array."""
        return np.array(self.monomials, dtype=np.intp).reshape(
            len(self.monomials), self.variable_count
        ).T


def polynomial_lines(
    poly: Polynomial, names: Sequence[str], target: str
) -> List[str]:
    """Python statements that leave ``poly`` evaluated at ``names`` in ``target``.

    The statements apply the operations of a term-by-term loop in the
    same order, so the result is bit for bit the loop's: ``target`` starts
    at 0.0 and adds the terms in storage order, each term being its
    coefficient times ``x_i`` (exponent 1) or ``x_i ** e`` (exponent
    e > 1) for increasing variable index i.
    """
    terms = []
    for exps, coeff in poly._terms.items():
        factors = [f"({coeff!r})"]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name} ** {e}")
        terms.append(" * ".join(factors))
    lines = []
    total = "0.0"
    for start in range(0, len(terms), _TERMS_PER_LINE):
        chunk = terms[start:start + _TERMS_PER_LINE]
        lines.append(f"{target} = {total} + " + " + ".join(chunk))
        total = target
    return lines or [f"{target} = 0.0"]


def compile_lines(
    params: Sequence[str], lines: Sequence[str], results: Sequence[str]
) -> Callable[..., Tuple[float, ...]]:
    """Compile straight-line ``lines`` into a function of ``params``.

    The function runs ``lines`` and returns the tuple of the ``results``
    expressions.  If a power overflows a Python float (``OverflowError``),
    it re-runs itself on ``np.float64`` arguments with overflow warnings
    off, so overflow gives IEEE ``inf``/``nan`` as a float product does.
    """
    args = ", ".join(params)
    body = "".join(f"        {line}\n" for line in lines)
    source = (
        f"def compiled({args}):\n"
        f"    try:\n{body}"
        f"        return ({', '.join(results)},)\n"
        f"    except OverflowError:\n"
        f"        return _in_numpy(compiled, ({args},))\n"
    )
    namespace = {"_in_numpy": _in_numpy}
    exec(compile(source, "<polycast compiled>", "exec"), namespace)
    return namespace["compiled"]


def _in_numpy(fn: Callable[..., Tuple[float, ...]], args: tuple) -> Tuple[float, ...]:
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(float(v) for v in fn(*[np.float64(a) for a in args]))


# The older spelling of MonomialBasis(variable_count, max_degree, include_constant).
enumerate_monomials = MonomialBasis


@dataclass(frozen=True)
class VectorField:
    """A polynomial vector field: component i gives dx_i/dt."""

    components: Tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("vector field needs at least one component")
        n = len(self.components)
        for i, comp in enumerate(self.components):
            if comp.variable_count != n:
                raise ValueError(
                    f"component {i} is over {comp.variable_count} variables, "
                    f"expected {n}"
                )

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def total_degree(self) -> int:
        return max(c.total_degree for c in self.components)

    def evaluate(self, state: Sequence[float]) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dimension,):
            raise ValueError(
                f"state has shape {state.shape}, expected ({self.dimension},)"
            )
        point = state.tolist()
        return np.array([c.evaluate(point) for c in self.components])


def lie_derivative(field: VectorField, poly: Polynomial) -> Polynomial:
    """Directional derivative of ``poly`` along ``field``.

    Returns sum_i f_i * d(poly)/dx_i, the action of the generator
    X = sum_i f_i d/dx_i on a scalar polynomial.
    """
    if poly.variable_count != field.dimension:
        raise ValueError(
            f"polynomial is over {poly.variable_count} variables, "
            f"field has dimension {field.dimension}"
        )
    out = Polynomial.zero(poly.variable_count)
    for i, f_i in enumerate(field.components):
        out = out + f_i * poly.differentiate(i)
    return out
