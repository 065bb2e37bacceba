"""Polynomial representation, monomial enumeration, and vector-field algebra."""

import math
import pickle
import warnings

import numpy as np
import pytest

from polycast import (
    MonomialBasis,
    Polynomial,
    VectorField,
    build_truncated_flow_map,
    enumerate_monomials,
    flow_step,
    grlex_key,
    lie_derivative,
    lorenz_field,
    monomial_label,
)
from polycast.dynamics import LorenzParams

from helpers import naive_poly_sum, reference_design_columns, reference_evaluate


def test_canonical_form_merges_and_drops_zeros():
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): 3.0})
    q = Polynomial(2, {(1, 0): -2.0})
    assert (p + q).terms == {(0, 1): 3.0}
    assert Polynomial(2, {(1, 1): 0.0}).is_zero
    assert Polynomial(2, {(1, 1): 1e-16}).is_zero


def test_construction_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): float("nan")})
    with pytest.raises(ValueError):
        Polynomial(0)


def test_constructors():
    assert Polynomial.zero(3).is_zero
    assert Polynomial.constant(2, 4.5).terms == {(0, 0): 4.5}
    assert Polynomial.variable(3, 1).terms == {(0, 1, 0): 1.0}
    with pytest.raises(ValueError):
        Polynomial.variable(3, 3)


def test_arithmetic_hand_examples():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == Polynomial(2, {(2, 0): 1.0, (0, 2): -1.0})
    assert (2.0 * x + x).terms == {(1, 0): 3.0}
    assert (-(x * y)).terms == {(1, 1): -1.0}
    assert (x + 1.5).terms == {(1, 0): 1.0, (0, 0): 1.5}
    with pytest.raises(ValueError):
        x + Polynomial.variable(3, 0)


def test_total_degree_and_len():
    p = Polynomial(3, {(1, 2, 0): 1.0, (0, 0, 1): 2.0})
    assert p.total_degree == 3
    assert len(p) == 2
    assert Polynomial.zero(3).total_degree == 0


def test_differentiate():
    # d/dx (x^2 y + 3y) = 2xy
    p = Polynomial(2, {(2, 1): 1.0, (0, 1): 3.0})
    assert p.differentiate(0) == Polynomial(2, {(1, 1): 2.0})
    assert p.differentiate(1) == Polynomial(2, {(2, 0): 1.0, (0, 0): 3.0})
    with pytest.raises(ValueError):
        p.differentiate(2)


def test_graded_lex_order():
    basis = enumerate_monomials(3, 2, include_constant=True)
    assert basis.monomials == (
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    # ordered_terms follows the same key
    p = Polynomial(3, {(0, 0, 2): 1.0, (1, 0, 0): 2.0, (0, 0, 0): 3.0})
    assert [e for e, _ in p.ordered_terms()] == [(0, 0, 0), (1, 0, 0), (0, 0, 2)]


def test_evaluate_basics():
    assert Polynomial.zero(3).evaluate((1.0, 2.0, 3.0)) == 0.0
    assert Polynomial.variable(3, 0).evaluate((3.5, 0.0, 0.0)) == 3.5
    with pytest.raises(ValueError):
        Polynomial.variable(3, 0).evaluate((1.0, 2.0))


def test_evaluate_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        terms = {}
        for _ in range(int(rng.integers(1, 8))):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=n))
            terms[exps] = float(rng.normal())
        p = Polynomial(n, terms)
        point = rng.uniform(-2.0, 2.0, size=n)
        expected = naive_poly_sum(p.terms, point)
        got = p.evaluate(point)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _random_polynomial(rng, max_exponent=5, max_terms=12):
    n = int(rng.integers(1, 5))
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        exps = tuple(int(e) for e in rng.integers(0, max_exponent + 1, size=n))
        terms[exps] = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4))
    return Polynomial(n, terms)


def _same_bits(a, b):
    return float(a).hex() == float(b).hex()


def test_evaluate_matches_reference_loop_bit_for_bit():
    # The compiled evaluator applies the reference loop's operations in
    # the same order, so every result is the same double, sign of zero
    # included, at tuple and array points alike.
    rng = np.random.default_rng(2024)
    for _ in range(400):
        p = _random_polynomial(rng)
        n = p.variable_count
        array_point = rng.uniform(-3.0, 3.0, size=n)
        for point in (tuple(array_point.tolist()), array_point, [0.0] * n, [-0.0] * n):
            assert _same_bits(p.evaluate(point), reference_evaluate(p, point))


def test_evaluate_long_polynomial_matches_reference():
    # 10,626 terms: more than one generated statement can hold.
    basis = enumerate_monomials(4, 20)
    rng = np.random.default_rng(5)
    p = Polynomial(4, dict(zip(basis.monomials, rng.normal(size=len(basis)))))
    point = tuple(rng.uniform(-1.0, 1.0, size=4).tolist())
    assert len(p) == len(basis)
    assert _same_bits(p.evaluate(point), reference_evaluate(p, point))


def test_pickle_round_trip_after_evaluate():
    p = Polynomial(2, {(2, 1): 1.5, (0, 0): -2.0})
    assert p.evaluate((2.0, 3.0)) == 16.0
    q = pickle.loads(pickle.dumps(p))
    assert q == p
    assert q.evaluate((2.0, 3.0)) == 16.0


def test_vector_field_evaluate_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    field = lorenz_field(LorenzParams())
    for _ in range(50):
        point = rng.uniform(-20.0, 20.0, size=3)
        got = field.evaluate(point)
        want = [reference_evaluate(c, point) for c in field.components]
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_overflow_gives_ieee_values_at_every_entry_point():
    # A Python float power raises OverflowError where numpy returns inf;
    # every entry point gives the IEEE value, with no exception or warning.
    square = Polynomial(1, {(2,): 1.0})
    mixed = VectorField((
        Polynomial(2, {(2, 0): 1.0, (0, 1): -1.0}),
        Polynomial(2, {(0, 3): -1.0}),
    ))
    fmap = build_truncated_flow_map(lorenz_field(LorenzParams()), 4, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in ((1e200,), np.array([1e200]), [-1e200]):
            assert square.evaluate(point) == math.inf
        for state in ((1e200, 1e200), np.array([1e200, 1e200])):
            assert list(mixed.evaluate(state)) == [math.inf, -math.inf]
        for state in ((1e200,) * 3, np.full(3, 1e200)):
            assert not np.any(np.isfinite(flow_step(fmap, state)))
    assert square.evaluate((3.0,)) == 9.0


def test_enumerate_monomials_size_formula():
    for n in range(1, 6):
        for d in range(0, 7):
            with_c = enumerate_monomials(n, d, include_constant=True)
            without_c = enumerate_monomials(n, d, include_constant=False)
            expected = math.comb(d + n, n)
            assert len(with_c) == with_c.size == expected
            assert len(without_c) == without_c.size == expected - 1
            assert all(sum(e) <= d for e in with_c.monomials)
            assert (0,) * n not in without_c.monomials


def test_enumerate_monomials_examples():
    assert len(enumerate_monomials(3, 5, True)) == 56
    assert enumerate_monomials(1, 0, True).monomials == ((0,),)
    assert len(enumerate_monomials(3, 2, True)) == 10


def test_enumerate_monomials_complete_and_sorted():
    basis = enumerate_monomials(3, 3, True)
    brute = {
        (i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if i + j + k <= 3
    }
    assert set(basis.monomials) == brute
    assert list(basis.monomials) == sorted(basis.monomials, key=grlex_key)


def test_design_columns():
    basis = enumerate_monomials(2, 2, True)
    points = np.array([[2.0, 3.0], [0.5, -1.0]])
    cols = basis.design_columns(points)
    assert cols.shape == (2, 6)
    assert np.array_equal(basis.design_columns(points), cols)
    for r, point in enumerate(points):
        for c, exps in enumerate(basis.monomials):
            assert cols[r, c] == pytest.approx(
                point[0] ** exps[0] * point[1] ** exps[1], rel=1e-14
            )
    with pytest.raises(ValueError):
        basis.design_columns(np.zeros((3, 3)))

    # bit for bit the broadcast formula, and C-ordered so that a later
    # ``@`` sums in the same order
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200])

    def check(basis, points):
        got = basis.design_columns(points)
        want = reference_design_columns(basis, points)
        assert got.flags["C_CONTIGUOUS"]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    for n in range(1, 5):
        for d in range(1, 8):
            for constant in (False, True):
                basis = enumerate_monomials(n, d, constant)
                for rows in (1, 41, 2000):
                    check(basis, rng.normal(scale=3.0, size=(rows, n)))
                check(basis, rng.normal(size=n))
                mixed = rng.normal(size=(60, n))
                mask = rng.random((60, n)) < 0.5
                mixed[mask] = rng.choice(specials, size=mask.sum())
                with np.errstate(all="ignore"):
                    check(basis, mixed)


def test_vector_field_validation():
    with pytest.raises(ValueError):
        VectorField(())
    with pytest.raises(ValueError):
        VectorField((Polynomial.variable(2, 0), Polynomial.variable(3, 0)))
    field = lorenz_field(LorenzParams())
    with pytest.raises(ValueError):
        field.evaluate((1.0, 2.0))


def test_lie_derivative_of_first_coordinate():
    field = lorenz_field(LorenzParams(sigma=10.0))
    got = lie_derivative(field, Polynomial.variable(3, 0))
    assert got == Polynomial(3, {(0, 1, 0): 10.0, (1, 0, 0): -10.0})


def test_lie_derivative_of_constant_is_zero():
    field = lorenz_field(LorenzParams())
    assert lie_derivative(field, Polynomial.constant(3, 7.0)).is_zero


def test_lie_derivative_dimension_mismatch():
    field = lorenz_field(LorenzParams())
    with pytest.raises(ValueError):
        lie_derivative(field, Polynomial.variable(2, 0))


def _random_poly(rng, n, max_degree):
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        exps = [0] * n
        for _ in range(int(rng.integers(0, max_degree + 1))):
            exps[int(rng.integers(0, n))] += 1
        terms[tuple(exps)] = float(rng.normal())
    return Polynomial(n, terms)


def test_lie_derivative_linearity_coefficient_exact():
    rng = np.random.default_rng(7)
    field = lorenz_field(LorenzParams())
    for _ in range(50):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 3)
        a, b = float(rng.normal()), float(rng.normal())
        left = lie_derivative(field, a * p + b * q)
        right = a * lie_derivative(field, p) + b * lie_derivative(field, q)
        assert left.variable_count == right.variable_count
        for exps in set(left.terms) | set(right.terms):
            assert left.coefficient(exps) == pytest.approx(
                right.coefficient(exps), rel=1e-12, abs=1e-12
            )


def test_lie_derivative_leibniz_coefficient_exact():
    rng = np.random.default_rng(11)
    field = lorenz_field(LorenzParams())
    for _ in range(50):
        p = _random_poly(rng, 3, 3)
        q = _random_poly(rng, 3, 3)
        left = lie_derivative(field, p * q)
        right = lie_derivative(field, p) * q + p * lie_derivative(field, q)
        for exps in set(left.terms) | set(right.terms):
            assert left.coefficient(exps) == pytest.approx(
                right.coefficient(exps), rel=1e-12, abs=1e-12
            )


def test_second_directional_derivative_matches_finite_differences():
    # X^2[x1] at a point equals the derivative of X[x1] along the field,
    # estimated by central differences with step 1e-6.
    field = lorenz_field(LorenzParams())
    g = lie_derivative(field, Polynomial.variable(3, 0))
    xg = lie_derivative(field, g)
    rng = np.random.default_rng(3)
    for _ in range(10):
        point = rng.uniform(-5.0, 5.0, size=3)
        direction = field.evaluate(point)
        h = 1e-6
        fd = (g.evaluate(point + h * direction) - g.evaluate(point - h * direction)) / (2 * h)
        assert xg.evaluate(point) == pytest.approx(fd, rel=1e-6)


def test_lie_derivative_degree_bound():
    field = lorenz_field(LorenzParams())
    d = max(c.total_degree for c in field.components)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = _random_poly(rng, 3, 3)
        got = lie_derivative(field, p)
        if not got.is_zero:
            assert got.total_degree <= p.total_degree - 1 + d


def test_monomial_label():
    assert monomial_label((0, 0, 0)) == "1"
    assert monomial_label((1, 0, 0)) == "x1"
    assert monomial_label((2, 1, 0)) == "x1^2*x2"
