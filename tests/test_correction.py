"""Backward-difference tables, plateau detection, corrected forecasts."""

import numpy as np
import pytest

from polycast import (
    DifferenceTable,
    NoPlateauError,
    corrected_forecast,
    find_plateau,
)
from polycast.correction import correct_block

from helpers import (
    ACTUAL_B,
    GF_B,
    IGF_B,
    KSTAR_A,
    KSTAR_B,
    KSTAR_C,
    KSTAR_D,
    MAGS_A,
    MAGS_B,
    MAGS_C,
    MAGS_D,
    backward_difference_oracle,
    eps_from_deltas,
    signed_deltas,
)


def test_difference_rows_hand_example():
    table = DifferenceTable(np.array([1.0, 2.0, 4.0]))
    assert table.window == 2
    assert np.array_equal(table.row(0), [1.0, 2.0, 4.0])
    assert np.array_equal(table.row(1), [1.0, 2.0])
    assert np.array_equal(table.row(2), [1.0])
    assert table.delta_at_anchor(0) == 4.0
    assert table.delta_at_anchor(1) == 2.0
    assert table.delta_at_anchor(2) == 1.0
    assert np.array_equal(table.magnitudes(2), [4.0, 2.0, 1.0])


def test_row_lengths_and_caching():
    rng = np.random.default_rng(0)
    table = DifferenceTable(rng.normal(size=12))
    for k in range(12):
        assert len(table.row(k)) == 12 - k
    # rows are cached, not recomputed
    assert table.row(5) is table.row(5)
    with pytest.raises(ValueError):
        table.row(12)
    with pytest.raises(ValueError):
        table.row(-1)


def test_table_validation():
    with pytest.raises(ValueError):
        DifferenceTable(np.array([]))
    with pytest.raises(ValueError):
        DifferenceTable(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        DifferenceTable(np.array([1.0, np.nan]))


def test_table_keeps_anchor_and_epsilon():
    table = DifferenceTable(np.arange(5.0))
    assert np.array_equal(table.epsilon, np.arange(5.0))
    # orders past the window size do not exist
    with pytest.raises(ValueError):
        DifferenceTable(np.ones(3)).magnitudes(3)


def test_perfect_forecasts_give_zero_rows():
    actuals = np.linspace(0.0, 1.0, 8)
    table = DifferenceTable(actuals - actuals)
    for k in range(8):
        assert np.array_equal(table.row(k), np.zeros(8 - k))


def test_anchor_delta_matches_binomial_identity():
    # Delta^k eps(P) = sum_j (-1)^j C(k, j) eps(P - j)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a = int(rng.integers(13, 26))
        eps = rng.normal(size=a + 1)
        table = DifferenceTable(eps)
        k = int(rng.integers(0, 13))
        expected = backward_difference_oracle(eps, k)
        assert table.delta_at_anchor(k) == pytest.approx(
            expected, rel=1e-10, abs=1e-10
        )


def test_rows_above_zero_ignore_constant_shift():
    rng = np.random.default_rng(1)
    eps = rng.normal(size=15)
    shifted = DifferenceTable(eps + 5.0)
    plain = DifferenceTable(eps)
    for k in range(1, 15):
        assert np.allclose(shifted.row(k), plain.row(k), rtol=0, atol=1e-12)


def test_plateau_frozen_case_a():
    result = find_plateau(MAGS_A, first_k=1)
    assert result.k_star == KSTAR_A == 5
    assert result.first_k == 1
    assert result.magnitudes == MAGS_A[: result.n_final - result.first_k + 1]


def test_plateau_frozen_case_b():
    result = find_plateau(MAGS_B, first_k=1)
    assert result.k_star == KSTAR_B == 3


def test_plateau_frozen_case_c():
    assert find_plateau(MAGS_C).k_star == KSTAR_C == 1


def test_plateau_frozen_case_d():
    assert find_plateau(MAGS_D).k_star == KSTAR_D == 3


def test_plateau_tie_counts_as_stopped():
    assert find_plateau((5.0, 3.0, 3.0, 1.0)).k_star == 1
    assert find_plateau((1.0, 2.0, 0.5)).k_star == 0


def test_plateau_n_final_is_last_order_compared():
    # the search stops at the first rise: n_final is k* + 1, and the
    # reported magnitudes run through it
    result = find_plateau(MAGS_C, n_cap=30)
    assert result.n_final == KSTAR_C + 1 == 2
    assert result.magnitudes == MAGS_C[:3]
    result = find_plateau(MAGS_A, first_k=1)
    assert result.n_final == KSTAR_A + 1
    assert result.magnitudes == MAGS_A[: KSTAR_A + 1]


def test_plateau_k_star_independent_of_cap():
    # any cap that reaches the first rise finds the same plateau; a cap
    # short of it finds none
    for mags, first_k, k_star in (
        (MAGS_A, 1, KSTAR_A), (MAGS_B, 1, KSTAR_B),
        (MAGS_C, 0, KSTAR_C), (MAGS_D, 0, KSTAR_D),
    ):
        for n_cap in range(k_star + 1, 31):
            assert find_plateau(mags, n_cap=n_cap, first_k=first_k).k_star == k_star
        with pytest.raises(NoPlateauError):
            find_plateau(mags, n_cap=k_star, first_k=first_k)


def test_no_plateau_on_strictly_decreasing():
    mags = tuple(2.0 ** -k for k in range(31))
    with pytest.raises(NoPlateauError):
        find_plateau(mags, n_cap=30)


def test_find_plateau_validation():
    with pytest.raises(ValueError):
        find_plateau(())
    with pytest.raises(ValueError):
        find_plateau((1.0, 2.0), first_k=-1)
    with pytest.raises(ValueError):
        find_plateau((1.0, 2.0), n_cap=0)


def test_all_zero_window_plateaus_at_zero():
    table = DifferenceTable(np.zeros(31))
    result = find_plateau(table.magnitudes(30))
    assert result.k_star == 0
    assert corrected_forecast(4.25, table, result.k_star) == 4.25


def test_constant_bias_corrected_exactly():
    # eps identically c: row 1 is all zero, so the plateau sits at k = 1
    # and the correction adds back exactly c.
    table = DifferenceTable(np.full(31, 0.37))
    result = find_plateau(table.magnitudes(30))
    assert result.k_star == 1
    assert corrected_forecast(10.0, table, result.k_star) == pytest.approx(
        10.37, abs=1e-12
    )


def test_corrected_forecast_reproduces_worked_column():
    # rebuild the signed error window from the printed columns, then check
    # the partial-sum corrections against every printed order
    deltas = signed_deltas(GF_B, MAGS_B, IGF_B)
    table = DifferenceTable(eps_from_deltas(deltas))
    for k in range(1, 21):
        assert corrected_forecast(GF_B, table, k) == pytest.approx(
            IGF_B[k - 1], abs=1e-8
        )
    for k in range(1, 21):
        assert abs(table.delta_at_anchor(k)) == pytest.approx(
            MAGS_B[k - 1], abs=1e-9
        )
    assert corrected_forecast(GF_B, table, KSTAR_B) == pytest.approx(
        7.225640377, abs=1e-8
    )
    assert ACTUAL_B == pytest.approx(7.225654731)


def test_corrected_forecast_range_check():
    table = DifferenceTable(np.ones(5))
    with pytest.raises(ValueError):
        corrected_forecast(0.0, table, 5)
    with pytest.raises(ValueError):
        corrected_forecast(0.0, table, -1)


def test_partial_sums_telescope_to_next_error():
    # For any K: eps(P+1) = sum_{k<=K} Delta^k eps(P) + Delta^{K+1} eps(P+1),
    # so the order-K correction misses the truth by exactly the next delta.
    rng = np.random.default_rng(4)
    for _ in range(50):
        e = rng.normal(size=20)
        prev = DifferenceTable(e[:-1])
        nxt = DifferenceTable(e)
        for K in range(11):
            partial = sum(prev.delta_at_anchor(k) for k in range(K + 1))
            residual = nxt.delta_at_anchor(K + 1)
            assert partial + residual == pytest.approx(
                e[-1], rel=1e-11, abs=1e-11
            )


def _reference_block(gf, errors, ends, window, n_cap):
    """(igf, k*, code) per anchor, each from its own DifferenceTable."""
    out = []
    for g, end in zip(gf, ends):
        table = DifferenceTable(errors[end - window : end + 1])
        if not table.epsilon.any():
            out.append((g, -1, 1))
            continue
        try:
            k = find_plateau(table.magnitudes(n_cap), n_cap=n_cap).k_star
        except NoPlateauError:
            out.append((g, -1, 2))
        else:
            out.append((corrected_forecast(g, table, k), k, 0))
    return out


def _assert_block_matches_reference(rng, errors, ends, window, n_cap):
    gf = rng.normal(size=len(ends))
    igf, k_star, codes = correct_block(gf, errors, ends, window, n_cap)
    expected = _reference_block(gf, errors, ends, window, n_cap)
    assert list(zip(igf.tolist(), k_star.tolist(), codes.tolist())) == expected
    return k_star, codes


def test_correct_block_matches_per_anchor_reference():
    rng = np.random.default_rng(11)
    # random blocks: rough errors plateau early, smooth ones late
    for _ in range(40):
        window = int(rng.integers(2, 41))
        n_cap = int(rng.integers(1, window + 1))
        t = np.arange(int(rng.integers(window + 1, 200)))
        errors = rng.normal(size=len(t)) * 10.0 ** rng.integers(-12, 1)
        if rng.random() < 0.5:
            errors = 1e-3 * np.sin(0.05 * t + rng.random()) + errors * 1e-9
        ends = rng.integers(window, len(t), size=int(rng.integers(1, 60)))
        _assert_block_matches_reference(rng, errors, ends, window, n_cap)

    # planted windows, each ending at a known position of one block
    window, n_cap = 12, 10
    pieces = [
        rng.normal(size=window + 3),
        # ties |Delta^1| = |Delta^2| and |Delta^2| = |Delta^3| stop the search
        eps_from_deltas([5.0, 3.0, -3.0, 1.0] + [7.0] * (window - 3)),
        eps_from_deltas([8.0, -4.0, 2.0, 2.0] + [1.0] * (window - 3)),
        # a zero stretch longer than the window, then one shorter
        np.zeros(window + 4),
        rng.normal(size=3),
        np.zeros(5),
        # anchor deltas of exactly 2^-k: no plateau below any cap
        2.0 ** -np.arange(window, -1, -1),
        rng.normal(size=4),
    ]
    errors = np.concatenate(pieces)
    last = np.cumsum([len(p) for p in pieces]) - 1
    zeros = last[3]
    planted = [last[1], last[2], zeros - 2, zeros, zeros + 1, last[5], last[6]]
    ends = np.concatenate((planted, planted[::-1], rng.integers(window, len(errors), 30)))
    k_star, codes = _assert_block_matches_reference(rng, errors, ends, window, n_cap)
    assert k_star[:2].tolist() == [1, 2]
    # perfect windows inside the long stretch; the anchor just past it;
    # the short stretch's last error is 0 but its window is not all 0
    assert codes[2:7].tolist() == [1, 1, 0, 0, 2]
