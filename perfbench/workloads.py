"""The three library workloads: survey_block, forecast_online and fit_sweep.

Each is a closed loop with one client: the next op starts when the
previous one returns.  A workload object builds its inputs in ``setup``,
runs op ``i`` in ``op``, reduces the op's output to plain numbers in
``compact`` and judges it in ``check`` (both outside the timed call).  The
series is the generator's default trajectory, so the reference records
hold for every seed; the seed draws which blocks, anchors or fit order
the ops visit.  Op ``i``'s inputs depend only on the seed and ``i``, so a
traced run can replay the exact ops of an untraced chunk.
"""

from __future__ import annotations

import numpy as np

import oracle

SERIES_LENGTH = 3000  # 2,947 anchors at lag 6, dimension 3 and window 40
TRAIN_STOP = 300
FIRST_POINT = TRAIN_STOP  # anchors start after the training range
BLOCK = 300
FLAG_BITS = {"no_plateau": 1, "no_correction_needed": 2, "near_zero_actual": 4}
FIT_LENGTHS = (300, 800, 1400, 2000)
FIT_SERIES_LENGTH = 2300  # room for 200 held-out points past the longest fit


def _none_to(value, fill):
    return fill if value is None else value


def compact_records(records) -> tuple:
    """(entry, k*, gf, igf, actual, gf_err, igf_err, flags) as tuples of numbers."""
    return tuple(
        (
            rec.entry,
            _none_to(rec.k_star, -1),
            rec.gf_forecast,
            rec.igf_forecast,
            _none_to(rec.actual, np.nan),
            _none_to(rec.gf_error_pct, np.nan),
            _none_to(rec.igf_error_pct, np.nan),
            sum(bit for flag, bit in FLAG_BITS.items() if flag in rec.flags),
        )
        for rec in records
    )


def same(a, b) -> bool:
    """Bit-for-bit equality of two compact outputs or raised errors.

    ``repr`` of a float round-trips exactly, so equal reprs mean equal bits.
    """
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return repr(a) == repr(b)


class Workload:
    pass_length = 1  # ops a run executes as a whole; see run.run_for
    op_length = 1  # calls that make one op
    refusals = ()  # errors that fail an op without making the run incorrect

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, pc) -> None:
        """Build the inputs and warm up; timed as set-up."""

    def before(self, i: int) -> None:
        """Untimed preparation of op ``i``."""

    def close(self) -> None:
        """Release what ``setup`` made."""


class _Forecasting(Workload):
    """Shared set-up of survey_block and forecast_online."""

    warmup_ops = 1

    def setup(self, pc) -> None:
        self.x = oracle.lorenz_x1(oracle.DEFAULT_STATE, SERIES_LENGTH)
        self.series = pc.TimeSeries(self.x, name="x1")
        self.space = pc.reconstruct(self.series, pc.EmbeddingParams(oracle.LAG, oracle.DIMENSION))
        self.fmap = pc.fit_kfold(
            self.series,
            self.space,
            pc.FitConfig(degree=2, include_constant=False, folds=10, training_range=(0, TRAIN_STOP)),
        )
        self.pc = pc
        self.last_point = self.space.point_count - 2
        self._prepare()
        for i in range(self.warmup_ops):
            self.op(-1 - i)
        self._oracle = None

    def prepare_check(self) -> None:
        self._oracle = oracle.ForecastOracle(
            self.x, np.array(self.fmap.basis.monomials, dtype=float), self.fmap.coefficients
        )
        ref = oracle.load_reference("library.json")
        self._golden = {row[0]: row[1:] for row in ref["records"]} if ref else None

    def check(self, i, out) -> str | None:
        if isinstance(out, BaseException):
            return f"op {i} raised {type(out).__name__}: {out}"
        for entry, k, gf, igf, *_ in out:
            point = entry - oracle.SPAN - 2
            why = self._oracle.mismatch(point, None if k < 0 else k, gf, igf)
            if why is None and self._golden is not None:
                want_k, want_gf, want_igf = self._golden[entry]
                if k != want_k or not oracle.close(gf, want_gf) or not oracle.close(igf, want_igf):
                    why = f"entry {entry}: ({k}, {gf!r}, {igf!r}) != reference ({want_k}, {want_gf!r}, {want_igf!r})"
            if why is not None:
                return why
        return None

    def records(self, i, out):
        """(k*, GF error %, IGF error %, no plateau) per corrected forecast."""
        if isinstance(out, BaseException):
            return
        for _, k, _, _, _, gf_err, igf_err, flags in out:
            known = not np.isnan(gf_err)
            yield (None if k < 0 else k), (gf_err if known else None), (igf_err if known else None), flags & 1


class SurveyBlock(_Forecasting):
    """One op: survey() over BLOCK consecutive anchors, the block drawn by the seed."""

    warmup_ops = 3

    def _prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self._starts = rng.integers(FIRST_POINT, self.last_point - BLOCK + 2, size=100_000)

    def op(self, i: int):
        first = int(self._starts[i]) + oracle.SPAN + 2
        return self.pc.survey(self.fmap, self.series, self.space, range(first, first + BLOCK))

    def compact(self, i, out):
        return compact_records(out.records)


class ForecastOnline(_Forecasting):
    """One op: forecast_improved at the next anchor, as a live forecaster makes it."""

    warmup_ops = 200

    def _prepare(self) -> None:
        self._span = self.last_point + 1 - FIRST_POINT
        self._offset = int(np.random.default_rng([self.seed, 2]).integers(self._span))

    def op(self, i: int):
        point = FIRST_POINT + (self._offset + i) % self._span
        return self.pc.forecast_improved(
            self.fmap, self.series, self.space, point, fallback_on_no_plateau=True
        )

    def compact(self, i, out):
        return compact_records((out,))


class FitSweep(Workload):
    """One op: fit_kfold (10 folds) for one candidate model, in a seeded order.

    Each pass visits every (degree 1-7, constant or not, training length)
    candidate once.  A fit fails when the program rejects (with FitError) a
    problem that the column-scaled oracle solves; a rejection the oracle
    shares is the documented behaviour and passes.  Any other error, or a
    fit that disagrees with the oracle, is a wrong answer.
    """

    CANDIDATES = [(d, c, n) for d in range(1, 8) for c in (False, True) for n in FIT_LENGTHS]
    pass_length = len(CANDIDATES)

    def setup(self, pc) -> None:
        self.x = oracle.lorenz_x1(oracle.DEFAULT_STATE, FIT_SERIES_LENGTH)
        self.series = pc.TimeSeries(self.x, name="x1")
        self.space = pc.reconstruct(self.series, pc.EmbeddingParams(oracle.LAG, oracle.DIMENSION))
        self.pc = pc
        self.refusals = (pc.FitError,)  # the program declining a fit it finds rank deficient
        self._orders = {}
        for degree in range(1, 8):
            for constant in (False, True):
                try:
                    self._fit(degree, constant, FIT_LENGTHS[0])
                except pc.FitError:
                    pass

    def candidate(self, i: int):
        per = len(self.CANDIDATES)
        passno, pos = divmod(i, per)
        if passno not in self._orders:
            self._orders[passno] = np.random.default_rng([self.seed, 3, passno]).permutation(per)
        return self.CANDIDATES[self._orders[passno][pos]]

    def _fit(self, degree, constant, length):
        config = self.pc.FitConfig(
            degree=degree, include_constant=constant, folds=10, training_range=(0, length)
        )
        return self.pc.fit_kfold(self.series, self.space, config)

    def op(self, i: int):
        return self._fit(*self.candidate(i))

    def compact(self, i, out):
        return (tuple(map(tuple, out.basis.monomials)), tuple(out.coefficients))

    def prepare_check(self) -> None:
        self._oracles = {}  # filled as candidates first appear

    def check(self, i, out) -> str | None:
        cand = self.candidate(i)
        if cand not in self._oracles:
            self._oracles[cand] = oracle.fit_oracle(self.x, cand[0], cand[1], cand[2])
        ref = self._oracles[cand]
        if isinstance(out, BaseException):
            if ref is None and isinstance(out, self.pc.FitError):
                return None
            return f"degree {cand[0]} constant {cand[1]} on {cand[2]} entries raised {type(out).__name__}: {out}"
        if ref is None:
            return None  # the oracle cannot judge a problem it finds rank deficient
        why = oracle.fit_mismatch(self.x, ref, out, cand[2])
        return None if why is None else f"degree {cand[0]} constant {cand[1]} on {cand[2]} entries: {why}"

    def records(self, i, out):
        return ()
