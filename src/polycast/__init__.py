"""Global polynomial forecasting for delay-embedded time series.

The pipeline: sample a scalar series (or read one), reconstruct a phase
space with delay coordinates, fit a global polynomial map that forecasts
the next entry, then correct each forecast with the plateau-order
partial sum of a backward-difference table over recent forecast errors.
"""

from .algebra import (
    COEFF_EPS,
    MonomialBasis,
    Polynomial,
    VectorField,
    enumerate_monomials,
    grlex_key,
    lie_derivative,
    monomial_label,
)
from .evaluate import (
    FLAG_NEAR_ZERO_ACTUAL,
    FLAG_NO_CORRECTION_NEEDED,
    FLAG_NO_PLATEAU,
    LOG_RATIO_CAP,
    NEAR_ZERO_THRESHOLD,
    ForecastRecord,
    LogRatioPoint,
    SurveyReport,
    equally_spaced,
    error_window,
    forecast_improved,
    log_ratio_series,
    percentage_error,
    survey,
)
from .config import RunConfig, load_config, parse_config_text
from .correction import (
    DifferenceTable,
    NoPlateauError,
    PlateauResult,
    corrected_forecast,
    find_plateau,
)
from .dynamics import (
    BLOWUP_LIMIT,
    DEFAULT_LORENZ_STATE,
    BlowupError,
    LorenzParams,
    Trajectory,
    build_truncated_flow_map,
    flow_step,
    lorenz_field,
    lorenz_series,
    rk4_integrate,
)
from .embedding import (
    EmbeddingParams,
    PhaseSpace,
    TimeSeries,
    reconstruct,
)
from .fitting import (
    RANK_TOLERANCE,
    FitConfig,
    FitError,
    PolynomialMap,
    RankDeficiencyError,
    UnderdeterminedSystemError,
    build_design_matrix,
    contiguous_folds,
    fit_kfold,
    fit_least_squares,
    usable_point_indices,
)
from .io import (
    load_map,
    read_series_csv,
    save_map,
    write_delta_table_csv,
    write_log_ratio_csv,
    write_phase_space_csv,
    write_report_csv,
    write_series_csv,
)

__version__ = "0.1.0"
