"""Forecasting exceptional publication-share growth in research communities."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus,
    CorpusError,
    CorpusMeta,
    JournalRank,
    PaperRecord,
    load_corpus,
    normalize_terms,
    save_corpus,
)
from .citegraph import CitationGraph, build_graph  # noqa: F401
from .cluster import (  # noqa: F401
    ClusterConfig,
    ClusterError,
    Partition,
    leiden,
    leiden_best_of,
    load_partition,
    partition_quality,
    save_partition,
    tune_resolution,
)
from .assign import assign_new_papers  # noqa: F401
from .indicators import (  # noqa: F401
    INDICATOR_NAMES,
    IndicatorTable,
    Panel,
    standardize,
)
from .regression import (  # noqa: F401
    CollinearityError,
    ProbitFit,
    SeparationError,
    fit_probit,
    pseudo_r2,
    stepwise_select,
)
from .forecast import (  # noqa: F401
    CompositeModel,
    ForecastRecord,
    build_forecasts,
    composite_score,
    growth_rate,
    label_exceptional,
    oracle_n,
    select_top_n,
)
from .evaluate import (  # noqa: F401
    ContingencyReport,
    TaxonomyMap,
    contingency,
    evaluate_slices,
    lifecycle_report,
)
from .synth import SynthConfig, SynthResult, generate, load_truth  # noqa: F401
from .pipeline import (  # noqa: F401
    PipelineConfig,
    build_model,
    extend_model,
    fit_composite,
    forecast_year,
    indicator_table,
    run_pipeline,
)
