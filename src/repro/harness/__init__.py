"""repro.harness — experiment harness regenerating the paper's evaluation.

``engine`` schedules deterministic experiment cells over worker processes
with a content-addressed on-disk cache (``cache``); ``runner`` executes one
(workload, P, mode) combination; ``tables`` and ``figures`` regenerate
Tables I-IV and Figures 4-11 through the engine; ``reporting`` renders the
ASCII tables the bench targets print.
"""

from .bench import (
    compare as compare_bench,
    format_bench,
    load_bench,
    run_scaling_bench,
    save_bench,
)
from .cache import CACHE_SCHEMA_VERSION, CacheStats, RunCache, code_fingerprint
from .engine import (
    Cell,
    CellEvent,
    EngineMetrics,
    ExperimentEngine,
    configure_engine,
    get_engine,
    make_cell,
    make_suite_cells,
)
from .export import rows_to_csv, rows_to_json, save_rows
from .metrics import OverheadBreakdown, breakdown, overhead_fraction, state_space_summary
from .reporting import ascii_bars, fmt, percent, render_table
from .runner import (
    Mode,
    RunResult,
    chameleon_config_for,
    default_p_list,
    full_scale,
    overhead,
    run_mode,
)
from . import figures, tables

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "Cell",
    "CellEvent",
    "EngineMetrics",
    "ExperimentEngine",
    "Mode",
    "OverheadBreakdown",
    "RunCache",
    "RunResult",
    "ascii_bars",
    "breakdown",
    "chameleon_config_for",
    "code_fingerprint",
    "compare_bench",
    "configure_engine",
    "default_p_list",
    "figures",
    "fmt",
    "format_bench",
    "full_scale",
    "get_engine",
    "load_bench",
    "make_cell",
    "make_suite_cells",
    "overhead",
    "overhead_fraction",
    "percent",
    "render_table",
    "rows_to_csv",
    "rows_to_json",
    "run_mode",
    "run_scaling_bench",
    "save_bench",
    "save_rows",
    "state_space_summary",
    "tables",
]
