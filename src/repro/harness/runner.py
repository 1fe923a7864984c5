"""Experiment runner: one workload x process-count x tracing mode.

Four modes reproduce the paper's comparison points:

* ``APP``        — uninstrumented application (NullTracer)
* ``SCALATRACE`` — ScalaTrace V2 default: per-rank tracing, global merge in
  ``MPI_Finalize`` over all P ranks
* ``CHAMELEON``  — online clustering with markers (the contribution)
* ``ACURDION``   — signature clustering once at finalize (Table III baseline)

Every run is deterministic; *overhead* is the virtual-time difference
against the APP run of the same configuration, aggregated over all ranks
(the paper reports aggregated wall-clock across nodes).
"""

from __future__ import annotations

import enum
import hashlib
import os
from itertools import chain
from dataclasses import dataclass, field
from typing import Any

from ..core.acurdion import AcurdionTracer
from ..core.chameleon import ChameleonStats, ChameleonTracer
from ..core.config import ChameleonConfig
from ..faults.plan import FaultPlan
from ..obs.instrument import NULL_INSTRUMENT, Instrument, ObsData, Recorder
from ..obs.metrics import MetricsRegistry
from ..scalatrace.trace import Trace
from ..scalatrace.tracer import ScalaTraceTracer, TracerStats
from ..simmpi.launcher import run_spmd
from ..simmpi.simconfig import DEFAULT_CONFIG, SimConfig
from ..workloads.base import NullTracer, Workload
from ..workloads.registry import PAPER_K


class Mode(enum.Enum):
    APP = "app"
    SCALATRACE = "scalatrace"
    CHAMELEON = "chameleon"
    ACURDION = "acurdion"


def full_scale() -> bool:
    """Paper-scale runs (P up to 1024) when REPRO_FULL_SCALE=1."""
    return os.environ.get("REPRO_FULL_SCALE", "0") == "1"


def default_p_list() -> list[int]:
    """Process counts for scaling sweeps (paper: 16..1024)."""
    return [16, 64, 256, 1024] if full_scale() else [16, 64]


@dataclass
class RunResult:
    """Everything the tables/figures need from one run."""

    mode: Mode
    nprocs: int
    workload: str
    max_time: float  # virtual makespan
    total_time: float  # aggregated over ranks (paper's overhead basis)
    clocks: list[float]
    busy_times: list[float] = field(default_factory=list)
    lead_ranks: set[int] = field(default_factory=set)
    trace: Trace | None = None
    tracer_stats: list[TracerStats] = field(default_factory=list)
    chameleon_stats: list[ChameleonStats] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    #: ranks that crashed under fault injection (empty on fault-free runs)
    failed_ranks: tuple[int, ...] = ()
    #: event timeline + live metrics, present only when the run executed
    #: with a Recorder (never populated from the cache)
    obs: ObsData | None = None

    # -- metrics ------------------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """This run's :class:`~repro.obs.metrics.MetricsRegistry`.

        Built fresh on every call from the per-rank tracer/Chameleon/
        ACURDION statistics (names ``tracer/<field>``, ``chameleon/<field>``,
        ``acurdion/<field>``, labelled by rank and — for per-state counts —
        phase), merged with the live metrics of ``obs`` when the run was
        instrumented.  This is the single typed collection path behind
        :meth:`stat` and the exporters.
        """
        reg = MetricsRegistry()
        for rank, st in enumerate(self.tracer_stats):
            for name in ("events_recorded", "events_skipped", "record_time",
                         "merge_time", "merge_comm_time", "peak_bytes"):
                reg.count(f"tracer/{name}", float(getattr(st, name)),
                          rank=rank)
        for rank, cs in enumerate(self.chameleon_stats):
            for state, nbytes in cs.bytes_by_state.items():
                reg.count("tracer/bytes_by_state", float(nbytes),
                          rank=rank, phase=state)
            for name in ("marker_invocations", "effective_calls",
                         "reclusterings", "signature_time", "vote_time",
                         "clustering_time", "intercompression_time",
                         "k_used", "num_callpaths"):
                reg.count(f"chameleon/{name}", float(getattr(cs, name)),
                          rank=rank)
            for state, n in cs.state_counts.items():
                reg.count("chameleon/state_markers", float(n),
                          rank=rank, phase=state)
        for rank, entry in enumerate(self.extra.get("acurdion", ())):
            for name, value in entry.items():
                reg.count(f"acurdion/{name}", float(value), rank=rank)
        if self.obs is not None:
            reg.merge(self.obs.metrics)
        return reg

    def stat(self, name: str, *, source: str = "auto",
             rank: int | None = None, phase: str | None = None) -> float:
        """Aggregated metric lookup backed by :meth:`registry`.

        ``name`` may be fully qualified (``"chameleon/vote_time"``) or bare
        (``"vote_time"``); a bare name is resolved through ``source`` —
        ``"tracer"``, ``"chameleon"``, ``"acurdion"``, or ``"auto"`` to try
        each prefix (then the bare name itself) in that order.  Missing
        metrics are 0.0, so callers never branch on which stats dicts a
        mode happened to populate.
        """
        reg = self.registry()
        if "/" in name:
            candidates = [name]
        elif source == "auto":
            candidates = [f"tracer/{name}", f"chameleon/{name}",
                          f"acurdion/{name}", name]
        else:
            candidates = [f"{source}/{name}"]
        for candidate in candidates:
            if reg.has(candidate):
                return reg.value(candidate, rank=rank, phase=phase)
        return 0.0

    # -- aggregates ---------------------------------------------------------

    @property
    def cstats0(self) -> ChameleonStats:
        if not self.chameleon_stats:
            raise ValueError("not a Chameleon run")
        return self.chameleon_stats[0]

    def fingerprint(self) -> str:
        """Canonical content digest of this result.

        Two runs of the same cell — serial, parallel, or round-tripped
        through the cache — produce equal fingerprints; the trace is
        compared via its text serialization because trace nodes hold
        identity-compared helper objects.
        """
        h = hashlib.sha256()
        # one rank's marker log at a time: their joint repr is large
        for part in chain([
            self.mode.value,
            str(self.nprocs),
            self.workload,
            repr(self.max_time),
            repr(self.total_time),
            repr(self.clocks),
            repr(self.busy_times),
            repr(sorted(self.lead_ranks)),
            repr(self.failed_ranks),
            self.trace.serialize() if self.trace is not None else "",
            repr(self.tracer_stats),
        ], map(repr, self.chameleon_stats), [
            repr(sorted(self.extra.items(), key=lambda kv: kv[0])),
        ]):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()


def chameleon_config_for(
    workload: Workload, call_frequency: int = 1, **overrides: Any
) -> ChameleonConfig:
    """The paper's configuration for a workload: K from Table I, the
    dedup signature filter where the paper applies it (POP).  Window,
    ``krandom`` seed and cost model are constants, not overrides."""
    kwargs: dict[str, Any] = {
        "k": PAPER_K.get(workload.name, getattr(workload, "paper_k", 9)),
        "call_frequency": call_frequency,
    }
    if getattr(workload, "needs_signature_filter", False):
        kwargs["signature_filter"] = "dedup"
    kwargs.update(overrides)
    return ChameleonConfig(**kwargs)


def run_mode(
    workload: Workload,
    nprocs: int,
    mode: Mode,
    config: ChameleonConfig | None = None,
    instrument: Instrument | None = None,
    faults: FaultPlan | None = None,
    sim: SimConfig | None = None,
) -> RunResult:
    """Execute one (workload, P, mode) combination.

    ``sim`` carries every simulator engine option as one
    :class:`~repro.simmpi.SimConfig` (network model, gate strategy,
    step budget).  Both gate strategies yield bit-identical results
    and virtual times, so the switch is deliberately excluded from
    :meth:`Cell.digest`.

    Pass a :class:`~repro.obs.instrument.Recorder` as ``instrument`` to
    capture the run's event timeline; its snapshot is attached to
    ``RunResult.obs``.  The default no-op instrument leaves virtual time
    bit-identical to an uninstrumented run.

    ``faults`` injects a deterministic :class:`~repro.faults.plan.FaultPlan`
    into the simulation; crashed ranks contribute no per-rank results and
    are reported in ``RunResult.failed_ranks`` (with the injector's event
    counters under ``extra["fault_summary"]``).  ``faults=None`` (or an
    empty plan) is guaranteed not to perturb virtual time.
    """
    cfg = config or chameleon_config_for(workload)
    ins = instrument if instrument is not None else NULL_INSTRUMENT
    sim = sim or DEFAULT_CONFIG

    async def main(ctx):
        if mode is Mode.APP:
            tracer: Any = NullTracer(ctx)
        elif mode is Mode.SCALATRACE:
            tracer = ScalaTraceTracer(ctx, tree_arity=cfg.tree_arity)
        elif mode is Mode.CHAMELEON:
            tracer = ChameleonTracer(ctx, cfg)
        elif mode is Mode.ACURDION:
            tracer = AcurdionTracer(ctx, cfg)
        else:  # pragma: no cover - exhaustive
            raise ValueError(mode)
        # The last frame of every stack signature is this line: moving it
        # renumbers the signatures of every traced run.
        await workload.run(ctx, tracer)
        trace = await tracer.finalize()
        out: dict[str, Any] = {"trace": trace}
        if isinstance(tracer, ScalaTraceTracer):
            out["stats"] = tracer.stats
        if isinstance(tracer, ChameleonTracer):
            out["cstats"] = tracer.cstats
            out["is_lead"] = tracer.tracing
        if isinstance(tracer, AcurdionTracer):
            out["acurdion"] = {
                "clustering_time": tracer.clustering_time,
                "intercompression_time": tracer.intercompression_time,
            }
        return out

    res = run_spmd(main, nprocs, config=sim, instrument=ins, faults=faults)
    # Crashed ranks park with result None: tolerate holes everywhere and
    # take the trace from the first rank that holds one (rank 0 normally;
    # the lowest survivor when the tracer degraded after rank 0 died).
    per_rank = [r if isinstance(r, dict) else {} for r in res.results]
    result = RunResult(
        mode=mode,
        nprocs=nprocs,
        workload=workload.name,
        max_time=res.max_time,
        total_time=res.total_time,
        clocks=res.clocks,
        busy_times=res.busy_times,
        lead_ranks={
            rank for rank, r in enumerate(per_rank) if r.get("is_lead")
        },
        trace=next(
            (r["trace"] for r in per_rank if r.get("trace") is not None), None
        ),
        tracer_stats=[r["stats"] for r in per_rank if "stats" in r],
        chameleon_stats=[r["cstats"] for r in per_rank if "cstats" in r],
        failed_ranks=res.failed_ranks,
    )
    if any("acurdion" in r for r in per_rank):
        result.extra["acurdion"] = [
            r.get("acurdion", {}) for r in per_rank
        ]
    if res.fault_summary:
        result.extra["fault_summary"] = dict(res.fault_summary)
    if isinstance(ins, Recorder):
        result.obs = ins.snapshot(
            meta={
                "workload": workload.name,
                "nprocs": nprocs,
                "mode": mode.value,
            }
        )
    return result


def overhead(traced: RunResult, app: RunResult) -> float:
    """Aggregated tracing overhead in virtual seconds (>= 0)."""
    return max(traced.total_time - app.total_time, 0.0)
