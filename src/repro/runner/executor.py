"""Executor backends: the compute half of the campaign fabric.

One :class:`ExecutorBackend` turns a submitted batch of
:class:`~repro.runner.units.WorkUnit` shards into a stream of
:class:`UnitResult`\\ s.  The protocol is deliberately tiny —
``submit`` / ``as_completed`` / ``shutdown`` — and the contract is
absolute: **every backend yields the same outcomes**, because a unit's
outcome is a pure function of the unit (see :mod:`repro.runner.units`);
backends only decide *where* and *with what fault tolerance* units run.

* :class:`SerialBackend` — in-process, in order; no pickling, no
  subprocesses.  The reference the parallel backend is verified against.
* :class:`~repro.runner.cluster.ClusterBackend` — work-stealing queue
  over independent worker subprocesses with lease-based claims,
  heartbeat liveness and re-dispatch of units lost to killed or hung
  workers (its own module).  A unit that raises surfaces as a typed
  :class:`WorkerCrashError` instead of a raw remote traceback.

Observability rides the same wire as before the fabric existed: every
out-of-process worker clears the process :data:`repro.obs.REGISTRY`
before a unit and ships its contribution back next to the outcome
(:func:`repro.obs.capture_payload`); the caller folds payloads in
associatively, so counters, histograms and (under ``REPRO_OBS=trace``)
spans survive any backend with the same totals a serial run reports.
Payloads are always shipped, because the demand-kernel counters behind
the CLI's figure diagnostics predate the ``REPRO_OBS`` knob and must
keep working with it off; everything gated stays near-free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import obs
from repro.obs import clock
from repro.obs.forensics import assemble_postmortem
from repro.obs.journal import active_journal
from repro.experiments.acceptance import BucketOutcome
from repro.runner.store import unit_key
from repro.runner.units import WorkUnit, run_unit
from repro.util.env import RUNNER_BACKENDS, runner_backend_from_env

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.progress import ProgressReporter

__all__ = [
    "UnitResult",
    "WorkerCrashError",
    "FabricObserver",
    "ExecutorBackend",
    "SerialBackend",
    "default_jobs",
    "resolve_backend",
    "registered_backends",
]


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0`` (\"use the machine\")."""
    return max(1, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1))


@dataclass(frozen=True)
class UnitResult:
    """One finished unit: its position in the submitted batch, the
    outcome, and the worker's obs payload (``None`` when the unit ran in
    the calling process and recorded straight into the live registry)."""

    pos: int
    outcome: BucketOutcome
    payload: dict | None = None


class WorkerCrashError(RuntimeError):
    """A work unit could not be completed by any worker.

    Carries everything a post-mortem needs instead of a raw worker
    traceback: the failing :class:`WorkUnit` and its content key (the
    shard the campaign is missing), how many attempts were made, the age
    of the responsible worker's last heartbeat when it was given up on,
    the last error detail (a formatted worker traceback for an
    exception, or a liveness description for a killed/hung worker) and —
    when an event journal was active — the full postmortem bundle the
    conductor assembled from it (:mod:`repro.obs.forensics`).
    """

    def __init__(
        self,
        unit: WorkUnit,
        *,
        attempts: int,
        heartbeat_age: float | None = None,
        detail: str = "",
        postmortem: dict | None = None,
    ):
        self.unit = unit
        self.unit_key = unit_key(unit)
        self.attempts = attempts
        self.heartbeat_age = heartbeat_age
        self.detail = detail
        self.postmortem = postmortem
        age = (
            f", last heartbeat {heartbeat_age:.2f}s ago"
            if heartbeat_age is not None
            else ""
        )
        message = (
            f"work unit {self.unit_key[:12]} "
            f"(label={unit.config.label!r}, m={unit.config.m}, "
            f"bucket={unit.bucket}) failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}{age}"
        )
        if detail:
            message += f"\n{detail.rstrip()}"
        super().__init__(message)


@dataclass
class FabricObserver:
    """Bridges backend lifecycle events to progress + obs + the journal.

    Backends call these hooks; the observer fans them out to the
    (optional) :class:`~repro.runner.progress.ProgressReporter`, to the
    obs registry when recording is on (``runner.retries`` /
    ``runner.lost-workers`` counters, worker liveness and heartbeat-age
    gauges), and to the event journal when ``REPRO_OBS_JOURNAL`` is set
    (``retry`` / ``reclaim`` / ``worker-lost`` / ``workers`` /
    ``lease-expired`` events; on every reclaim the postmortem bundle is
    journaled too, so forensic evidence survives even when the retry
    eventually succeeds).  A default-constructed observer is a cheap
    no-op sink, so backends never need ``if observer`` checks.
    """

    progress: "ProgressReporter | None" = None

    def unit_retried(self, unit: WorkUnit, attempt: int) -> None:
        if obs.active():
            obs.REGISTRY.add("runner.retries")
        if self.progress is not None:
            self.progress.unit_retried()
        journal = active_journal()
        if journal is not None:
            journal.emit(
                "retry",
                key=unit_key(unit),
                label=unit.config.label,
                m=unit.config.m,
                bucket=unit.bucket,
                attempt=attempt,
            )

    def unit_reclaimed(
        self, unit: WorkUnit, slot: int, heartbeat_age: float | None
    ) -> None:
        """A leased unit was taken back from a dead/wedged worker."""
        journal = active_journal()
        if journal is None:
            return
        key = unit_key(unit)
        journal.emit(
            "reclaim",
            key=key,
            label=unit.config.label,
            m=unit.config.m,
            bucket=unit.bucket,
            slot=slot,
            heartbeat_age=heartbeat_age,
        )
        # Durable forensics even when the re-dispatch later succeeds:
        # the bundle rides the journal, not a file per reclaim.
        journal.emit(
            "postmortem", key=key, bundle=assemble_postmortem(str(journal.path), key)
        )

    def lease_expired(self, unit: WorkUnit, slot: int) -> None:
        journal = active_journal()
        if journal is not None:
            journal.emit("lease-expired", key=unit_key(unit), slot=slot)

    def worker_lost(self, worker: int, heartbeat_age: float | None) -> None:
        if obs.active():
            obs.REGISTRY.add("runner.lost-workers")
        if self.progress is not None:
            self.progress.worker_lost()
        journal = active_journal()
        if journal is not None:
            journal.emit("worker-lost", slot=worker, heartbeat_age=heartbeat_age)

    def workers_changed(self, alive: int, total: int) -> None:
        if obs.active():
            obs.REGISTRY.set_gauge("runner.workers-alive", alive)
        if self.progress is not None:
            self.progress.set_workers(alive, total)
        journal = active_journal()
        if journal is not None:
            journal.emit("workers", alive=alive, total=total)

    def heartbeat_age(self, age: float) -> None:
        if obs.active():
            obs.REGISTRY.set_gauge("runner.heartbeat-age", age)


# -- worker-side helpers (shared by every backend) -----------------------------
def timed_unit(unit: WorkUnit, backend: str) -> BucketOutcome:
    """Run one unit under a ``shard`` span, feeding the latency histogram.

    On Linux ``fork`` workers CLOCK_MONOTONIC is system-wide, so worker
    span timestamps land on the same trace axis as the parent's.

    With a journal active, the executing process (worker or conductor —
    this is the one instrumentation site every backend funnels through)
    brackets the run with ``exec-start``/``exec-done`` events; the
    latter carries the shard seconds that feed ``repro status``'s
    latency quantiles and, under tracing, a census of the spans this
    unit shipped (the "last shipped spans" a postmortem reports).
    """
    journal = active_journal()
    key = unit_key(unit) if journal is not None else ""
    if journal is not None:
        journal.emit(
            "exec-start",
            key=key,
            label=unit.config.label,
            m=unit.config.m,
            bucket=unit.bucket,
            backend=backend,
        )
    prior_spans = len(obs.spans()) if journal is not None and obs.tracing() else 0
    start = clock.monotonic()
    with obs.span(
        "shard",
        label=unit.config.label,
        m=unit.config.m,
        bucket=unit.bucket,
        backend=backend,
    ):
        outcome = run_unit(unit)
    seconds = clock.monotonic() - start
    if obs.active():
        obs.REGISTRY.observe("runner.shard-seconds", seconds)
    if journal is not None:
        extra = {}
        if obs.tracing():
            census: dict[str, int] = {}
            for record in obs.spans()[prior_spans:]:
                census[record.name] = census.get(record.name, 0) + 1
            extra["spans"] = census
        journal.emit(
            "exec-done",
            key=key,
            label=unit.config.label,
            m=unit.config.m,
            bucket=unit.bucket,
            backend=backend,
            seconds=round(seconds, 6),
            **extra,
        )
    return outcome


def run_unit_observed(unit: WorkUnit, backend: str) -> tuple[BucketOutcome, dict]:
    """Out-of-process entry point: the outcome plus this unit's obs payload.

    Clearing first makes the payload exactly the unit's contribution, so
    the parent can absorb payloads in any completion order without double
    counting (registry merge is associative and commutative).
    """
    obs.clear()
    outcome = timed_unit(unit, backend)
    return outcome, obs.capture_payload()


def payload_busy_seconds(payload: dict | None) -> float:
    """Worker-side shard seconds carried by one obs payload (0.0 when the
    worker recorded none, i.e. recording is off)."""
    if not payload:
        return 0.0
    histograms = payload.get("registry", {}).get("histograms", {})
    state = histograms.get("runner.shard-seconds")
    return float(state["total"]) if state else 0.0


class ExecutorBackend:
    """The backend protocol: ``submit`` once, drain ``as_completed``,
    always ``shutdown`` (idempotent, also mid-stream on error paths).

    Backends are single-shot: one ``submit`` per instance.  Concrete
    classes set ``name`` (the registry/CLI identity) and ``workers``.
    """

    name: str = ""
    workers: int = 1

    def submit(self, units: Sequence[WorkUnit]) -> None:
        raise NotImplementedError

    def as_completed(self) -> Iterator[UnitResult]:
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError


class SerialBackend(ExecutorBackend):
    """Everything in the calling process, in submission order.

    No pickling, no clearing of the live registry — exactly the path the
    parallel backends are differentially verified against.
    """

    name = "serial"

    def __init__(self, observer: FabricObserver | None = None):
        self.observer = observer or FabricObserver()
        self._units: list[WorkUnit] = []

    def submit(self, units: Sequence[WorkUnit]) -> None:
        self._units = list(units)

    def as_completed(self) -> Iterator[UnitResult]:
        for pos, unit in enumerate(self._units):
            yield UnitResult(pos, timed_unit(unit, self.name))

    def shutdown(self) -> None:
        pass


def registered_backends() -> tuple[str, ...]:
    """The executor backend names the fabric can instantiate."""
    return RUNNER_BACKENDS


def resolve_backend(
    backend: "str | ExecutorBackend | None",
    *,
    jobs: int,
    pending: int,
    observer: FabricObserver | None = None,
) -> ExecutorBackend:
    """Instantiate the backend a run asked for.

    Resolution order: an explicit instance wins; an explicit name is
    honored as-is; ``None``/``""`` consults ``REPRO_RUNNER_BACKEND``; an
    empty knob auto-selects ``cluster`` when both ``jobs`` and the
    pending unit count exceed one, in-process ``serial`` otherwise.
    """
    if isinstance(backend, ExecutorBackend):
        if observer is not None:
            backend.observer = observer
        return backend
    name = backend if backend else runner_backend_from_env("")
    if not name:
        name = "cluster" if jobs > 1 and pending > 1 else "serial"
    workers = min(max(1, jobs), max(1, pending))
    if name == "serial":
        return SerialBackend(observer=observer)
    if name == "cluster":
        from repro.runner.cluster import ClusterBackend

        return ClusterBackend(workers, observer=observer)
    known = "|".join(registered_backends())
    raise ValueError(f"unknown executor backend {name!r}; known: {known}")
