"""Fault-tolerant work-stealing execution: the ``cluster`` backend.

:class:`ClusterBackend` runs a batch of work units over *independent*
worker subprocesses — no ``multiprocessing.Pool`` machinery, no shared
fate.  The parent owns a work queue that idle workers steal from, and
three cooperating mechanisms make the run survive anything short of the
parent itself dying:

* **Lease-based claims.**  A worker announces each unit it pulls
  (``claim``) before touching it; the parent records a lease.  A unit
  whose lease outlives ``lease_timeout`` is presumed stuck — its worker
  is killed and the unit is re-dispatched with exponential backoff.
* **Heartbeat liveness.**  Every worker stamps a shared heartbeat slot
  from a daemon thread; a worker whose process is gone (``SIGKILL``,
  OOM) or whose stamp goes stale is declared lost, its leased units are
  re-dispatched immediately, and a replacement worker is spawned into
  the same slot.  Detection of a killed worker is driven by process
  liveness, well inside one heartbeat interval.
* **Exactly-once merge.**  Re-dispatch can race a slow-but-alive
  original attempt, so completions are deduplicated by unit: the first
  outcome wins, later duplicates are counted (``stats["duplicates"]``)
  and dropped.  Outcomes are pure functions of their unit, so *which*
  attempt wins is immaterial — the merged result is bit-identical to a
  serial run regardless, which the fault-injection suite asserts.

A unit that keeps failing (``max_attempts`` worker deaths, hangs or
exceptions) raises a typed :class:`~repro.runner.executor.
WorkerCrashError` carrying the unit's content key, attempt count and the
last heartbeat age — never a raw traceback from worker internals.

Results travel over a ``SimpleQueue``, whose sends complete in the
calling thread before ``put`` returns — a worker killed *between* sends
can never leave a half-written claim behind.  Claims carry a per-slot
*generation* stamp: a claim drained after its sender was already reaped
(the conductor reaps before it polls, and a replacement may occupy the
slot) is recognized as stale and its unit re-dispatched immediately
instead of leased to a worker that never took it.  (A worker killed in
the middle of a send is the one residual race; its units still recover
through the lease timeout.)  Worker deaths injected for testing go
through :mod:`repro.runner.faults`, which SIGKILLs mid-shard — after
the claim, before the outcome — precisely the window the lease/
heartbeat machinery exists for.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import threading
import time
import traceback
from typing import Iterator, Sequence

from repro import obs
from repro.obs import clock
from repro.obs.forensics import (
    assemble_postmortem,
    describe_postmortem,
    write_postmortem,
)
from repro.obs.journal import active_journal
from repro.runner import faults
from repro.runner.executor import (
    ExecutorBackend,
    FabricObserver,
    UnitResult,
    WorkerCrashError,
    payload_busy_seconds,
    run_unit_observed,
)
from repro.runner.store import unit_key
from repro.runner.units import WorkUnit
from repro.util.env import (
    heartbeat_interval_from_env,
    journal_flush_interval_from_env,
    lease_timeout_from_env,
)

__all__ = ["ClusterBackend"]


def _mp_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker start-up negligible next to shard runtimes; fall
    # back to spawn where fork does not exist (Windows).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


#: Cap on the exponential re-dispatch backoff (seconds).
BACKOFF_CAP = 2.0


def _cluster_worker_main(
    slot: int,
    units: list[WorkUnit],
    task_q,
    result_q,
    heartbeats,
    beat_every: float,
    generation: int,
) -> None:
    """Worker entry point: steal, claim, run, report — until the sentinel.

    The claim is sent *before* the unit runs (and before the
    fault-injection hook fires) so the parent always knows which unit a
    lost worker took down with it.  Each claim carries this worker's
    ``generation`` stamp so the parent can tell a claim drained *after*
    the sender was reaped (and a replacement spawned into the slot)
    from a claim by the slot's current occupant.

    With ``REPRO_OBS_JOURNAL`` set (inherited from the conductor's
    environment), the worker also journals each claim and a heartbeat
    stamp every journal-flush interval — the durable trail crash
    forensics reconstructs a SIGKILLed worker from, since everything in
    this process's memory dies with it.
    """
    heartbeats[slot] = clock.monotonic()
    stop = threading.Event()
    flush_every = journal_flush_interval_from_env()

    def beat() -> None:
        journal = active_journal()
        if journal is not None:
            journal.emit("heartbeat", slot=slot)
        last_emit = clock.monotonic()
        while not stop.wait(beat_every):
            now = clock.monotonic()
            heartbeats[slot] = now
            if journal is not None and now - last_emit >= flush_every:
                journal.emit("heartbeat", slot=slot)
                last_emit = now

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            item = task_q.get()
            if item is None:
                return
            seq, pos = item
            result_q.put(("claim", slot, seq, pos, generation))
            unit = units[pos]
            journal = active_journal()
            if journal is not None:
                journal.emit(
                    "claim",
                    key=unit_key(unit),
                    label=unit.config.label,
                    m=unit.config.m,
                    bucket=unit.bucket,
                    slot=slot,
                    seq=seq,
                )
            try:
                faults.maybe_inject(unit)
                outcome, payload = run_unit_observed(unit, "cluster")
            except Exception:
                result_q.put(("error", slot, seq, pos, traceback.format_exc()))
                continue
            result_q.put(("done", slot, seq, pos, outcome, payload))
    finally:
        stop.set()


class ClusterBackend(ExecutorBackend):
    """Work-stealing queue over independent, expendable worker processes."""

    name = "cluster"

    def __init__(
        self,
        workers: int,
        *,
        heartbeat_interval: float | None = None,
        lease_timeout: float | None = None,
        backoff_base: float = 0.05,
        max_attempts: int = 5,
        poll_interval: float = 0.02,
        observer: FabricObserver | None = None,
    ):
        self.workers = max(1, workers)
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else heartbeat_interval_from_env()
        )
        self.lease_timeout = (
            lease_timeout if lease_timeout is not None else lease_timeout_from_env()
        )
        self.backoff_base = backoff_base
        self.max_attempts = max(1, max_attempts)
        self.poll_interval = poll_interval
        self.observer = observer or FabricObserver()
        #: always-on fabric accounting (tests and reports read this;
        #: the obs counters mirror it only while recording is active).
        self.stats = {
            "retries": 0,
            "lost_workers": 0,
            "duplicates": 0,
            "worker_errors": 0,
        }
        self._units: list[WorkUnit] = []
        self._ctx = _mp_context()
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._heartbeats = None
        self._shutdown = False
        # dispatch bookkeeping (all parent-side, all per-run)
        self._seq = itertools.count()
        self._inflight: dict[int, int] = {}  # seq -> pos
        self._dispatched_at: dict[int, float] = {}  # seq -> enqueue time
        self._leases: dict[int, tuple[int, float]] = {}  # seq -> (slot, t)
        self._claims: dict[int, set[int]] = {}  # slot -> claimed seqs
        self._generations: dict[int, int] = {}  # slot -> spawn count
        self._attempts: dict[int, int] = {}  # pos -> dispatch count
        self._redispatch: list[tuple[float, int]] = []  # (due, pos) heap
        self._done: set[int] = set()

    # -- protocol ---------------------------------------------------------------
    def submit(self, units: Sequence[WorkUnit]) -> None:
        self._units = list(units)
        self.workers = min(self.workers, max(1, len(self._units)))

    def as_completed(self) -> Iterator[UnitResult]:
        if not self._units:
            return
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.SimpleQueue()
        self._heartbeats = self._ctx.Array("d", self.workers, lock=False)
        now = clock.monotonic()
        self._procs = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot, now)
        self.observer.workers_changed(self.workers, self.workers)
        for pos in range(len(self._units)):
            self._attempts[pos] = 1
            self._dispatch(pos, now)

        busy = 0.0
        started = now
        while len(self._done) < len(self._units):
            now = clock.monotonic()
            self._reap_lost_workers(now)
            self._expire_leases(now)
            self._flush_redispatch(now)
            message = self._poll_result(self.poll_interval)
            if message is None:
                continue
            kind, slot, seq, pos = message[0], message[1], message[2], message[3]
            if kind == "claim":
                self._record_claim(slot, seq, message[4])
            elif kind == "done":
                self._release(seq, slot)
                if pos in self._done:
                    self.stats["duplicates"] += 1
                    continue
                self._done.add(pos)
                busy += payload_busy_seconds(message[5])
                yield UnitResult(pos, message[4], message[5])
            elif kind == "error":
                self._release(seq, slot)
                self.stats["worker_errors"] += 1
                self._retry_or_fail(pos, detail=message[4])

        if obs.active():
            wall = clock.monotonic() - started
            if wall > 0:
                obs.REGISTRY.set_gauge(
                    "runner.worker-utilization",
                    min(1.0, busy / (self.workers * wall)),
                )

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck in kernel
                    proc.kill()
                    proc.join(timeout=2.0)
        self._procs = []
        if self._task_q is not None:
            self._task_q.cancel_join_thread()
            self._task_q.close()
            self._task_q = None
        self._result_q = None
        self.observer.workers_changed(0, self.workers)

    # -- worker lifecycle -------------------------------------------------------
    def _spawn(self, slot: int, now: float) -> None:
        self._heartbeats[slot] = now
        self._generations[slot] = self._generations.get(slot, 0) + 1
        proc = self._ctx.Process(
            target=_cluster_worker_main,
            args=(
                slot,
                self._units,
                self._task_q,
                self._result_q,
                self._heartbeats,
                self.heartbeat_interval / 4.0,
                self._generations[slot],
            ),
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc

    def _reap_lost_workers(self, now: float) -> None:
        """Declare dead/stale workers lost; re-dispatch their claims fast."""
        max_age = 0.0
        for slot, proc in enumerate(self._procs):
            if proc is None:
                continue
            age = now - self._heartbeats[slot]
            max_age = max(max_age, age)
            if proc.is_alive() and age <= 2.0 * self.heartbeat_interval:
                continue
            self._lose_worker(slot, age, now)
        self.observer.heartbeat_age(max_age)

    def _lose_worker(self, slot: int, heartbeat_age: float, now: float) -> None:
        proc = self._procs[slot]
        self.stats["lost_workers"] += 1
        self.observer.worker_lost(slot, heartbeat_age)
        if proc.is_alive():  # stale heartbeat on a live process: put it down
            proc.kill()
        proc.join(timeout=2.0)
        alive = sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )
        self.observer.workers_changed(alive, self.workers)
        for seq in sorted(self._claims.pop(slot, ())):
            pos = self._inflight.pop(seq, None)
            self._leases.pop(seq, None)
            self._dispatched_at.pop(seq, None)
            if pos is not None and pos not in self._done:
                self.observer.unit_reclaimed(
                    self._units[pos], slot, heartbeat_age
                )
                self._retry_or_fail(pos, heartbeat_age=heartbeat_age)
        if not self._shutdown:
            self._spawn(slot, now)
            self.observer.workers_changed(
                sum(1 for p in self._procs if p is not None and p.is_alive()),
                self.workers,
            )

    # -- dispatch / retry -------------------------------------------------------
    def _dispatch(self, pos: int, now: float) -> None:
        seq = next(self._seq)
        self._inflight[seq] = pos
        self._dispatched_at[seq] = now
        self._task_q.put((seq, pos))

    def _record_claim(self, slot: int, seq: int, generation: int) -> None:
        """Lease the unit to its claimer — unless the claimer is dead.

        A claim can be drained from the result channel *after* its
        sender was reaped and a replacement spawned into the same slot
        (the conductor reaps before it polls).  Leasing it then would
        park the unit on a worker that never took it, stalling the run
        until the lease times out.  A stale generation stamp identifies
        that wreck: the unit died with its claimer, so reclaim it on
        the spot.
        """
        pos = self._inflight.get(seq)
        if pos is None:
            return
        if generation == self._generations.get(slot):
            self._leases[seq] = (slot, clock.monotonic())
            self._claims.setdefault(slot, set()).add(seq)
            return
        self._inflight.pop(seq, None)
        self._leases.pop(seq, None)
        self._dispatched_at.pop(seq, None)
        if pos not in self._done:
            self.observer.unit_reclaimed(self._units[pos], slot, 0.0)
            self._retry_or_fail(pos)

    def _release(self, seq: int, slot: int) -> None:
        self._inflight.pop(seq, None)
        self._leases.pop(seq, None)
        self._dispatched_at.pop(seq, None)
        claimed = self._claims.get(slot)
        if claimed is not None:
            claimed.discard(seq)

    def _expire_leases(self, now: float) -> None:
        """Reclaim units stuck past their lease — hung workers included.

        A claimed unit whose lease expired means its worker is wedged:
        the worker is put down like any lost one (which also re-dispatches
        everything else it claimed).  An *unclaimed* dispatch this old
        means the claim was lost with a dying worker — re-dispatch it.
        """
        expired_slots = set()
        for seq, (slot, since) in self._leases.items():
            if now - since > self.lease_timeout:
                expired_slots.add(slot)
                pos = self._inflight.get(seq)
                if pos is not None:
                    self.observer.lease_expired(self._units[pos], slot)
        for slot in expired_slots:
            self._lose_worker(slot, now - self._heartbeats[slot], now)
        for seq, since in list(self._dispatched_at.items()):
            if seq in self._leases or now - since <= 2.0 * self.lease_timeout:
                continue
            pos = self._inflight.pop(seq, None)
            self._dispatched_at.pop(seq, None)
            if pos is not None and pos not in self._done:
                self._retry_or_fail(pos)

    def _retry_or_fail(
        self,
        pos: int,
        *,
        detail: str = "",
        heartbeat_age: float | None = None,
    ) -> None:
        attempts = self._attempts[pos]
        if attempts >= self.max_attempts:
            unit = self._units[pos]
            detail = detail or "worker lost (killed, hung or unreachable)"
            postmortem = None
            journal = active_journal()
            if journal is not None:
                # Stamp the give-up first so the bundle's reference time
                # is the moment the conductor acted, then assemble the
                # forensics from the durable record and dump them next
                # to the journal.
                key = unit_key(unit)
                journal.emit("crash", key=key, attempts=attempts, detail=detail)
                postmortem = assemble_postmortem(str(journal.path), key)
                path = write_postmortem(postmortem, journal.path.parent)
                detail += "\n" + describe_postmortem(postmortem, path)
                if heartbeat_age is None:
                    heartbeat_age = postmortem.get("last_heartbeat_age")
            raise WorkerCrashError(
                unit,
                attempts=attempts,
                heartbeat_age=heartbeat_age,
                detail=detail,
                postmortem=postmortem,
            )
        self._attempts[pos] = attempts + 1
        self.stats["retries"] += 1
        self.observer.unit_retried(self._units[pos], attempts + 1)
        backoff = min(self.backoff_base * (2.0 ** (attempts - 1)), BACKOFF_CAP)
        heapq.heappush(self._redispatch, (clock.monotonic() + backoff, pos))

    def _flush_redispatch(self, now: float) -> None:
        while self._redispatch and self._redispatch[0][0] <= now:
            _, pos = heapq.heappop(self._redispatch)
            if pos not in self._done:
                self._dispatch(pos, now)

    # -- result intake ----------------------------------------------------------
    def _poll_result(self, timeout: float):
        """One message from the result channel, or ``None`` after ``timeout``.

        ``SimpleQueue`` has no timed ``get``; its reader connection does.
        """
        reader = getattr(self._result_q, "_reader", None)
        if reader is not None:
            if not reader.poll(timeout):
                return None
        elif self._result_q.empty():  # pragma: no cover - exotic platforms
            time.sleep(timeout)
            return None
        return self._result_q.get()
