"""The routing service daemon: queue, worker pool, cache, recovery.

:class:`PacorService` owns the whole server-side state machine:

* **submit** — validate the design/method/config, compute the canonical
  cache key, and either answer straight from the
  :class:`~repro.service.cache.ResultCache` (``service.cache_hits``) or
  persist a queued :class:`~repro.service.jobs.JobRecord`.
* **dispatch** — a background thread pops ``(priority, seq)``-ordered
  jobs off the :class:`~repro.service.queue.JobQueue` into a
  ``multiprocessing`` worker pool running
  :func:`~repro.service.workers.run_job`, and reaps finished workers by
  reading their atomically-written ``outcome.json``.  The thread is
  event-driven, not polled: it blocks until a worker's process sentinel
  fires or a wake-up lands on its self-pipe (sent by every enqueue and
  by :meth:`PacorService.stop`).
* **preempt/park** — stopping the daemon (or cancelling a running job)
  SIGTERMs the worker; the worker parks an interrupt checkpoint and the
  job is reaped as ``preempted``, resumable later.
* **recover** — a fresh daemon over an existing root re-queues ``queued``
  jobs and converts orphaned ``running`` jobs (a previous daemon died)
  to ``preempted`` (checkpoint parked) or back to ``queued``.

Thread-safety: one re-entrant lock guards queue + worker table + record
writes; the HTTP layer (:mod:`repro.service.api`) calls into this class
from request threads while the dispatcher loop runs.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path as FilePath
from typing import Any, Dict, List, Optional, Union

from repro.core.pipeline import METHODS
from repro.core.config import PacorConfig
from repro.designs.io import design_from_json
from repro.observability.metrics import Metrics
from repro.robustness.errors import ServiceError
from repro.robustness.faultmap import FaultMap
from repro.service.cache import ResultCache, result_cache_key
from repro.service.jobs import (
    DEFAULT_QOS,
    QOS_TIERS,
    JobRecord,
    JobState,
    JobStore,
    read_json,
    write_json_atomic,
)
from repro.service.queue import JobQueue
from repro.service.workers import run_job

_BUDGET_KEYS = ("wall_clock_s", "astar_expansions", "rip_rounds")


@dataclass
class _WorkerHandle:
    """One live worker process and the job it owns."""

    job_id: str
    process: Any  # multiprocessing.process.BaseProcess


class PacorService:
    """The routing service: persistent queue, worker pool, result cache.

    Args:
        root: service state directory (job store + cache live under it).
        workers: maximum concurrently running worker processes.
        start_method: ``multiprocessing`` start method (None = platform
            default; the service is spawn-safe either way).
        metrics: shared metrics registry (``service.*`` counters).
    """

    def __init__(
        self,
        root: Union[str, FilePath],
        *,
        workers: int = 2,
        start_method: Optional[str] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError("workers must be at least 1")
        self.store = JobStore(root)
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = ResultCache(self.store.cache_dir, self.metrics)
        self.queue = JobQueue()
        self.max_workers = workers
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: Dict[str, _WorkerHandle] = {}
        self._lock = threading.RLock()
        # Under the determinism sanitizer, holding this lock is what
        # legitimises cross-thread occupancy access (no-op when off).
        from repro.analysis.sanitize import enabled, register_lock

        if enabled():
            register_lock(self._lock)
        # Notified by every step() (and queued-job cancel / stop), so
        # drain() waits on it until the pool may have emptied.
        self._stepped = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Self-pipe: a message per enqueue/stop wakes the dispatcher out
        # of its wait on the worker sentinels.  At most one is ever in
        # flight (``_wake_pending``), so a send never blocks on a full
        # pipe, even when no dispatcher is draining it.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._wake_pending = False
        self._submitted = self.metrics.counter("service.jobs_submitted")
        self._completed = self.metrics.counter("service.jobs_completed")
        self._failed = self.metrics.counter("service.jobs_failed")
        self._preempted = self.metrics.counter("service.preemptions")
        self._resumed = self.metrics.counter("service.resumes")
        self._cancelled = self.metrics.counter("service.cancellations")
        self._recovered = self.metrics.counter("service.recovered_jobs")
        self._recover()

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the queue from disk; settle orphans of a dead daemon."""
        for record in self.store.records():
            if record.state == JobState.RUNNING:
                # This daemon just started, so no live worker owns the
                # job — its previous daemon died. A parked (or
                # mid-write-complete) checkpoint makes it resumable.
                self._recovered.inc()
                if self.store.checkpoint_path(record.job_id).is_file():
                    record.state = JobState.PREEMPTED
                    record.preempt_kind = "daemon-restart"
                    self.store.save(record)
                    self.store.append_event(
                        record.job_id,
                        {
                            "kind": "status",
                            "status": "recovered",
                            "state": record.state,
                        },
                    )
                else:
                    record.state = JobState.QUEUED
                    self.store.save(record)
                    self.queue.push(record.priority, record.seq, record.job_id)
                    self.store.append_event(
                        record.job_id,
                        {
                            "kind": "status",
                            "status": "recovered",
                            "state": record.state,
                        },
                    )
            elif record.state == JobState.QUEUED:
                self.queue.push(record.priority, record.seq, record.job_id)

    def _enqueue(self, record: JobRecord) -> None:
        """Queue ``record`` and wake the dispatcher (lock held)."""
        self.queue.push(record.priority, record.seq, record.job_id)
        self._wake()

    def _wake(self) -> None:
        """Wake the dispatcher unless a wake-up is already pending."""
        with self._lock:
            if not self._wake_pending:
                self._wake_pending = True
                self._wake_w.send_bytes(b"")

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        design_doc: Dict[str, Any],
        *,
        method: str = "PACOR",
        qos: str = DEFAULT_QOS,
        config: Optional[Dict[str, Any]] = None,
        faults: Optional[Dict[str, Any]] = None,
        budget: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        """Validate and enqueue one routing job; answer from cache if hit.

        Args:
            design_doc: the design JSON document (validated by
                :func:`~repro.designs.io.design_from_json`).
            method: Table-2 method name.
            qos: tier name — priority plus default run budgets.
            config: partial :class:`~repro.core.config.PacorConfig`
                overrides (normalised into a full document).
            faults: optional FaultMap document.
            budget: explicit run-budget overrides
                (``wall_clock_s``/``astar_expansions``/``rip_rounds``),
                winning over the tier's defaults.

        Raises:
            DesignFormatError / ConfigError / FaultFormatError: the
                submission payload is malformed.
            ServiceError: unknown method/qos, bad budget override, or
                the daemon is stopping.
        """
        design = design_from_json(design_doc)
        if method not in METHODS:
            raise ServiceError(
                f"unknown method {method!r}; choose from {list(METHODS)}"
            )
        tier = QOS_TIERS.get(qos)
        if tier is None:
            raise ServiceError(
                f"unknown qos tier {qos!r}; choose from {list(QOS_TIERS)}"
            )
        config_doc = PacorConfig.from_json(dict(config or {})).to_json()
        limits = tier.budget_doc()
        for key, value in (budget or {}).items():
            if key not in _BUDGET_KEYS:
                raise ServiceError(
                    f"unknown budget field {key!r}; "
                    f"choose from {list(_BUDGET_KEYS)}"
                )
            limits[key] = value
        if faults is not None:
            faults = FaultMap.from_json(faults).to_json()
        design_hash = design.canonical_hash()
        key = result_cache_key(design_hash, method, config_doc, faults)
        with self._lock:
            if self._stop.is_set():
                raise ServiceError("service is shutting down")
            self._submitted.inc()
            record = self.store.allocate(
                design_doc=design_doc,
                design_name=design.name,
                design_hash=design_hash,
                method=method,
                qos=qos,
                priority=tier.priority,
                config=config_doc,
                budget=limits,
                cache_key=key,
                fault_doc=faults,
            )
            cached = self.cache.get(key)
            if cached is not None:
                write_json_atomic(self.store.result_path(record.job_id), cached)
                record.state = JobState.SUCCEEDED
                record.cached = True
                record.degraded = bool(cached.get("degraded", False))
                record.summary = cached.get("summary")
                record.finished_at = time.time()
                self.store.save(record)
                self._completed.inc()
                self.store.append_event(
                    record.job_id,
                    {"kind": "status", "status": "cache-hit", "state": record.state},
                )
            else:
                self._enqueue(record)
                self.store.append_event(
                    record.job_id,
                    {"kind": "status", "status": "queued", "qos": qos},
                )
            return record

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="pacor-dispatcher", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        """Step, then block until a worker exits or something is queued.

        The pending wake-up is consumed *before* each step, so one sent
        after the step's queue pop stays readable and the wait returns at
        once — no enqueue is ever missed.
        """
        while True:
            with self._lock:
                if self._wake_pending:
                    self._wake_r.recv_bytes()
                    self._wake_pending = False
            if self._stop.is_set():
                return
            self.step()
            with self._lock:
                sentinels = [h.process.sentinel for h in self._workers.values()]
            wait([self._wake_r, *sentinels])

    def step(self) -> None:
        """One dispatcher iteration: reap finished workers, fill slots.

        Public so tests (and a thread-less embedding) can drive the
        service synchronously.
        """
        with self._lock:
            self._reap()
            while len(self._workers) < self.max_workers:
                job_id = self.queue.pop()
                if job_id is None:
                    break
                self._launch(job_id)
            self._stepped.notify_all()

    def _launch(self, job_id: str) -> None:
        record = self.store.load(job_id)
        record.state = JobState.RUNNING
        record.attempts += 1
        record.started_at = time.time()
        self.store.save(record)
        # The event goes in *before* the worker starts: the daemon only
        # appends while no worker owns the stream.
        self.store.append_event(
            job_id,
            {"kind": "status", "status": "dispatched", "attempt": record.attempts},
        )
        process = self._ctx.Process(
            target=run_job,
            args=(str(self.store.job_dir(job_id)),),
            name=f"pacor-worker-{job_id}",
            daemon=True,
        )
        process.start()
        self._workers[job_id] = _WorkerHandle(job_id=job_id, process=process)

    def _reap(self) -> None:
        for job_id in list(self._workers):
            handle = self._workers[job_id]
            if handle.process.is_alive():
                continue
            del self._workers[job_id]
            handle.process.join()
            self._settle(job_id, handle.process.exitcode)

    def _settle(self, job_id: str, exitcode: Optional[int]) -> None:
        """Fold a finished worker's outcome back into the job record."""
        record = self.store.load(job_id)
        record.finished_at = time.time()
        outcome_path = self.store.outcome_path(job_id)
        if outcome_path.is_file():
            outcome = read_json(outcome_path)
            record.state = str(outcome.get("state", JobState.FAILED))
            record.degraded = outcome.get("degraded")
            record.preempt_kind = outcome.get("preempt_kind")
            record.error = outcome.get("error")
            record.summary = outcome.get("summary")
            # The outcome is consumed: a future attempt (resume) must
            # not be mistaken for this one.
            outcome_path.unlink()
        elif self.store.checkpoint_path(job_id).is_file():
            # Crashed after parking a checkpoint but before reporting —
            # the parked work is still resumable.
            record.state = JobState.PREEMPTED
            record.preempt_kind = "worker-crash"
        elif record.cancel_requested and exitcode == -signal.SIGTERM:
            # The cancel SIGTERM landed in the child's startup window,
            # before run_job installed its preemption handler: nothing
            # was routed and nothing needs resuming.  That is a
            # completed cancellation, not a crash.
            record.state = JobState.PREEMPTED
            record.preempt_kind = "sigterm"
        else:
            record.state = JobState.FAILED
            record.error = f"worker crashed (exit code {exitcode})"
        if (
            record.state == JobState.PREEMPTED
            and record.cancel_requested
        ):
            record.state = JobState.CANCELLED
            self._cancelled.inc()
        elif record.state == JobState.SUCCEEDED:
            self._completed.inc()
            result_path = self.store.result_path(job_id)
            if not record.cached and result_path.is_file():
                self.cache.put(
                    record.cache_key,
                    read_json(result_path),
                    job_id=job_id,
                    design_hash=record.design_hash,
                    method=record.method,
                )
        elif record.state == JobState.PREEMPTED:
            self._preempted.inc()
        else:
            self._failed.inc()
        self.store.save(record)
        self.store.append_event(
            job_id,
            {
                "kind": "status",
                "status": "settled",
                "state": record.state,
                "preempt_kind": record.preempt_kind,
                "error": record.error,
            },
        )

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatching and shut the worker pool down.

        Graceful stop SIGTERMs live workers
        (:meth:`multiprocessing.Process.terminate` sends SIGTERM on
        POSIX); each worker parks its checkpoint and reports
        ``preempted``, so a later daemon over the same root can resume
        the interrupted jobs.  Workers that outlive ``timeout`` are
        killed and settled by crash accounting.
        """
        self._stop.set()
        self._wake()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        with self._lock:
            live = list(self._workers.values())
        for handle in live:
            if handle.process.is_alive():
                if graceful:
                    handle.process.terminate()  # SIGTERM: park, don't kill
                else:
                    handle.process.kill()
        deadline_budget = timeout
        for handle in live:
            step_start = time.perf_counter()
            handle.process.join(timeout=max(0.1, deadline_budget))
            deadline_budget -= time.perf_counter() - step_start
            if handle.process.is_alive():
                # Parking took too long; escalate.
                handle.process.kill()
                handle.process.join()
        with self._lock:
            self._reap()
            self._stepped.notify_all()

    # -- job control --------------------------------------------------------

    def resume(
        self,
        job_id: str,
        *,
        qos: Optional[str] = None,
        budget: Optional[Dict[str, Any]] = None,
    ) -> JobRecord:
        """Re-queue a ``preempted`` job; its worker resumes the parked
        checkpoint (or restarts cleanly when none was captured).

        A budget-exceeded job would trip the same limit at the same spot
        again, so the resume may move the job to another ``qos`` tier or
        apply explicit ``budget`` overrides for the retry.

        Raises:
            JobFormatError: unknown job.
            ServiceError: the job is not in a resumable state, or an
                override names an unknown tier/budget field.
        """
        with self._lock:
            record = self.store.load(job_id)
            if record.state != JobState.PREEMPTED:
                raise ServiceError(
                    f"job {job_id} is {record.state}, not preempted; "
                    "only preempted jobs can be resumed"
                )
            if qos is not None:
                tier = QOS_TIERS.get(qos)
                if tier is None:
                    raise ServiceError(
                        f"unknown qos tier {qos!r}; "
                        f"choose from {list(QOS_TIERS)}"
                    )
                record.qos = qos
                record.priority = tier.priority
                record.budget = tier.budget_doc()
            for key, value in (budget or {}).items():
                if key not in _BUDGET_KEYS:
                    raise ServiceError(
                        f"unknown budget field {key!r}; "
                        f"choose from {list(_BUDGET_KEYS)}"
                    )
                record.budget[key] = value
            record.state = JobState.QUEUED
            record.preempt_kind = None
            record.cancel_requested = False
            self.store.save(record)
            self._enqueue(record)
            self._resumed.inc()
            self.store.append_event(
                job_id, {"kind": "status", "status": "resubmitted"}
            )
            return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job, or preempt-and-cancel a running one.

        Raises:
            JobFormatError: unknown job.
            ServiceError: the job already settled.
        """
        with self._lock:
            record = self.store.load(job_id)
            if record.state == JobState.QUEUED:
                self.queue.remove(job_id)
                record.state = JobState.CANCELLED
                self.store.save(record)
                self._cancelled.inc()
                self._stepped.notify_all()
                self.store.append_event(
                    job_id, {"kind": "status", "status": "cancelled"}
                )
                return record
            if record.state == JobState.RUNNING:
                record.cancel_requested = True
                self.store.save(record)
                handle = self._workers.get(job_id)
                if handle is not None and handle.process.is_alive():
                    handle.process.terminate()  # SIGTERM -> park -> reap
                return record
            raise ServiceError(
                f"job {job_id} is {record.state} and cannot be cancelled"
            )

    # -- queries ------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        """Return the current record of ``job_id``."""
        with self._lock:
            return self.store.load(job_id)

    def jobs(self) -> List[JobRecord]:
        """Return every job record in submission order."""
        with self._lock:
            return self.store.records()

    def result_doc(self, job_id: str) -> Dict[str, Any]:
        """Return the stored result document of a finished job.

        Raises:
            ServiceError: the job has no result (yet).
        """
        record = self.job(job_id)
        path = self.store.result_path(job_id)
        if not path.is_file():
            raise ServiceError(
                f"job {job_id} is {record.state} and has no result"
            )
        return read_json(path)

    def checkpoint_doc(self, job_id: str) -> Dict[str, Any]:
        """Return the parked resume checkpoint of a preempted job.

        Raises:
            ServiceError: no checkpoint is parked for the job.
        """
        record = self.job(job_id)
        path = self.store.checkpoint_path(job_id)
        if not path.is_file():
            raise ServiceError(
                f"job {job_id} is {record.state} and has no parked checkpoint"
            )
        return read_json(path)

    def trace_lines(self, job_id: str) -> List[str]:
        """Return the raw JSONL trace lines of a finished job."""
        path = self.store.trace_path(job_id)
        if not path.is_file():
            raise ServiceError(f"job {job_id} has no trace (yet)")
        with open(path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle if line.strip()]

    def events(self, job_id: str, after: int = 0) -> Dict[str, Any]:
        """Return ``{"events", "cursor", "state"}`` past cursor ``after``."""
        record = self.job(job_id)  # raises JobFormatError on unknown id
        docs, cursor = self.store.read_events(job_id, after)
        return {"events": docs, "cursor": cursor, "state": record.state}

    def stats(self) -> Dict[str, Any]:
        """Return the daemon's live statistics document."""
        with self._lock:
            states: Dict[str, int] = {}
            for record in self.store.records():
                states[record.state] = states.get(record.state, 0) + 1
            return {
                "counters": self.metrics.counter_values(),
                "queue_depth": len(self.queue),
                "queued_jobs": self.queue.job_ids(),
                "active_workers": len(self._workers),
                "max_workers": self.max_workers,
                "jobs_by_state": states,
                "cache_entries": len(self.cache),
            }

    def drain(self, timeout: float = 300.0) -> bool:
        """Block until queue and workers are empty; True on success.

        Testing/CLI helper — the dispatcher thread must be running.
        """
        with self._stepped:
            return self._stepped.wait_for(
                lambda: not self._workers and len(self.queue) == 0, timeout
            )
