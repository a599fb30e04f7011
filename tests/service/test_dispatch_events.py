"""The event-driven dispatcher.

The dispatcher has no timer: it runs one step per wake-up — a job
enqueued (submit / resume), a worker exiting, or ``stop()``.  A wake
the code forgets to send therefore hangs ``drain`` instead of costing a
poll tick, which is what these tests would catch.  They are functional,
not timing-tight: every bound is generous.
"""

import time

from repro.designs import design_by_name, design_to_json
from repro.service import JobState, PacorService


def count_steps(service):
    """Wrap ``service.step`` so the dispatcher's calls are counted."""
    calls = []
    original = service.step

    def counted():
        calls.append(None)
        original()

    service.step = counted
    return calls


def design(name):
    return design_to_json(design_by_name(name))


def drain_promptly(service):
    """``drain(timeout=10)`` succeeds, well before its deadline.

    A missed wake of the dispatcher leaves the job queued, so drain
    returns False; a missed notify of drain itself returns True only at
    the deadline, which the time bound catches.
    """
    tic = time.monotonic()
    assert service.drain(timeout=10)
    assert time.monotonic() - tic < 8.0


class TestWakeups:
    def test_idle_dispatcher_does_not_spin(self, tmp_path):
        service = PacorService(tmp_path, workers=1)
        calls = count_steps(service)
        service.start()
        try:
            time.sleep(0.5)
            assert len(calls) <= 2
        finally:
            service.stop(graceful=False, timeout=10.0)

    def test_submit_to_idle_service_wakes_dispatcher(self, tmp_path):
        service = PacorService(tmp_path, workers=1)
        service.start()
        try:
            time.sleep(0.2)  # let the loop settle into its wait
            record = service.submit(design("S1"))
            drain_promptly(service)
            assert service.job(record.job_id).state == JobState.SUCCEEDED
        finally:
            service.stop(graceful=False, timeout=10.0)

    def test_worker_exit_refills_the_only_slot(self, tmp_path):
        service = PacorService(tmp_path, workers=1)
        service.start()
        try:
            records = [service.submit(design(n)) for n in ("S1", "S2", "S3")]
            drain_promptly(service)
            for record in records:
                final = service.job(record.job_id)
                assert final.state == JobState.SUCCEEDED, final.error
            # One slot: each job launched only after the previous one
            # was reaped.
            finals = [service.job(r.job_id) for r in records]
            for earlier, later in zip(finals, finals[1:]):
                assert later.started_at >= earlier.finished_at
        finally:
            service.stop(graceful=False, timeout=10.0)

    def test_resume_wakes_dispatcher(self, tmp_path):
        service = PacorService(tmp_path, workers=1)
        record = service.submit(design("S3"), budget={"astar_expansions": 200})
        service.start()
        try:
            drain_promptly(service)
            assert service.job(record.job_id).state == JobState.PREEMPTED
            time.sleep(0.2)  # idle again before the resume
            service.resume(record.job_id, budget={"astar_expansions": None})
            drain_promptly(service)
            final = service.job(record.job_id)
            assert final.state == JobState.SUCCEEDED, final.error
            assert final.attempts == 2
        finally:
            service.stop(graceful=False, timeout=10.0)

    def test_stop_ends_idle_dispatcher_promptly(self, tmp_path):
        service = PacorService(tmp_path, workers=1)
        service.start()
        thread = service._thread
        time.sleep(0.2)
        tic = time.monotonic()
        service.stop(timeout=2.0)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert time.monotonic() - tic < 2.0
