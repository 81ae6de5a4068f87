"""The long-running threaded search service.

:class:`LineSearchService` is a stdlib-only HTTP server (a
``ThreadingHTTPServer`` front door, a bounded admission queue, a small
pool of worker threads) over the resilient
:class:`~repro.robustness.executor.CampaignExecutor`.  The JSON wire
protocol lives in :mod:`repro.service.protocol`; this module is the
machine behind it.

Endpoints (all under ``/v1``)::

    POST /v1/scenarios        submit one scenario (cache-first)
    POST /v1/campaigns        submit a campaign (specs list or grid)
    GET  /v1/jobs             job ids and state counts
    GET  /v1/jobs/<id>        poll one job's state and progress
    GET  /v1/jobs/<id>/result fetch the terminal report envelope
    GET  /v1/jobs/<id>/events stream progress as JSON lines
    GET  /v1/healthz          liveness
    GET  /v1/readyz           readiness: queue, workers, cache
    GET  /v1/metrics          live Prometheus text

Robustness model
----------------
*Overload* — admission holds a single lock; when the bounded queue is
at capacity the submission is refused with ``overloaded`` immediately.
The queue physically cannot exceed its capacity.

*Rate limits* — a token bucket per client id; empty bucket →
``rate_limited``.

*Deadlines* — each job carries an absolute deadline.  Expired while
queued → cancelled before any work; expired mid-campaign → the
executor's ``stop_check`` fires, the journal checkpoints, and the job
terminates ``deadline_exceeded`` (partial work stays journaled and
cached).  The remaining budget also clamps the executor's per-scenario
watchdog when one is configured.

*Drain* — SIGTERM (via :meth:`LineSearchService.serve_forever`) or
:meth:`drain`: admission stops (``shutting_down``), running campaigns
checkpoint their journals and park as ``interrupted``, queued jobs
stay manifested, the process exits 0.  Nothing is torn.

*Restart* — the state directory is the truth: the manifest names every
accepted job, per-job journals hold every completed scenario, report
files mark terminal jobs.  On start the registry replays the manifest,
warms the result cache from the journals, and requeues every
non-terminal job; their campaigns resume byte-identically (scenarios
already computed are served from the warmed cache, the rest run).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.errors import (
    CampaignInterrupted,
    InvalidParameterError,
    LineSearchError,
)
from repro.observability import instrument as obs
from repro.robustness.campaign import (
    CampaignReport,
    ScenarioResult,
    build_scenario,
    error_class_of,
    scenario_key,
)
from repro.robustness.executor import CampaignExecutor, RetryPolicy
from repro.service.cache import ResultCache
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    Submission,
    dumps,
    parse_submission,
)
from repro.service.queueing import AdmissionQueue, Job, JobRegistry
from repro.service.ratelimit import RateLimiter

__all__ = ["LineSearchService", "ServiceConfig"]

#: How long workers block on the queue before re-checking for shutdown.
_TAKE_TIMEOUT = 0.1


@dataclass(frozen=True)
class ServiceConfig:
    """Everything tunable about a service instance, validated eagerly.

    Args:
        state_dir: the durable state directory (manifest, journals,
            reports).  Created if missing.
        host/port: bind address; port 0 picks a free port (read the
            chosen one from :attr:`LineSearchService.port`).
        workers: worker threads executing jobs.
        queue_capacity: admission queue bound; submissions beyond it
            are refused with ``overloaded``.
        rate_capacity/rate_per_second: per-client token bucket burst
            and refill; ``None`` capacity disables rate limiting.
        cache_size: result-cache entries; 0 disables the cache.
        default_deadline: deadline applied to submissions that carry
            none (seconds); ``None`` means no implicit deadline.
        max_deadline: ceiling clamped onto client deadlines.
        scenario_timeout: per-scenario watchdog forwarded to the
            executor (forces the worker-process pool).
        executor_jobs: worker *processes* per campaign executor.
        max_scenarios_per_job: per-submission scenario bound.
        overload_retry_after: hint (seconds) sent in the
            ``Retry-After`` header with ``overloaded`` refusals.
        enable_telemetry: collect ``service.*`` spans and counters.

    Examples:
        >>> ServiceConfig(state_dir="x", queue_capacity=0)
        Traceback (most recent call last):
          ...
        repro.errors.InvalidParameterError: queue_capacity must be >= 1
    """

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_capacity: int = 16
    rate_capacity: Optional[float] = None
    rate_per_second: float = 10.0
    cache_size: int = 4096
    default_deadline: Optional[float] = 300.0
    max_deadline: float = 3600.0
    scenario_timeout: Optional[float] = None
    executor_jobs: int = 1
    retry_policy: Optional[RetryPolicy] = None
    max_scenarios_per_job: int = 10000
    overload_retry_after: float = 1.0
    enable_telemetry: bool = True

    def __post_init__(self):
        if not self.state_dir:
            raise InvalidParameterError("state_dir is required")
        if self.workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise InvalidParameterError("queue_capacity must be >= 1")
        if self.rate_capacity is not None and self.rate_capacity <= 0:
            raise InvalidParameterError(
                "rate_capacity must be positive (or None to disable)"
            )
        if self.rate_per_second <= 0:
            raise InvalidParameterError("rate_per_second must be positive")
        if self.cache_size < 0:
            raise InvalidParameterError("cache_size must be >= 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise InvalidParameterError(
                "default_deadline must be positive (or None)"
            )
        if self.max_deadline <= 0:
            raise InvalidParameterError("max_deadline must be positive")
        if self.scenario_timeout is not None and self.scenario_timeout <= 0:
            raise InvalidParameterError(
                "scenario_timeout must be positive (or None)"
            )
        if self.executor_jobs < 1:
            raise InvalidParameterError("executor_jobs must be >= 1")
        if self.max_scenarios_per_job < 1:
            raise InvalidParameterError(
                "max_scenarios_per_job must be >= 1"
            )
        if self.overload_retry_after <= 0:
            raise InvalidParameterError(
                "overload_retry_after must be positive"
            )


class _HTTPServer(ThreadingHTTPServer):
    # socketserver's default listen backlog of 5 drops connections under
    # concurrent bursts (the kernel RSTs half-accepted sockets once the
    # accept queue overflows); admission control belongs to the bounded
    # job queue, not the TCP layer.
    request_queue_size = 128


class LineSearchService:
    """The serving layer: admission, workers, durability, telemetry."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.registry = JobRegistry(config.state_dir)
        self.queue = AdmissionQueue(config.queue_capacity)
        self.cache = (
            ResultCache(config.cache_size) if config.cache_size else None
        )
        self.limiter = (
            RateLimiter(config.rate_capacity, config.rate_per_second)
            if config.rate_capacity is not None
            else None
        )
        self._admission_lock = threading.Lock()
        self._drain_event = threading.Event()
        self._draining = False
        self._started = time.monotonic()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._telemetry = None
        self._previous_telemetry = None
        # Recover durable state before taking any traffic: replay the
        # manifest, warm the cache from every journal, requeue the
        # non-terminal jobs in submission order.
        self._recovered = self.registry.recover()
        if self.cache is not None:
            for job in self.registry.jobs():
                self.cache.warm_from_journal(
                    self.registry.journal_path(job.id)
                )

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "LineSearchService":
        """Bind, spawn the HTTP thread and the workers, requeue
        recovered jobs.  Returns ``self`` for chaining."""
        if self._httpd is not None:
            raise LineSearchError("service already started")
        if self.config.enable_telemetry and obs.current() is None:
            self._telemetry = obs.Telemetry(
                metadata={"command": "serve", "state_dir":
                          self.config.state_dir}
            )
            self._previous_telemetry = obs.configure(self._telemetry)
        handler = type(
            "LineSearchHTTPHandler", (_Handler,), {"service": self}
        )
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._http_thread.start()
        for ident in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"service-worker-{ident}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        obs.gauge_set("service_workers_alive", self.workers_alive())
        for job in self._recovered:
            # Recovered jobs bypass admission control: they were
            # admitted before the crash and the queue bound applies to
            # *new* traffic.  offer() may refuse if capacity < backlog;
            # fall back to blocking re-offers from a requeue thread.
            if not self.queue.offer(job):
                threading.Thread(
                    target=self._requeue_until_accepted,
                    args=(job,),
                    daemon=True,
                ).start()
            else:
                obs.gauge_set("service_queue_depth", self.queue.depth())
        self._recovered = []
        return self

    def _requeue_until_accepted(self, job: Job) -> None:
        while not self._drain_event.is_set():
            if self.queue.offer(job):
                obs.gauge_set("service_queue_depth", self.queue.depth())
                return
            time.sleep(_TAKE_TIMEOUT)

    def serve_forever(self) -> int:
        """Run until SIGTERM/SIGINT, then drain gracefully; returns the
        process exit code (0 on a clean drain).  Main thread only."""
        import signal

        stop = threading.Event()

        def _on_signal(signum, frame):
            stop.set()

        previous = {
            s: signal.signal(s, _on_signal)
            for s in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            if self._httpd is None:
                self.start()
            while not stop.wait(timeout=0.2):
                pass
            self.drain()
            return 0
        finally:
            for s, handler in previous.items():
                signal.signal(s, handler)

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, checkpoint in-flight
        campaigns, stop the HTTP front end."""
        if self._draining:
            return
        self._draining = True
        obs.count("service_drains_total")
        self._drain_event.set()
        self.queue.close()
        deadline = time.monotonic() + timeout
        for thread in self._workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._stop_http()

    def stop(self) -> None:
        """Hard stop for tests: no checkpointing beyond what the
        journals already hold."""
        self._drain_event.set()
        self.queue.close()
        self._stop_http()

    def _stop_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._telemetry is not None:
            obs.configure(self._previous_telemetry)
            self._telemetry = None

    @property
    def draining(self) -> bool:
        return self._draining

    def workers_alive(self) -> int:
        return sum(1 for t in self._workers if t.is_alive())

    def telemetry(self):
        """The service's telemetry (for exporters), or the ambient one."""
        return self._telemetry or obs.current()

    # -- dashboard -----------------------------------------------------

    def _dashboard_telemetry(self):
        telemetry = self.telemetry()
        if telemetry is None:
            raise ServiceError(
                "conflict", "telemetry is disabled on this server"
            )
        return telemetry

    def dashboard_state(self):
        """The canonical panel state (see :mod:`repro.dashboard.state`)."""
        from repro.dashboard.state import state_from_telemetry

        return state_from_telemetry(self._dashboard_telemetry())

    def dashboard_progress(self) -> Dict[str, Any]:
        """The live job-progress payload for the stream's ``jobs`` events."""
        return {
            "queue_depth": self.queue.depth(),
            "states": self.registry.state_counts(),
            "workers_alive": self.workers_alive(),
            "draining": self._draining,
        }

    def dashboard_streamer(self, interval: float = 0.5):
        """A :class:`~repro.dashboard.stream.DashboardStreamer` wired to
        this service's registry, tracer, and job book-keeping."""
        from repro.dashboard.stream import DashboardStreamer

        telemetry = self._dashboard_telemetry()
        return DashboardStreamer(
            metrics=telemetry.metrics,
            spans=telemetry.tracer.records,
            jobs=self.dashboard_progress,
            interval=interval,
        )

    # -- admission -----------------------------------------------------

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Admit one parsed-or-raw submission; returns the response body.

        Raises :class:`ServiceError` with ``shutting_down``,
        ``bad_request``, ``rate_limited``, or ``overloaded``.
        """
        if self._draining:
            raise ServiceError(
                "shutting_down", "the server is draining; retry elsewhere"
            )
        submission = (
            payload
            if isinstance(payload, Submission)
            else parse_submission(
                payload,
                default_deadline=self.config.default_deadline,
                max_deadline=self.config.max_deadline,
                max_scenarios=self.config.max_scenarios_per_job,
            )
        )
        if self.limiter is not None and not self.limiter.allow(
            submission.client
        ):
            obs.count("service_rate_limited_total")
            raise ServiceError(
                "rate_limited",
                f"client {submission.client!r} is over its rate limit",
                retry_after=self.limiter.retry_after(submission.client),
            )
        # Single scenarios are answered straight from the cache when
        # possible — no job, no queue slot, no recomputation.
        if (
            len(submission.specs) == 1
            and self.cache is not None
        ):
            hit = self.cache.get(scenario_key(submission.specs[0]))
            if hit is not None:
                return {
                    "ok": True,
                    "cached": True,
                    "result": hit.to_dict(),
                }
        with self._admission_lock:
            if self.queue.depth() >= self.queue.capacity:
                obs.count("service_overload_rejections_total")
                raise ServiceError(
                    "overloaded",
                    f"the admission queue is full "
                    f"({self.queue.capacity} job(s)); retry with backoff",
                    retry_after=self.config.overload_retry_after,
                )
            job = self.registry.create(submission)
            accepted = self.queue.offer(job)
        if not accepted:  # the queue closed between checks (drain race)
            raise ServiceError(
                "shutting_down", "the server is draining; retry elsewhere"
            )
        obs.count("service_jobs_submitted_total")
        obs.gauge_set("service_queue_depth", self.queue.depth())
        return {
            "ok": True,
            "cached": False,
            "job_id": job.id,
            "state": job.state,
            "total": job.total,
            "deadline_at": job.deadline_at,
        }

    # -- workers -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.take(timeout=_TAKE_TIMEOUT)
            if job is None:
                if self.queue.closed:
                    return
                continue
            obs.gauge_set("service_queue_depth", self.queue.depth())
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if self._drain_event.is_set():
            # Drained between dequeue and execution: leave the job
            # manifested and un-terminal; restart requeues it.
            job.set_state(
                "interrupted",
                message="server drained before execution; will resume",
            )
            return
        if job.expired():
            self._finish(
                job,
                "deadline_exceeded",
                error="deadline_exceeded",
                message="the deadline passed while the job was queued",
            )
            obs.count("service_deadline_expirations_total")
            return
        job.set_state("running")
        job.publish({"event": "running", "job_id": job.id})
        obs.gauge_set("service_jobs_running", self._running_count())
        started = time.monotonic()
        try:
            with obs.span(
                "service.job",
                job=job.id,
                scenarios=job.total,
            ):
                self._execute_job(job)
        except CampaignInterrupted:
            if self._drain_event.is_set():
                job.set_state(
                    "interrupted",
                    message=(
                        "campaign checkpointed by a drain; the job "
                        "resumes on the next start"
                    ),
                )
                job.publish({"event": "interrupted", "job_id": job.id})
            else:
                obs.count("service_deadline_expirations_total")
                self._finish(
                    job,
                    "deadline_exceeded",
                    error="deadline_exceeded",
                    message=(
                        "the deadline passed mid-campaign; completed "
                        "scenarios stay journaled and cached"
                    ),
                )
        except Exception as exc:  # noqa: BLE001 - isolate job failures
            self._finish(
                job,
                "failed",
                error="internal",
                message=f"{error_class_of(exc)}: {exc}",
            )
        finally:
            obs.observe("service_job_seconds", time.monotonic() - started)
            obs.gauge_set("service_jobs_running", self._running_count())

    def _running_count(self) -> int:
        return sum(1 for j in self.registry.jobs() if j.state == "running")

    def _finish(self, job: Job, state: str, error: Optional[str] = None,
                message: Optional[str] = None) -> None:
        # The report file is written *before* the state flips terminal
        # so a poller that observes the terminal state can always fetch
        # the result; the state flip and the final event are atomic so
        # a stream never closes without delivering "done".
        job.error = error
        job.message = message
        self.registry.write_report(job, state=state)
        job.set_state(
            state,
            error=error,
            message=message,
            event={
                "event": "done",
                "job_id": job.id,
                "state": state,
                "completed": job.completed,
                "total": job.total,
                "cache_hits": job.cache_hits,
            },
        )
        obs.count("service_jobs_completed_total", status=state)

    def _effective_timeout(self, job: Job) -> Optional[float]:
        """The per-scenario watchdog: the configured budget, clamped by
        the job's remaining deadline when one is nearer."""
        timeout = self.config.scenario_timeout
        if timeout is None:
            return None
        remaining = job.remaining_deadline()
        if remaining < timeout:
            timeout = max(remaining, 0.01)
        return timeout

    def _execute_job(self, job: Job) -> None:
        submission = job.submission
        scenarios = [build_scenario(spec) for spec in submission.specs]
        results: Dict[int, ScenarioResult] = {}
        to_run: List[Tuple[int, Any]] = []
        for index, scenario in enumerate(scenarios):
            hit = (
                self.cache.get(scenario_key(scenario.spec))
                if self.cache is not None
                else None
            )
            if hit is not None:
                results[index] = hit
                job.cache_hits += 1
            else:
                to_run.append((index, scenario))
        job.completed = len(results)
        job.publish(
            {
                "event": "progress",
                "job_id": job.id,
                "completed": job.completed,
                "total": job.total,
                "cache_hits": job.cache_hits,
            }
        )
        if to_run:
            executor = CampaignExecutor(
                jobs=self.config.executor_jobs,
                timeout=self._effective_timeout(job),
                retry_policy=self.config.retry_policy,
                journal_path=self.registry.journal_path(job.id),
                resume=True,
                handle_sigterm=False,
            )

            def on_result(_sub_index: int, result: ScenarioResult) -> None:
                # cache immediately (not after the run) so work done
                # before a deadline interrupt or drain stays servable
                if self.cache is not None:
                    self.cache.put(scenario_key(result.spec), result)
                job.completed += 1
                job.publish(
                    {
                        "event": "progress",
                        "job_id": job.id,
                        "completed": job.completed,
                        "total": job.total,
                        "cache_hits": job.cache_hits,
                    }
                )

            def stop_check() -> bool:
                return self._drain_event.is_set() or job.expired()

            subreport = executor.execute(
                [scenario for _, scenario in to_run],
                check_invariants=submission.check_invariants,
                stop_check=stop_check,
                on_result=on_result,
            )
            for position, (index, _) in enumerate(to_run):
                result = subreport.results[position]
                results[index] = result
                if self.cache is not None:
                    self.cache.put(scenario_key(result.spec), result)
        job.completed = len(results)
        job.report = CampaignReport(
            results=[results[i] for i in range(job.total)]
        )
        self._finish(job, "done")

    # -- introspection bodies ------------------------------------------

    def health_body(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
        }

    def ready_body(self) -> Tuple[int, Dict[str, Any]]:
        alive = self.workers_alive()
        ready = (
            not self._draining
            and self._httpd is not None
            and alive == self.config.workers
        )
        body = {
            "ok": ready,
            "ready": ready,
            "draining": self._draining,
            "queue": {
                "depth": self.queue.depth(),
                "capacity": self.queue.capacity,
            },
            "workers": {
                "alive": alive,
                "configured": self.config.workers,
            },
            "jobs": self.registry.state_counts(),
            "cache": None if self.cache is None else self.cache.stats(),
            "rate_limit": (
                None if self.limiter is None else self.limiter.stats()
            ),
            "uptime_seconds": time.monotonic() - self._started,
        }
        return (200 if ready else 503), body


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

_MAX_BODY = 8 << 20  # 8 MiB: far beyond any sane submission


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP traffic into the service; all responses are JSON."""

    #: Injected by :meth:`LineSearchService.start` via a subclass.
    service: LineSearchService
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through telemetry, not stderr

    def _send_json(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = dumps(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ServiceError(
                "bad_request", f"request body exceeds {_MAX_BODY} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("bad_request", "a JSON body is required")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                "bad_request", f"body is not valid JSON: {exc}"
            ) from None

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        started = time.monotonic()
        status = 500
        endpoint = path
        try:
            with obs.span("service.request", method=method, path=path):
                status, endpoint = self._route(method, path)
        except ServiceError as exc:
            status = exc.http_status
            self._safe_send(status, exc.body(), exc.headers())
        except BrokenPipeError:
            status = 499  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - never kill the thread
            status = 500
            self._safe_send(
                500,
                ServiceError(
                    "internal", f"{error_class_of(exc)}: {exc}"
                ).body(),
            )
        finally:
            obs.count(
                "service_requests_total",
                endpoint=endpoint,
                status=status,
            )
            obs.observe(
                "service_request_seconds", time.monotonic() - started
            )

    def _safe_send(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        try:
            self._send_json(status, body, headers)
        except (BrokenPipeError, OSError):
            pass

    # -- routing -------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def _route(self, method: str, path: str) -> Tuple[int, str]:
        """Handle one request; returns ``(status, endpoint label)``."""
        service = self.service
        if method == "POST" and path in ("/v1/scenarios", "/v1/campaigns"):
            body = service.submit(self._read_body())
            status = 200 if body.get("cached") else 202
            self._send_json(status, body)
            return status, path
        if method == "GET" and path == "/v1/jobs":
            jobs = service.registry.jobs()
            self._send_json(
                200,
                {
                    "ok": True,
                    "jobs": [job.id for job in jobs],
                    "states": service.registry.state_counts(),
                },
            )
            return 200, path
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            parts = rest.split("/")
            job = service.registry.get(parts[0])
            if len(parts) == 1:
                self._send_json(200, {"ok": True, **job.view()})
                return 200, "/v1/jobs/<id>"
            if parts[1:] == ["result"]:
                envelope = service.registry.load_report(job.id)
                self._send_json(200, {"ok": True, **envelope})
                return 200, "/v1/jobs/<id>/result"
            if parts[1:] == ["events"]:
                self._stream_events(job)
                return 200, "/v1/jobs/<id>/events"
            raise ServiceError("not_found", f"no route {path!r}")
        if method == "GET" and path == "/v1/healthz":
            self._send_json(200, service.health_body())
            return 200, path
        if method == "GET" and path == "/v1/readyz":
            status, body = service.ready_body()
            self._send_json(status, body)
            return status, path
        if method == "GET" and path == "/v1/metrics":
            self._send_metrics()
            return 200, path
        if method == "GET" and path == "/v1/dashboard":
            self._send_dashboard_page()
            return 200, path
        if method == "GET" and path == "/v1/dashboard/state":
            self._send_json(200, self.service.dashboard_state().to_dict())
            return 200, path
        if method == "GET" and path == "/v1/dashboard/stream":
            self._stream_dashboard()
            return 200, path
        raise ServiceError("not_found", f"no route {method} {path!r}")

    # -- streaming -----------------------------------------------------

    def _stream_events(self, job: Job) -> None:
        """JSON-lines progress stream; ends when the job is terminal.

        The response is ``Connection: close`` delimited — the client
        reads lines until EOF.  A slow or vanished consumer only costs
        this handler thread; the job's bounded event buffer never grows
        for it.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        cursor = 0
        snapshot = {"event": "snapshot", **job.view()}
        self.wfile.write(dumps(snapshot))
        self.wfile.flush()
        while True:
            events, cursor, finished = job.events_since(cursor, timeout=0.5)
            for event in events:
                self.wfile.write(dumps(event))
            if events:
                self.wfile.flush()
            if finished:
                return
            if self.service._drain_event.is_set() and not events:
                # draining: close streams promptly so shutdown is not
                # held open by idle subscribers
                self.wfile.write(
                    dumps({"event": "stream_closed", "reason": "draining"})
                )
                self.wfile.flush()
                return

    def _send_dashboard_page(self) -> None:
        from repro.dashboard.html import render_dashboard_html

        data = render_dashboard_html().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _stream_dashboard(self) -> None:
        """The SSE multiplex stream; ``Connection: close`` delimited.

        Query parameters: ``until=idle`` ends the stream (with a
        ``done`` frame) once the service has nothing queued or running;
        ``interval=<seconds>`` tunes the sampling period.  The streamer
        buffers through the same bounded-outbox discipline as the
        per-job event log, so a slow consumer costs one handler thread
        and a drop counter, never unbounded memory.
        """
        from urllib.parse import parse_qs, urlparse

        from repro.observability.export import SSE_MEDIA_TYPE

        query = parse_qs(urlparse(self.path).query)
        until_idle = "idle" in query.get("until", [])
        try:
            interval = float(query.get("interval", ["0.25"])[0])
        except ValueError:
            raise ServiceError(
                "bad_request", "interval must be a number of seconds"
            ) from None
        interval = min(max(interval, 0.05), 5.0)
        streamer = self.service.dashboard_streamer(interval=interval)
        self.send_response(200)
        self.send_header("Content-Type", SSE_MEDIA_TYPE)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        drain = self.service._drain_event
        for frame in streamer.frames(
            until_idle=until_idle, stop=drain.is_set
        ):
            self.wfile.write(frame.encode("utf-8"))
            self.wfile.flush()

    def _send_metrics(self) -> None:
        from repro.observability.export import to_prometheus

        telemetry = self.service.telemetry()
        if telemetry is None:
            raise ServiceError(
                "conflict", "telemetry is disabled on this server"
            )
        text = to_prometheus(telemetry)
        data = text.encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
