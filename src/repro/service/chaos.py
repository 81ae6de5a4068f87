"""Service-level chaos: SIGKILL the server mid-campaign, restart, verify.

:func:`run_service_chaos` is the seeded end-to-end crash drill behind
the ``service-smoke`` CI job and ``tests/service/test_chaos.py``:

1. compute the *uninterrupted* campaign report in-process (the same
   submission parsed by the same protocol code, run on the same
   executor) — the byte-identical reference;
2. start a real ``linesearch serve`` subprocess on a durable state
   directory and submit the campaign over HTTP;
3. at a seeded progress point, ``SIGKILL`` the server — no drain, no
   checkpoint beyond what the journal already holds;
4. restart the server on the same state directory and wait for the
   resumed job to finish;
5. verify the resumed report is byte-identical to the reference and
   that the scenarios completed before the kill were served from the
   warmed cache (``cache_hits > 0``) rather than recomputed.

Everything is driven through the public wire protocol — the harness
holds no handle into the server other than its PID and its port.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import LineSearchError
from repro.robustness.campaign import CampaignReport, build_scenario
from repro.robustness.executor import CampaignExecutor
from repro.service.client import ServiceClient
from repro.service.protocol import parse_submission

__all__ = ["ChaosReport", "run_service_chaos"]

_DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = ((3, 1), (4, 2), (5, 3))
_DEFAULT_TARGETS: Tuple[float, ...] = (1.0, -2.5, 4.0, -6.5)
_DEFAULT_FAULTS: Tuple[str, ...] = ("none", "crash_stop", "byzantine")


@dataclass
class ChaosReport:
    """What one service chaos drill observed."""

    total_scenarios: int
    kills: int
    killed_mid_campaign: bool
    completed_before_kill: int
    final_state: str
    byte_identical: bool
    cache_hits_after_restart: int
    attempts: int
    events: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """The acceptance gate: resumed byte-identically, with the
        pre-kill work served from cache, after a genuine mid-run kill."""
        return (
            self.final_state == "done"
            and self.byte_identical
            and (not self.killed_mid_campaign
                 or self.cache_hits_after_restart > 0)
        )

    def describe(self) -> str:
        lines = [
            "service chaos drill",
            f"  scenarios            : {self.total_scenarios}",
            f"  kills delivered      : {self.kills}",
            f"  killed mid-campaign  : {self.killed_mid_campaign} "
            f"(completed before kill: {self.completed_before_kill})",
            f"  final job state      : {self.final_state}",
            f"  byte-identical resume: {self.byte_identical}",
            f"  cache hits on resume : {self.cache_hits_after_restart}",
            f"  attempts             : {self.attempts}",
            f"  verdict              : "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_scenarios": self.total_scenarios,
            "kills": self.kills,
            "killed_mid_campaign": self.killed_mid_campaign,
            "completed_before_kill": self.completed_before_kill,
            "final_state": self.final_state,
            "byte_identical": self.byte_identical,
            "cache_hits_after_restart": self.cache_hits_after_restart,
            "attempts": self.attempts,
            "passed": self.passed,
            "events": self.events,
        }


# ----------------------------------------------------------------------
# server subprocess management
# ----------------------------------------------------------------------

def _server_env() -> Dict[str, str]:
    """The subprocess environment, with ``repro`` importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class _ServerProcess:
    """One ``linesearch serve`` subprocess with a port-file handshake."""

    def __init__(self, state_dir: str, extra_args: Sequence[str] = ()):
        self.state_dir = state_dir
        self.port_file = os.path.join(state_dir, "port")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state-dir", state_dir,
                "--port", "0",
                "--port-file", self.port_file,
                *extra_args,
            ],
            env=_server_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.port: Optional[int] = None

    def client(self, timeout: float = 15.0) -> ServiceClient:
        """Wait for the port file, then for readiness; return a client."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.process.poll() is not None:
                raise LineSearchError(
                    f"server exited early with code "
                    f"{self.process.returncode}"
                )
            try:
                with open(self.port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
                    break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise LineSearchError(
                    "server did not publish its port in time"
                )
            time.sleep(0.02)
        client = ServiceClient(
            f"http://127.0.0.1:{self.port}", client_id="chaos-harness"
        )
        client.wait_ready(timeout=max(0.1, deadline - time.monotonic()))
        return client

    def kill(self) -> None:
        """SIGKILL — the crash under test; no chance to checkpoint."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10.0)

    def terminate(self) -> None:
        """SIGTERM and reap (cleanup path, not the crash under test)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)


# ----------------------------------------------------------------------
# the drill
# ----------------------------------------------------------------------

def _reference_report(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The uninterrupted campaign report, computed in-process through
    the same protocol parse and executor the server uses."""
    submission = parse_submission(payload)
    scenarios = [build_scenario(spec) for spec in submission.specs]
    executor = CampaignExecutor(handle_sigterm=False)
    report = executor.execute(
        scenarios, check_invariants=submission.check_invariants
    )
    return report.to_dict()


def _campaign_payload(pairs, targets, faults, seed) -> Dict[str, Any]:
    return {
        "pairs": [list(pair) for pair in pairs],
        "targets": list(targets),
        "faults": list(faults),
        "seed": seed,
        "client": "chaos-harness",
        "deadline": 300.0,
    }


def run_service_chaos(
    state_dir: str,
    seed: int = 0,
    pairs: Sequence[Tuple[int, int]] = _DEFAULT_PAIRS,
    targets: Sequence[float] = _DEFAULT_TARGETS,
    faults: Sequence[str] = _DEFAULT_FAULTS,
    kills: int = 1,
    max_attempts: int = 3,
    job_timeout: float = 120.0,
    server_args: Sequence[str] = (),
) -> ChaosReport:
    """Run the kill/restart drill; see the module docstring.

    The kill point is seeded: a progress threshold is drawn from the
    campaign's interior, and the server is killed as soon as the job
    reports that many completed scenarios.  If a campaign outruns the
    poller (the job finishes before the kill lands), the attempt is
    discarded and retried in a fresh subdirectory up to
    ``max_attempts`` times — a kill that lands after completion would
    test nothing.

    Args:
        state_dir: scratch directory; each attempt uses a fresh
            subdirectory, the reference report is computed in-process.
        seed: drives both the campaign grid and the kill points.
        kills: how many kill/restart cycles to inflict (>= 1).
        server_args: extra ``linesearch serve`` CLI arguments.

    Returns:
        A :class:`ChaosReport`; ``report.passed`` is the gate.
    """
    if kills < 1:
        raise LineSearchError("kills must be >= 1")
    payload = _campaign_payload(pairs, targets, faults, seed)
    reference = _reference_report(payload)
    total = len(reference["results"])
    rng = random.Random(seed)
    events: List[str] = []

    last: Optional[ChaosReport] = None
    for attempt in range(1, max_attempts + 1):
        attempt_dir = os.path.join(state_dir, f"attempt-{attempt:02d}")
        os.makedirs(attempt_dir, exist_ok=True)
        report = _run_attempt(
            attempt_dir, payload, reference, total, rng, kills,
            job_timeout, server_args, events,
        )
        report.attempts = attempt
        last = report
        if report.killed_mid_campaign or not report.byte_identical:
            break
        events.append(
            f"attempt {attempt}: campaign finished before the kill "
            f"landed; retrying"
        )
    assert last is not None
    last.events = events
    return last


def _run_attempt(
    attempt_dir: str,
    payload: Dict[str, Any],
    reference: Dict[str, Any],
    total: int,
    rng: random.Random,
    kills: int,
    job_timeout: float,
    server_args: Sequence[str],
    events: List[str],
) -> ChaosReport:
    server = _ServerProcess(attempt_dir, extra_args=server_args)
    kills_delivered = 0
    killed_mid = False
    completed_before_kill = 0
    try:
        client = server.client()
        accepted = client.submit_campaign(**payload)
        job_id = accepted["job_id"]
        events.append(f"submitted {job_id}: {total} scenario(s)")

        for _ in range(kills):
            threshold = rng.randint(1, max(1, total - 2))
            landed, seen = _await_progress(client, job_id, threshold)
            server.kill()
            kills_delivered += 1
            if landed:
                killed_mid = True
                completed_before_kill = max(completed_before_kill, seen)
                events.append(
                    f"SIGKILL at >= {seen}/{total} completed"
                )
            else:
                events.append(
                    f"SIGKILL landed after completion ({seen}/{total})"
                )
            server = _ServerProcess(attempt_dir, extra_args=server_args)
            client = server.client()
        events.append("server restarted; waiting for the resumed job")

        envelope = client.wait(job_id, timeout=job_timeout)
        final_state = envelope.get("state", "failed")
        resumed = envelope.get("report")
        identical = _canonical(resumed) == _canonical(reference)
        cache_hits = int(envelope.get("cache_hits", 0))
        return ChaosReport(
            total_scenarios=total,
            kills=kills_delivered,
            killed_mid_campaign=killed_mid,
            completed_before_kill=completed_before_kill,
            final_state=final_state,
            byte_identical=identical,
            cache_hits_after_restart=cache_hits,
            attempts=1,
        )
    finally:
        server.terminate()


def _await_progress(client: ServiceClient, job_id: str,
                    threshold: int) -> Tuple[bool, int]:
    """Poll until ``threshold`` scenarios completed (True) or the job
    went terminal first (False); returns the last completed count."""
    seen = 0
    while True:
        try:
            view = client.poll(job_id)
        except (ConnectionError, LineSearchError):
            return False, seen
        seen = int(view.get("completed", 0))
        if view["state"] in ("done", "failed", "deadline_exceeded"):
            return False, seen
        if seen >= threshold and view["state"] == "running":
            return True, seen
        time.sleep(0.002)


def _canonical(report: Optional[Dict[str, Any]]) -> str:
    if report is None:
        return ""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
