"""The service crash drill: SIGKILL a real server mid-campaign.

This is the end-to-end acceptance test for crash-safe restart: a
``linesearch serve`` *subprocess* is killed with SIGKILL (no handler,
no drain, no goodbye) while a campaign is running, restarted on the
same state directory, and must finish the job with a report
byte-identical to an uninterrupted run — serving everything completed
before the kill from the journal-warmed cache instead of recomputing.
"""

import json

from repro.service.chaos import run_service_chaos


class TestSigkillRestart:
    def test_killed_server_resumes_byte_identical(self, tmp_path):
        report = run_service_chaos(
            str(tmp_path),
            seed=7,
            server_args=("--workers", "1"),
        )
        detail = report.describe() + "\n" + "\n".join(report.events)
        assert report.final_state == "done", detail
        assert report.byte_identical, detail
        assert report.kills >= 1, detail
        # the retry loop exists for pathological schedulers; the drill
        # must actually have killed the server mid-campaign to count
        assert report.killed_mid_campaign, detail
        assert report.cache_hits_after_restart > 0, detail
        # the report is JSON-serializable for CI artifacts
        json.dumps(report.to_dict())
