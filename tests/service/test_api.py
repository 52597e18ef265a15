"""Wire protocol tests: a real unix-socket server, a real sync client.

The server runs in a daemon thread with its own event loop — exactly
how ``repro serve`` hosts it — and the tests talk to it through the
same blocking-socket client functions the CLI uses.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import (
    ServiceAPI,
    ServiceConfig,
    ServiceError,
    SimulationService,
    request,
    submit_job,
)

SPEC = {"n_per_side": 6, "n_steps": 1}


@pytest.fixture()
def server(tmp_path):
    """A live service API on a tmp socket; yields the socket path."""
    socket_path = tmp_path / "repro.sock"
    ready = threading.Event()
    failure = []

    def host():
        async def main():
            service = SimulationService(
                ServiceConfig(workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
            )
            api = ServiceAPI(service, socket_path)
            await api.start()
            ready.set()
            await api.serve_until_shutdown()

        try:
            asyncio.run(main())
        except Exception as exc:  # pragma: no cover
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert ready.wait(10), "server never came up"
    if failure:  # pragma: no cover
        raise failure[0]
    yield socket_path
    if socket_path.exists():
        request(socket_path, {"op": "shutdown"})
    thread.join(timeout=30)
    assert not thread.is_alive(), "server thread did not exit after shutdown"


class TestProtocol:
    def test_ping_reports_protocol_version(self, server):
        response = request(server, {"op": "ping"})
        assert response == {"ok": True, "version": 1}

    def test_unknown_op_is_a_typed_error(self, server):
        response = request(server, {"op": "teleport"})
        assert response["ok"] is False
        assert response["error"]["type"] == "SubmissionError"

    def test_garbage_line_is_a_typed_error_not_a_hangup(self, server):
        import json
        import socket as socketlib

        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(str(server))
            sock.sendall(b"this is not json\n")
            sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            data = b""
            while data.count(b"\n") < 2:
                data += sock.recv(65536)
        first, second = [json.loads(l) for l in data.splitlines()[:2]]
        assert first["ok"] is False
        assert second == {"ok": True, "version": 1}

    def test_malformed_spec_returns_submission_error(self, server):
        lines = list(submit_job(server, {"n_per_side": 6, "warp": 9}))
        assert lines[-1]["ok"] is False
        assert lines[-1]["error"]["type"] == "SubmissionError"


class TestSubmitRoundTrip:
    def test_stream_submit_yields_ack_events_result(self, server):
        lines = list(submit_job(server, dict(SPEC, seed=31), stream=True))
        assert lines[0]["ok"] and "spec_hash" in lines[0]  # ack
        events = [l["event"] for l in lines if "event" in l]
        assert [e["step"] for e in events] == [0]
        final = lines[-1]
        assert final["state"] == "completed"
        assert "diagnostics" in final["result"]["products"]

    def test_duplicate_submission_is_served_from_cache(self, server):
        first = list(submit_job(server, dict(SPEC, seed=32)))[-1]
        assert first["result"]["from_cache"] is False
        second = list(submit_job(server, dict(SPEC, seed=32)))[-1]
        assert second["result"]["from_cache"] is True
        assert (
            second["result"]["products"]["diagnostics"]
            == first["result"]["products"]["diagnostics"]
        )

    def test_no_wait_submit_acks_then_jobs_op_sees_it(self, server):
        ack = request(server, {"op": "submit", "spec": dict(SPEC, seed=33), "wait": False})
        assert ack["ok"] and "job_id" in ack
        listing = request(server, {"op": "jobs"})
        assert any(j["job_id"] == ack["job_id"] for j in listing["jobs"])

    def test_stats_op_reports_cache_and_queue(self, server):
        list(submit_job(server, dict(SPEC, seed=34)))
        stats = request(server, {"op": "stats"})["stats"]
        states = [j["state"] for j in stats["jobs"]]
        assert states.count("completed") >= 1
        assert "cache" in stats and "queue_depth" in stats
        assert stats["counters"]["svc.jobs.submitted"] >= 1


class TestClientErrors:
    def test_request_against_missing_socket_raises(self, tmp_path):
        with pytest.raises(OSError):
            request(tmp_path / "nope.sock", {"op": "ping"}, timeout=1)

    def test_service_error_is_an_exception_type(self):
        assert issubclass(ServiceError, Exception)
