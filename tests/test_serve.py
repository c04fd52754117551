"""Tests for the design-flow service daemon (``repro serve``).

Three layers:

* protocol unit tests — request keys, strict submission parsing, the
  byte-stable deterministic result subset;
* queue unit tests — dedup dispositions, priority order, back-pressure,
  cancellation and drain semantics, no HTTP involved;
* end-to-end service tests — a real daemon on a background thread
  (:func:`start_in_background`) driven through the blocking client,
  covering the error paths the wire contract promises: malformed JSON is
  a 400, an unknown workload a 404, a full queue a 429 with a retry hint,
  a crashing workload a structured failure, and a graceful shutdown
  drains everything it already accepted.

The slow-path tests use a *gated* workload whose builder blocks on a
:class:`threading.Event` until the test releases it — the daemon runs in
this process, so the gate is shared and there are no sleeps to tune.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.errors import ReproError
from repro.serve import (
    PROTOCOL_VERSION,
    FlowServiceClient,
    JobQueue,
    JobSpec,
    JobState,
    ProtocolError,
    QueueClosedError,
    QueueFullError,
    ServeClientError,
    ServeConfig,
    deterministic_result,
    encode_result,
    start_in_background,
)
from repro.serve.protocol import parse_json_body, submissions_from_body
from repro.serve.queue import ProtocolUnknownJob
from repro.taskgraph import linear_pipeline
from repro.units import ns
from repro.workloads import register_workload, unregister_workload

TINY = "pytest_serve_tiny"
GATED = "pytest_serve_gated"
CRASH = "pytest_serve_crash"

#: Per-token gates the gated workload's builder blocks on; the daemon runs
#: in this process, so tests and workers share these events directly.
_GATES = {}
_GATES_LOCK = threading.Lock()


def _gate(token: int):
    with _GATES_LOCK:
        return _GATES.setdefault(
            int(token),
            {"started": threading.Event(), "release": threading.Event()},
        )


def _tiny_graph():
    return linear_pipeline([100, 100], [ns(100), ns(200)])


@pytest.fixture(scope="module", autouse=True)
def _service_workloads():
    @register_workload(TINY, description="tiny pipeline for serve tests")
    def build_tiny(**_params):
        return _tiny_graph()

    @register_workload(GATED, description="blocks until the test releases it")
    def build_gated(token=0, **_params):
        gate = _gate(token)
        gate["started"].set()
        if not gate["release"].wait(timeout=60):
            raise RuntimeError(f"gate {token} never released")
        return _tiny_graph()

    @register_workload(CRASH, description="always crashes")
    def build_crash(**_params):
        raise RuntimeError("intentional crash for the serve tests")

    yield
    for name in (TINY, GATED, CRASH):
        unregister_workload(name)


def _server(**kwargs):
    return start_in_background(ServeConfig(port=0, **kwargs))


def _raw_request(client, method, target, body=None, headers=None):
    """One raw HTTP exchange, bypassing the client's JSON encoding."""
    connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request(method, target, body, headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else {}
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_request_key_excludes_scheduling_hints(self):
        base = JobSpec(workload="w")
        hinted = JobSpec(workload="w", priority=7, tag="urgent")
        assert base.request_key() == hinted.request_key()

    @pytest.mark.parametrize("override", [
        {"workload": "other"},
        {"seed": 1},
        {"ct_ms": 5.0},
        {"system": "xc6000"},
        {"params": {"n": 3}},
    ])
    def test_request_key_covers_every_design_field(self, override):
        assert (
            JobSpec(workload="w").request_key()
            != JobSpec(**{"workload": "w", **override}).request_key()
        )

    def test_spec_roundtrips_through_json(self):
        spec = JobSpec(workload="w", params={"n": 2}, ct_ms=3.0, seed=4,
                       priority=1, tag="t")
        assert JobSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("payload, match", [
        ([], "must be a JSON object"),
        ({}, "missing 'workload'"),
        ({"workload": "w", "surprise": 1}, "unknown job field"),
        ({"workload": ""}, "non-empty string"),
        ({"workload": "w", "ct_ms": -1}, "positive"),
        ({"workload": "w", "ct_ms": "soon"}, "number or null"),
        ({"workload": "w", "seed": True}, "integer"),
        ({"workload": "w", "params": {1: 2}}, "string keys"),
        ({"workload": "w", "partitioner": "psychic"}, "unknown partitioner"),
        ({"workload": "w", "partitioner": "multilevel:bogus"}, "multilevel:list"),
        ({"workload": "w", "partitioner": 5}, "unknown partitioner"),
    ])
    def test_strict_submission_parsing(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            JobSpec.from_json_dict(payload)

    def test_deterministic_result_strips_wall_times(self):
        row = {"workload": "w", "status": "ok", "partitions": 3, "k": 8,
               "block_delay_ns": 1.5, "total_latency_s": 2.5, "error": "",
               "wall_s": 0.123, "partition_source": "memory-cache", "tag": "x"}
        result = deterministic_result(row)
        assert "wall_s" not in result and "partition_source" not in result
        assert result["partitions"] == 3

    def test_encode_result_is_byte_stable_under_key_order(self):
        row_a = {"workload": "w", "status": "ok", "partitions": 1}
        row_b = dict(reversed(list(row_a.items())))
        assert encode_result(row_a) == encode_result(row_b)

    def test_parse_json_body_maps_errors(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_json_body(b"{ nope")
        oversized = ProtocolError("x")
        with pytest.raises(ProtocolError) as caught:
            parse_json_body(b"x" * (2 << 20))
        assert caught.value.status == 413
        assert oversized.status == 400  # default stays a plain 400

    def test_batch_body_must_hold_jobs(self):
        with pytest.raises(ProtocolError, match="'jobs'"):
            submissions_from_body({"jobs": []})
        specs = submissions_from_body({"jobs": [{"workload": "w"}]})
        assert specs[0].workload == "w"


# ---------------------------------------------------------------------------
# Queue
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_dedup_dispositions_across_the_lifecycle(self):
        async def scenario():
            queue = JobQueue(capacity=4)
            spec = JobSpec(workload="w")
            _, entry, first = queue.submit(spec)
            _, same, second = queue.submit(JobSpec(workload="w", tag="alias"))
            assert (first, second) == ("queued", "coalesced-inflight")
            assert same is entry and len(entry.job_ids) == 2

            running = await queue.get()
            assert running is entry and entry.state is JobState.RUNNING
            _, _, third = queue.submit(spec)
            assert third == "coalesced-inflight"

            await queue.finish(entry, {"status": "ok"})
            assert entry.state is JobState.DONE
            _, _, fourth = queue.submit(spec)
            assert fourth == "coalesced-cached"
            stats = queue.stats()
            assert stats["coalesced_inflight"] == 2
            assert stats["coalesced_cached"] == 1
            assert stats["submitted"] == 4

        asyncio.run(scenario())

    def test_priority_orders_the_heap(self):
        async def scenario():
            queue = JobQueue(capacity=4)
            queue.submit(JobSpec(workload="low", priority=0))
            queue.submit(JobSpec(workload="high", priority=5))
            queue.submit(JobSpec(workload="mid", priority=2))
            order = [(await queue.get()).spec.workload for _ in range(3)]
            assert order == ["high", "mid", "low"]

        asyncio.run(scenario())

    def test_capacity_rejects_but_coalescing_is_free(self):
        queue = JobQueue(capacity=1)
        queue.submit(JobSpec(workload="w", seed=0))
        with pytest.raises(QueueFullError) as caught:
            queue.submit(JobSpec(workload="w", seed=1))
        assert caught.value.retry_after_s > 0
        # A duplicate of the queued entry still coalesces at full capacity.
        _, _, disposition = queue.submit(JobSpec(workload="w", seed=0))
        assert disposition == "coalesced-inflight"
        assert queue.stats()["rejected"] == 1

    def test_failed_entries_are_not_reused(self):
        async def scenario():
            queue = JobQueue(capacity=2)
            _, entry, _ = queue.submit(JobSpec(workload="w"))
            await queue.get()
            await queue.finish(entry, None, failed_stage="submit",
                               error="boom", error_kind="RuntimeError")
            assert entry.state is JobState.FAILED
            _, fresh, disposition = queue.submit(JobSpec(workload="w"))
            assert disposition == "queued" and fresh is not entry

        asyncio.run(scenario())

    def test_cancel_semantics(self):
        async def scenario():
            queue = JobQueue(capacity=4)
            first, entry, _ = queue.submit(JobSpec(workload="w"))
            second, _, _ = queue.submit(JobSpec(workload="w"))
            # Cancelling one of two attached ids leaves the entry queued.
            assert queue.cancel(first) is True
            assert entry.state is JobState.QUEUED
            assert queue.view(first)["state"] == "cancelled"
            assert queue.view(second)["state"] == "queued"
            # Cancelling the last id cancels the entry itself.
            assert queue.cancel(second) is True
            assert entry.state is JobState.CANCELLED
            assert queue.depth == 0
            # A fresh identical submission is a fresh entry.
            _, fresh, disposition = queue.submit(JobSpec(workload="w"))
            assert disposition == "queued" and fresh is not entry
            # Cancelled-while-queued entries are skipped by the worker side.
            got = await queue.get()
            assert got is fresh
            with pytest.raises(ProtocolUnknownJob):
                queue.cancel("job-999999")

        asyncio.run(scenario())

    def test_running_jobs_are_not_cancellable(self):
        async def scenario():
            queue = JobQueue(capacity=2)
            job_id, entry, _ = queue.submit(JobSpec(workload="w"))
            await queue.get()
            assert queue.cancel(job_id) is False
            assert entry.state is JobState.RUNNING

        asyncio.run(scenario())

    def test_close_refuses_submissions_and_releases_workers(self):
        async def scenario():
            queue = JobQueue(capacity=2)
            queue.close()
            with pytest.raises(QueueClosedError):
                queue.submit(JobSpec(workload="w"))
            with pytest.raises(QueueClosedError):
                await queue.get()

        asyncio.run(scenario())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            JobQueue(capacity=0)


# ---------------------------------------------------------------------------
# End-to-end service
# ---------------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_submit_wait_result_roundtrip(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            health = client.health()
            assert health["status"] == "ok"
            assert health["protocol"] == PROTOCOL_VERSION
            ack = client.submit(JobSpec(workload=TINY))
            assert ack["disposition"] == "queued"
            view = client.wait(ack["job_id"], timeout=120)
            assert view["state"] == "done"
            payload = client.result(ack["job_id"])
            result = payload["result"]
            assert result["workload"] == TINY and result["status"] == "ok"
            assert result["partitions"] >= 1 and result["error"] == ""
            stats = client.stats()
            assert stats["queue"]["completed"] == 1
            assert stats["pool"]["jobs_run"] == 1
            # Partition counters appear once, as the engine's cache_* keys.
            assert stats["pool"]["engine"]["cache_misses"] == 1
            assert "partition" not in stats["pool"]["stages"]

    def test_job_on_a_tampered_cache_root_finishes_done(self, tmp_path):
        """A malformed estimate artifact is a healed miss, not a failed job."""
        from repro.runtime import EngineConfig
        from repro.synth import FlowEngine, workload_flow_jobs

        assert FlowEngine(config=EngineConfig(cache_dir=tmp_path)).run_batch(
            workload_flow_jobs(names=["fir_filterbank"])
        ).ok
        [path] = (tmp_path / "stages" / "estimate").glob("*.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        task = sorted(entry["payload"])[0]
        entry["payload"] = {task: {"delay": entry["payload"][task]["delay"]}}
        path.write_text(json.dumps(entry), encoding="utf-8")
        with _server(workers=1, cache_dir=str(tmp_path)) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload="fir_filterbank"))
            assert client.wait(ack["job_id"], timeout=120)["state"] == "done"
            assert client.result(ack["job_id"])["result"]["status"] == "ok"

    def test_concurrent_identical_submissions_cost_one_solve(self):
        gate = _gate(11)
        with _server(workers=2) as handle:
            client = FlowServiceClient(handle.url)
            spec = JobSpec(workload=GATED, params={"token": 11})
            acks = client.submit_many([spec, spec, spec])
            dispositions = [ack["disposition"] for ack in acks]
            assert dispositions == [
                "queued", "coalesced-inflight", "coalesced-inflight"
            ]
            assert gate["started"].wait(timeout=60)
            gate["release"].set()
            results = [
                client.result(client.wait(ack["job_id"], timeout=120)["job_id"])
                for ack in acks
            ]
            # One solve served every attached job id, byte-identically.
            encoded = {encode_result(r["result"]) for r in results}
            assert len(encoded) == 1
            stats = client.stats()
            assert stats["pool"]["jobs_run"] == 1
            assert stats["queue"]["coalesced_inflight"] == 2

    def test_completed_entries_serve_later_duplicates(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            spec = JobSpec(workload=TINY)
            first = client.submit(spec)
            client.wait(first["job_id"], timeout=120)
            again = client.submit(spec)
            assert again["disposition"] == "coalesced-cached"
            assert again["state"] == "done"
            # The coalesced id's result is immediately available.
            assert client.result(again["job_id"])["result"]["status"] == "ok"
            assert client.stats()["pool"]["jobs_run"] == 1

    def test_malformed_json_is_a_400(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            status, payload = _raw_request(
                client, "POST", "/v1/jobs", b"{ this is not json",
                {"Content-Type": "application/json"},
            )
            assert status == 400
            assert payload["error"]["code"] == "bad-json"

    def test_unknown_workload_is_a_404(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            with pytest.raises(ServeClientError) as caught:
                client.submit({"workload": "definitely_not_registered"})
            assert caught.value.status == 404
            assert caught.value.code == "unknown-workload"
            assert client.stats()["queue"]["submitted"] == 0

    def test_unknown_job_unknown_route_wrong_method(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            with pytest.raises(ServeClientError) as caught:
                client.status("job-999999")
            assert caught.value.status == 404
            assert caught.value.code == "unknown-job"
            status, payload = _raw_request(client, "GET", "/v1/nowhere")
            assert status == 404 and payload["error"]["code"] == "not-found"
            status, payload = _raw_request(client, "DELETE", "/v1/jobs")
            assert status == 405
            assert payload["error"]["code"] == "method-not-allowed"

    def test_full_queue_is_a_429_with_a_retry_hint(self):
        gate = _gate(12)
        handle = _server(workers=1, queue_depth=1)
        try:
            client = FlowServiceClient(handle.url)
            running = client.submit(
                JobSpec(workload=GATED, params={"token": 12}, seed=0)
            )
            assert gate["started"].wait(timeout=60)
            queued = client.submit(
                JobSpec(workload=GATED, params={"token": 12}, seed=1)
            )
            assert queued["disposition"] == "queued"
            with pytest.raises(ServeClientError) as caught:
                client.submit(
                    JobSpec(workload=GATED, params={"token": 12}, seed=2)
                )
            assert caught.value.status == 429
            assert caught.value.code == "queue-full"
            assert caught.value.retry_after_s is not None
            assert caught.value.retry_after_s > 0
            gate["release"].set()
            assert client.wait(running["job_id"], timeout=120)["state"] == "done"
        finally:
            gate["release"].set()
            handle.shutdown()

    def test_worker_crash_becomes_a_structured_failure(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload=CRASH))
            view = client.wait(ack["job_id"], timeout=120)
            assert view["state"] == "failed"
            assert view["failed_stage"] == "submit"
            assert view["error_kind"] == "RuntimeError"
            assert "intentional crash" in view["error"]
            payload = client.result(ack["job_id"])
            assert payload["result"] is None
            assert payload["error_kind"] == "RuntimeError"
            # A failure is not a reusable result: the retry runs fresh.
            retry = client.submit(JobSpec(workload=CRASH))
            assert retry["disposition"] == "queued"

    def test_job_timeout_fails_with_the_structured_kind(self):
        gate = _gate(13)
        handle = _server(workers=1, job_timeout=0.1)
        try:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload=GATED, params={"token": 13}))
            assert gate["started"].wait(timeout=60)
            view = client.wait(ack["job_id"], timeout=120)
            assert view["state"] == "failed"
            assert view["error_kind"] == "JobTimeout"
            assert client.stats()["pool"]["jobs_timed_out"] == 1
        finally:
            # Un-gate the abandoned flow so the drain can join its thread.
            gate["release"].set()
            handle.shutdown()

    def test_graceful_shutdown_drains_accepted_jobs(self):
        gate = _gate(14)
        handle = _server(workers=1)
        try:
            client = FlowServiceClient(handle.url)
            inflight = client.submit(
                JobSpec(workload=GATED, params={"token": 14})
            )
            assert gate["started"].wait(timeout=60)
            queued = client.submit(JobSpec(workload=TINY))
            assert queued["disposition"] == "queued"
            assert client.shutdown()["status"] == "draining"
        finally:
            gate["release"].set()
            handle.shutdown()
        queue = handle.server.queue
        assert queue.closed
        assert queue.completed == 2
        for job_id in (inflight["job_id"], queued["job_id"]):
            assert queue.entry_for(job_id).state is JobState.DONE

    def test_cancel_a_queued_job(self):
        gate = _gate(15)
        handle = _server(workers=1)
        try:
            client = FlowServiceClient(handle.url)
            client.submit(JobSpec(workload=GATED, params={"token": 15}))
            assert gate["started"].wait(timeout=60)
            queued = client.submit(JobSpec(workload=TINY))
            view = client.cancel(queued["job_id"])
            assert view["cancelled"] is True and view["state"] == "cancelled"
            assert client.wait(queued["job_id"], timeout=30)["state"] == "cancelled"
        finally:
            gate["release"].set()
            handle.shutdown()

    def test_stream_emits_ordered_transitions(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload=TINY))
            states = [v["state"] for v in client.watch(ack["job_id"], timeout=120)]
            assert states and states[-1] == "done"
            order = ["queued", "running", "done"]
            assert states == sorted(set(states), key=order.index)

    def test_long_poll_returns_nonterminal_view_on_timeout(self):
        gate = _gate(16)
        handle = _server(workers=1)
        try:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload=GATED, params={"token": 16}))
            assert gate["started"].wait(timeout=60)
            status, payload = _raw_request(
                client, "GET", f"/v1/jobs/{ack['job_id']}/wait?timeout=0.05"
            )
            assert status == 200 and payload["state"] in ("queued", "running")
            status, payload = _raw_request(
                client, "GET", f"/v1/jobs/{ack['job_id']}/wait?timeout=never"
            )
            assert status == 400 and payload["error"]["code"] == "bad-timeout"
            gate["release"].set()
            assert client.wait(ack["job_id"], timeout=120)["state"] == "done"
        finally:
            gate["release"].set()
            handle.shutdown()

    def test_batch_reports_per_item_errors_inline(self):
        with _server(workers=1) as handle:
            client = FlowServiceClient(handle.url)
            acks = client.submit_many([
                {"workload": TINY},
                {"workload": "definitely_not_registered"},
            ])
            assert "job_id" in acks[0]
            assert acks[1]["error"]["code"] == "unknown-workload"
            client.wait(acks[0]["job_id"], timeout=120)

    def test_result_before_terminal_is_a_409(self):
        gate = _gate(17)
        handle = _server(workers=1)
        try:
            client = FlowServiceClient(handle.url)
            ack = client.submit(JobSpec(workload=GATED, params={"token": 17}))
            assert gate["started"].wait(timeout=60)
            with pytest.raises(ServeClientError) as caught:
                client.result(ack["job_id"])
            assert caught.value.status == 409
            assert caught.value.code == "not-finished"
        finally:
            gate["release"].set()
            handle.shutdown()


class TestServeDeterminism:
    def test_two_fresh_runs_produce_identical_result_bytes(self):
        def one_run():
            with _server(workers=2) as handle:
                client = FlowServiceClient(handle.url)
                specs = [JobSpec(workload=TINY, seed=seed) for seed in (0, 1)]
                acks = client.submit_many(specs)
                rows = []
                for ack in acks:
                    client.wait(ack["job_id"], timeout=120)
                    rows.append(client.result(ack["job_id"])["result"])
                job_ids = [ack["job_id"] for ack in acks]
                return job_ids, "\n".join(encode_result(row) for row in rows)

        ids_a, bytes_a = one_run()
        ids_b, bytes_b = one_run()
        assert ids_a == ids_b  # job ids are deterministic per daemon
        assert bytes_a == bytes_b


def test_serve_config_validation():
    # workers=0 is legal since the scheduler: a lease-only daemon that
    # runs no flow jobs of its own.  Negative counts stay errors.
    assert ServeConfig(workers=0).workers == 0
    with pytest.raises(ReproError):
        ServeConfig(workers=-1)
    with pytest.raises(ReproError):
        ServeConfig(queue_depth=0)


def test_client_rejects_non_http_urls():
    with pytest.raises(ServeClientError):
        FlowServiceClient("ftp://example.invalid")
