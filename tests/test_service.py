"""Tests for the certification service layer (repro.service).

Four altitudes, matching the package's layering:

* protocol framing and the graph wire form;
* the :class:`Coalescer` in isolation (pure asyncio);
* :class:`CertificationService.handle` driven in-process — the
  cold/warm/coalesced serving matrix, audits, errors, lifecycle;
* the socket daemon end to end: in-process over a unix socket via
  :class:`ServiceClient`, and as a real ``python -m repro.service``
  subprocess drained by SIGTERM.

No pytest-asyncio: the repo is dependency-free, so async tests run
under ``asyncio.run`` inside plain test functions.
"""

import asyncio
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.artifacts import unseal
from repro.experiments import lanewidth_workload
from repro.graphs import Graph
from repro.graphs.generators import cycle_graph, path_graph
from repro.service import (
    Coalescer,
    CertificationService,
    Daemon,
    LatencyHistogram,
    ProtocolError,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceMetrics,
    decode_line,
    encode_line,
    graph_from_wire,
    graph_to_wire,
    result_of,
    validate_request,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _graph(seed=41, n=14):
    # Two lanes keep the witness pathwidth within the service's default
    # k=2 — the daemon certifies bare wire graphs, no witness riding in.
    _sequence, graph = lanewidth_workload(2, n, seed)
    return graph


def _service(tmp_path, **overrides):
    config = ServiceConfig(store_root=tmp_path / "store", **overrides)
    return CertificationService(config)


def _certify_request(graph, request_id=1, **params):
    request = {
        "id": request_id,
        "op": "certify",
        "graph": graph_to_wire(graph),
        "properties": ["connected"],
    }
    request.update(params)
    return request


#: Malformed requests that must get an error reply: (op, overrides).
#: ``*_labels`` overrides go into the graph payload, the rest into the
#: request itself.
MALFORMED = {
    "certify-unknown-property": ("certify", {"properties": ["no-such-prop"]}),
    "update-unknown-property": ("update", {"properties": ["no-such-prop"]}),
    "audit-unknown-property": ("audit", {"property": "no-such-prop"}),
    "label-on-missing-vertex": ("certify", {"vertex_labels": [[999, "x"]]}),
    "label-on-missing-edge": ("certify", {"edge_labels": [[0, 999, "x"]]}),
    "vertex-labels-not-a-list": ("certify", {"vertex_labels": 5}),
    "edge-labels-not-a-list": ("certify", {"edge_labels": 5}),
    "certify-list-k": ("certify", {"k": [2]}),
    "update-list-k": ("update", {"k": [2]}),
    "audit-list-k": ("audit", {"k": [2]}),
    "list-full-round-every": ("update", {"full_round_every": [1]}),
    "list-trials": ("audit", {"trials": [1]}),
    "attacks-not-a-list": ("audit", {"attacks": 5}),
    "attack-name-not-a-string": ("audit", {"attacks": [{"name": ["x"]}]}),
    # Integer parameters take JSON integers only: Python's json.loads
    # reads ``Infinity`` as a float, and int() would truncate 2.7 or
    # read True and "3" as numbers.
    "certify-infinite-k": ("certify", {"k": float("inf")}),
    "certify-fractional-k": ("certify", {"k": 2.7}),
    "audit-boolean-trials": ("audit", {"trials": True}),
    "update-string-full-round-every": ("update", {"full_round_every": "3"}),
}


def _malformed_request(graph, op, overrides):
    wire = graph_to_wire(graph)
    request = {"id": 7, "op": op, "graph": wire}
    if op == "audit":
        request.update(property="connected", trials=1)
    else:
        request["properties"] = ["connected"]
    for name, value in overrides.items():
        (wire if name.endswith("_labels") else request)[name] = value
    return request


# ----------------------------------------------------------------------
# Protocol.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": 3, "op": "ping", "nested": {"a": [1, 2]}}
        line = encode_line(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == message

    def test_graph_wire_round_trip_preserves_fingerprint(self):
        graph = _graph(seed=42)
        rebuilt = graph_from_wire(graph_to_wire(graph))
        assert rebuilt.fingerprint() == graph.fingerprint()

    def test_graph_wire_carries_input_labels(self):
        graph = path_graph(4)
        graph.set_vertex_label(0, 1)
        graph.set_edge_label(1, 2, 1)
        payload = graph_to_wire(graph)
        assert payload["vertex_labels"] == [[0, 1]]
        assert payload["edge_labels"] == [[1, 2, 1]]
        rebuilt = graph_from_wire(json.loads(json.dumps(payload)))
        assert rebuilt.fingerprint() == graph.fingerprint()

    def test_malformed_frames_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json at all\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2,3]\n")  # JSON, but not an object
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")  # not UTF-8

    def test_deeply_nested_frame_rejected(self):
        # Far under MAX_LINE_BYTES, but deeper than the JSON parser
        # recurses: an error reply, not a RecursionError in the daemon.
        with pytest.raises(ProtocolError):
            decode_line(b"[" * 100_000)

    def test_overlong_integer_frame_rejected(self):
        # json.loads refuses integer literals past Python's digit limit
        # with a plain ValueError, not a JSONDecodeError.
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no integer digit limit")
        with pytest.raises(ProtocolError):
            decode_line(b'{"id": ' + b"1" * 5000 + b"}")

    def test_oversized_frame_rejected(self, monkeypatch):
        import repro.service.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
            protocol.decode_line(b'{"op": "ping", "padding": "xxxxx"}\n')

    def test_malformed_graph_payload_rejected(self):
        with pytest.raises(ProtocolError):
            graph_from_wire("just a string")
        with pytest.raises(ProtocolError):
            graph_from_wire({"vertices": [0, 1], "edges": [[0]]})

    def test_validate_request_gates_ops(self):
        assert validate_request({"op": "certify"}) == "certify"
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "transmogrify"})
        with pytest.raises(ProtocolError):
            validate_request({})


# ----------------------------------------------------------------------
# Coalescer.
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_identical_keys_share_one_factory_run(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []
            gate = asyncio.Event()

            async def factory():
                calls.append(1)
                await gate.wait()
                return "payload"

            async def late_release():
                await asyncio.sleep(0.01)
                gate.set()

            outcomes = await asyncio.gather(
                *[coalescer.run("k", factory) for _ in range(5)],
                late_release(),
            )
            return calls, outcomes[:5]

        calls, outcomes = asyncio.run(scenario())
        assert len(calls) == 1
        assert all(value == "payload" for value, _ in outcomes)
        # Exactly one initiator; everyone else joined the flight.
        assert sorted(joined for _, joined in outcomes) == [
            False, True, True, True, True,
        ]

    def test_distinct_keys_run_independently(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []

            def factory_for(key):
                async def factory():
                    calls.append(key)
                    return key.upper()
                return factory

            results = await asyncio.gather(
                coalescer.run("a", factory_for("a")),
                coalescer.run("b", factory_for("b")),
            )
            return calls, results

        calls, results = asyncio.run(scenario())
        assert sorted(calls) == ["a", "b"]
        assert results == [("A", False), ("B", False)]

    def test_failure_propagates_to_every_waiter(self):
        async def scenario():
            coalescer = Coalescer()

            async def factory():
                await asyncio.sleep(0.01)
                raise RuntimeError("prover exploded")

            return await asyncio.gather(
                *[coalescer.run("k", factory) for _ in range(3)],
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_key_deregisters_after_completion(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []

            async def factory():
                calls.append(1)
                return len(calls)

            first = await coalescer.run("k", factory)
            assert len(coalescer) == 0  # flight landed, key released
            second = await coalescer.run("k", factory)
            return first, second

        first, second = asyncio.run(scenario())
        assert first == (1, False)
        assert second == (2, False)  # a fresh run, not a stale join


# ----------------------------------------------------------------------
# The service, driven in-process.
# ----------------------------------------------------------------------
class TestServiceHandle:
    def test_ping(self, tmp_path):
        service = _service(tmp_path)
        try:
            response = asyncio.run(service.handle({"id": 7, "op": "ping"}))
        finally:
            service.close_blocking()
        assert response["ok"] and response["id"] == 7
        assert response["result"]["pong"] is True

    def test_certify_cold_then_warm_then_fresh(self, tmp_path):
        service = _service(tmp_path, worker_threads=1)
        graph = _graph(seed=43)

        async def scenario():
            cold = await service.handle(_certify_request(graph, 1))
            warm = await service.handle(_certify_request(graph, 2))
            forced = await service.handle(
                _certify_request(graph, 3, fresh=True)
            )
            return cold, warm, forced

        try:
            cold, warm, forced = asyncio.run(scenario())
        finally:
            service.close_blocking()

        for response in (cold, warm, forced):
            assert response["ok"], response
            report = response["result"]["reports"]["connected"]
            assert report["accepted"] is True
            assert response["result"]["fingerprint"] == graph.fingerprint()
        assert cold["result"]["served"] == {"connected": "prover"}
        assert warm["result"]["served"] == {"connected": "store"}
        assert forced["result"]["served"] == {"connected": "prover"}

        snap = service.metrics.snapshot()
        assert snap["prover_runs"] == 2  # cold + fresh; warm hit the store
        assert snap["store_hits"] == 1
        assert snap["store_misses"] == 2
        assert snap["completed"]["certify"] == 3

    def test_version_1_entry_is_reproved(self, tmp_path):
        # A version 1 entry (its own magic, then a bare pickle) is one
        # counted store miss: certify proves the graph again and
        # rewrites the entry, which serves the next request.
        service = _service(tmp_path, worker_threads=1)
        graph = _graph(seed=44)

        async def scenario():
            cold = await service.handle(_certify_request(graph, 1))
            path = service.store.path_for(
                cold["result"]["fingerprint"], "connected"
            )
            manifest = unseal(path.read_bytes())
            manifest["store_version"] = 1
            path.write_bytes(
                b"repro-cert\x00" + pickle.dumps(manifest, protocol=4)
            )
            legacy = await service.handle(_certify_request(graph, 2))
            warm = await service.handle(_certify_request(graph, 3))
            return cold, legacy, warm

        try:
            cold, legacy, warm = asyncio.run(scenario())
        finally:
            service.close_blocking()
        assert cold["result"]["served"] == {"connected": "prover"}
        assert legacy["result"]["served"] == {"connected": "prover"}
        assert warm["result"]["served"] == {"connected": "store"}
        for response in (legacy, warm):
            assert response["result"]["reports"]["connected"]["accepted"]
        counts = service.store.metrics.snapshot()
        assert (counts["hits"], counts["misses"]) == (1, 1)
        assert service.metrics.snapshot()["prover_runs"] == 2

    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        """The headline behaviour: M identical concurrent certify
        requests run the prover exactly once and all M get answers."""
        service = _service(tmp_path, worker_threads=2)
        graph = _graph(seed=44)
        fan_out = 6

        async def scenario():
            return await asyncio.gather(
                *[
                    service.handle(_certify_request(graph, i))
                    for i in range(fan_out)
                ]
            )

        try:
            responses = asyncio.run(scenario())
        finally:
            service.close_blocking()

        assert len(responses) == fan_out
        for response in responses:
            assert response["ok"], response
            assert response["result"]["reports"]["connected"]["accepted"]
        flags = sorted(r["meta"]["coalesced"] for r in responses)
        assert flags == [False] + [True] * (fan_out - 1)

        snap = service.metrics.snapshot()
        assert snap["prover_runs"] == 1
        assert snap["coalesced_requests"] == fan_out - 1
        assert snap["in_flight"] == 0
        assert snap["in_flight_peak"] == fan_out

    def test_mixed_request_batch_coalesces_per_key(self, tmp_path):
        service = _service(tmp_path, worker_threads=2)
        graph_a = _graph(seed=45)
        graph_b = _graph(seed=46)

        async def scenario():
            return await asyncio.gather(
                service.handle(_certify_request(graph_a, 1)),
                service.handle(_certify_request(graph_a, 2)),
                service.handle(_certify_request(graph_b, 3)),
            )

        try:
            responses = asyncio.run(scenario())
        finally:
            service.close_blocking()
        assert all(r["ok"] for r in responses)
        snap = service.metrics.snapshot()
        assert snap["prover_runs"] == 2  # one per distinct graph
        assert snap["coalesced_requests"] == 1

    def test_certify_verify_false_skips_round_but_stores(self, tmp_path):
        service = _service(tmp_path, worker_threads=1)
        graph = _graph(seed=47)

        async def scenario():
            unverified = await service.handle(
                _certify_request(graph, 1, verify=False)
            )
            replay = await service.handle(
                {
                    "id": 2,
                    "op": "reverify",
                    "fingerprint": graph.fingerprint(),
                    "property": "connected",
                }
            )
            return unverified, replay

        try:
            unverified, replay = asyncio.run(scenario())
        finally:
            service.close_blocking()

        assert unverified["ok"]
        report = unverified["result"]["reports"]["connected"]
        assert report["verification"] is None  # round skipped, by design
        assert not report["refused"]
        # ... and the certificate landed in the store: reverify replays
        # the round on it without any prover work.
        assert replay["ok"]
        replayed = replay["result"]["reports"]["connected"]
        assert replayed["accepted"] is True
        assert replayed["verification"]["accepted"] is True

    def test_reverify_unknown_entry_is_an_error_response(self, tmp_path):
        service = _service(tmp_path)
        request = {
            "id": 9,
            "op": "reverify",
            "fingerprint": "0" * 64,
            "property": "connected",
        }
        try:
            response = asyncio.run(service.handle(request))
        finally:
            service.close_blocking()
        assert response["ok"] is False
        assert "cannot read store entry" in response["error"]
        assert service.metrics.snapshot()["failed"]["reverify"] == 1

    def test_certify_multiple_properties_split_serving(self, tmp_path):
        """A two-property request where one certificate is already
        stored: the stored one is served from disk, the other proven."""
        service = _service(tmp_path, worker_threads=1)
        graph = _graph(seed=48)

        async def scenario():
            await service.handle(_certify_request(graph, 1))
            return await service.handle(
                {
                    "id": 2,
                    "op": "certify",
                    "graph": graph_to_wire(graph),
                    "properties": ["connected", "even-order"],
                }
            )

        try:
            response = asyncio.run(scenario())
        finally:
            service.close_blocking()
        assert response["ok"], response
        served = response["result"]["served"]
        assert served["connected"] == "store"
        assert served["even-order"] == "prover"

    def test_audit_rejects_every_attack(self, tmp_path):
        service = _service(tmp_path, worker_threads=1)
        request = {
            "id": 4,
            "op": "audit",
            "graph": graph_to_wire(cycle_graph(8)),
            "property": "connected",
            "trials": 2,
            "seed": 11,
            "attacks": ["mutation", {"name": "drop", "per_case": 2}],
        }
        try:
            response = asyncio.run(service.handle(request))
        finally:
            service.close_blocking()
        assert response["ok"], response
        audit = response["result"]["audit"]
        tallies = audit["tallies"]
        assert set(tallies) == {"mutation", "drop"}
        for tally in tallies.values():
            assert tally["accepted"] == 0
            assert tally["attempted"] > 0

    def test_bad_requests_get_error_responses(self, tmp_path):
        service = _service(tmp_path)
        graph = _graph(seed=49)
        bad = [
            {"id": 1, "op": "transmogrify"},
            {"id": 2, "op": "certify", "properties": ["connected"]},
            {"id": 3, "op": "certify", "graph": graph_to_wire(graph)},
            {
                "id": 4,
                "op": "certify",
                "graph": graph_to_wire(graph),
                "properties": ["connected", "connected"],
            },
            {
                "id": 5,
                "op": "audit",
                "graph": graph_to_wire(graph),
                "property": "connected",
                "attacks": ["voltage-glitch"],
            },
            {"id": 6, "op": "reverify", "fingerprint": 12},
        ]

        async def scenario():
            return [await service.handle(request) for request in bad]

        try:
            responses = asyncio.run(scenario())
        finally:
            service.close_blocking()
        for request, response in zip(bad, responses):
            assert response["ok"] is False, request
            assert response["id"] == request["id"]
            assert response["error"]

    @pytest.mark.parametrize(
        "op, overrides", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_request_gets_error_reply(self, tmp_path, op, overrides):
        service = _service(tmp_path, worker_threads=1)
        request = _malformed_request(_graph(seed=49), op, overrides)
        try:
            response = asyncio.run(service.handle(request))
        finally:
            service.close_blocking()
        assert response["ok"] is False, response
        assert response["error"]
        assert service.metrics.snapshot()["in_flight"] == 0

    def test_snapshot_shape(self, tmp_path):
        service = _service(tmp_path, worker_threads=1)
        graph = _graph(seed=50)

        async def scenario():
            await service.handle(_certify_request(graph, 1))
            return await service.handle({"id": 2, "op": "metrics"})

        try:
            response = asyncio.run(scenario())
        finally:
            service.close_blocking()
        snap = response["result"]
        for key in (
            "received",
            "completed",
            "failed",
            "in_flight",
            "in_flight_peak",
            "coalesced_requests",
            "prover_runs",
            "store_hits",
            "store_misses",
            "latency",
            "protocol_version",
            "store",
            "store_metrics",
            "stage_counters",
            "coalescer_in_flight",
        ):
            assert key in snap, key
        assert snap["store"]["entries"] == 1
        assert snap["store_metrics"]["saves"] == 1
        assert snap["stage_counters"], "prover stages should have counted"
        assert snap["latency"]["certify"]["count"] == 1
        json.dumps(snap)  # the whole snapshot must be wire-safe

    def test_refusals_counted_by_reason(self, tmp_path):
        service = _service(tmp_path, worker_threads=1)
        split = Graph(edges=[(0, 1), (2, 3)])
        cut = {
            "id": 3,
            "op": "update",
            "graph": graph_to_wire(path_graph(6)),
            "properties": ["connected"],
            "edits": [["remove_edge", 2, 3]],
        }

        async def scenario():
            refused = await service.handle(_certify_request(split, 1))
            await service.handle(_certify_request(_graph(seed=51), 2))
            updated = await service.handle(cut)
            metrics = await service.handle({"id": 4, "op": "metrics"})
            return refused, updated, metrics

        try:
            refused, updated, response = asyncio.run(scenario())
        finally:
            service.close_blocking()
        report = refused["result"]["reports"]["connected"]
        assert report["refused"] and report["refusal_reason"] == "disconnected"
        assert not updated["result"]["update"]["accepted"]
        assert response["result"]["refusals"] == {"disconnected": 2}

    def test_handle_refused_after_close(self, tmp_path):
        service = _service(tmp_path)
        service.close_blocking()
        response = asyncio.run(service.handle({"id": 1, "op": "ping"}))
        assert response["ok"] is False
        assert "shutting down" in response["error"]
        service.close_blocking()  # idempotent

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceConfig(store_root=tmp_path, worker_threads=0)
        for engine in ("bogus", "parallel", "shared-memory"):
            with pytest.raises(ValueError, match="unknown engine"):
                ServiceConfig(store_root=tmp_path, engine=engine)


class TestResidentPools:
    def test_close_leaves_no_worker_processes(self, tmp_path):
        """Graceful shutdown leaves no worker process behind: a request
        proves and verifies in-process on a service worker thread."""
        service = _service(tmp_path)
        graph = _graph(seed=51)
        try:
            response = asyncio.run(service.handle(_certify_request(graph, 1)))
            assert response["ok"], response
            assert response["result"]["reports"]["connected"]["accepted"]
        finally:
            service.close_blocking()
        deadline = time.time() + 30
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Daemon + client, end to end.
# ----------------------------------------------------------------------
class TestDaemonEndToEnd:
    def test_unix_socket_session(self, tmp_path):
        """Full in-process round trip: daemon on a unix socket, the
        async client multiplexing concurrent requests, shutdown op."""
        socket_path = str(tmp_path / "repro.sock")
        service = _service(tmp_path, worker_threads=2)
        daemon = Daemon(service, socket_path=socket_path)
        graph = _graph(seed=52)

        async def scenario():
            runner = asyncio.ensure_future(daemon.run())
            while daemon.address is None:
                await asyncio.sleep(0.01)
            assert daemon.address == f"unix:{socket_path}"

            client = await ServiceClient.connect(socket_path=socket_path)
            try:
                pong = result_of(await client.ping())
                assert pong["pong"] is True

                # Concurrent identical certifies through one connection
                # coalesce just like in-process calls do.
                responses = await asyncio.gather(
                    *[
                        client.certify(graph, ["connected"])
                        for _ in range(4)
                    ]
                )
                for response in responses:
                    result = result_of(response)
                    assert result["reports"]["connected"]["accepted"]
                flags = sorted(r["meta"]["coalesced"] for r in responses)
                assert flags == [False, True, True, True]

                replay = result_of(
                    await client.reverify(graph.fingerprint(), "connected")
                )
                assert replay["reports"]["connected"]["accepted"]

                snap = result_of(await client.metrics())
                assert snap["prover_runs"] == 1
                assert snap["coalesced_requests"] == 3

                stopping = result_of(await client.shutdown())
                assert stopping["stopping"] is True
            finally:
                await client.close()

            await asyncio.wait_for(runner, timeout=60)
            return service.metrics.snapshot()

        snap = asyncio.run(scenario())
        assert service.closed
        assert snap["completed"]["certify"] == 4
        assert snap["in_flight"] == 0

    def test_client_error_surface(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        service = _service(tmp_path, worker_threads=1)
        daemon = Daemon(service, socket_path=socket_path)

        async def scenario():
            runner = asyncio.ensure_future(daemon.run())
            while daemon.address is None:
                await asyncio.sleep(0.01)
            client = await ServiceClient.connect(socket_path=socket_path)
            try:
                response = await client.request("transmogrify")
                with pytest.raises(ServiceClientError, match="unknown op"):
                    result_of(response)
            finally:
                await client.close()
            daemon.request_stop()
            await asyncio.wait_for(runner, timeout=60)

        asyncio.run(scenario())

    def test_unknown_property_gets_an_error_reply(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        service = _service(tmp_path, worker_threads=1)
        daemon = Daemon(service, socket_path=socket_path)

        async def scenario():
            runner = asyncio.ensure_future(daemon.run())
            while daemon.address is None:
                await asyncio.sleep(0.01)
            client = await ServiceClient.connect(socket_path=socket_path)
            try:
                response = await asyncio.wait_for(
                    client.certify(_graph(seed=53), ["no-such-prop"]),
                    timeout=30,
                )
            finally:
                await client.close()
            daemon.request_stop()
            await asyncio.wait_for(runner, timeout=60)
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "no-such-prop" in response["error"]
        assert service.metrics.snapshot()["in_flight"] == 0

    def test_daemon_requires_an_endpoint(self, tmp_path):
        service = _service(tmp_path)
        try:
            with pytest.raises(ValueError):
                Daemon(service)
            with pytest.raises(ValueError):
                asyncio.run(ServiceClient.connect())
        finally:
            service.close_blocking()


class TestDaemonSubprocess:
    def test_sigterm_drains_and_flushes_metrics(self, tmp_path):
        """``python -m repro.service`` as a real process: handshake via
        SERVICE_READY, serve a client, then SIGTERM → clean exit with a
        final SERVICE_METRICS flush."""
        socket_path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--socket",
                socket_path,
                "--store",
                str(tmp_path / "store"),
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert ready.strip() == f"SERVICE_READY unix:{socket_path}"

            graph = _graph(seed=53)

            async def drive():
                client = await ServiceClient.connect(socket_path=socket_path)
                try:
                    result_of(await client.ping())
                    responses = await asyncio.gather(
                        *[
                            client.certify(graph, ["connected"])
                            for _ in range(3)
                        ]
                    )
                    for response in responses:
                        result = result_of(response)
                        assert result["reports"]["connected"]["accepted"]
                finally:
                    await client.close()

            asyncio.run(drive())
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise

        assert proc.returncode == 0, err
        metrics_lines = [
            line for line in out.splitlines()
            if line.startswith("SERVICE_METRICS ")
        ]
        assert len(metrics_lines) == 1, out
        snap = json.loads(metrics_lines[0][len("SERVICE_METRICS "):])
        assert snap["completed"]["certify"] == 3
        assert snap["prover_runs"] == 1
        assert snap["coalesced_requests"] == 2
        assert snap["in_flight"] == 0
        assert snap["store"]["entries"] == 1


# ----------------------------------------------------------------------
# Metrics primitives.
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_latency_histogram_buckets(self):
        histogram = LatencyHistogram()
        for value in (0.0004, 0.02, 0.02, 3.0, 99.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["max_s"] == 99.0
        assert snap["buckets"]["<=0.001s"] == 1
        assert snap["buckets"]["<=0.025s"] == 2
        assert snap["buckets"]["<=5s"] == 1
        assert snap["buckets"][">10s"] == 1
        assert round(snap["total_s"], 4) == 102.0404

    def test_service_metrics_lifecycle(self):
        metrics = ServiceMetrics()
        metrics.request_started("certify")
        metrics.request_started("certify")
        metrics.request_completed("certify", 0.2)
        metrics.request_failed("certify", 0.1)
        metrics.coalesced()
        metrics.prover_run()
        metrics.store_served(True)
        metrics.store_served(False)
        snap = metrics.snapshot()
        assert snap["received"] == {"certify": 2}
        assert snap["completed"] == {"certify": 1}
        assert snap["failed"] == {"certify": 1}
        assert snap["in_flight"] == 0
        assert snap["in_flight_peak"] == 2
        assert snap["coalesced_requests"] == 1
        assert snap["prover_runs"] == 1
        assert snap["store_hits"] == 1
        assert snap["store_misses"] == 1
        assert snap["latency"]["certify"]["count"] == 2
