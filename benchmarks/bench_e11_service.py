"""E11 — certification as a service: concurrent clients over one daemon.

The service layer's serving regimes, measured end to end through the
real socket stack (unix-socket daemon + multiplexing clients), all on
``verify: false`` certify requests — the paper's completeness theorem
is what makes skipping the round safe on the honest path, and the
round stays replayable on demand (the fourth regime):

* **coalesced** — M clients fire the *same* certify request at once;
  the coalescer runs the prover exactly once and fans the answer out
  (asserted through the metrics snapshot: ``prover_runs == 1``,
  ``coalesced_requests == M-1`` — the ISSUE's observability criterion);
* **cold** — G distinct graphs certified for the first time (every
  request proves: decomposition, hierarchy, evaluation, labeling);
* **warm** — the same G requests again; every certificate is served
  from the sharded store without decoding the per-edge payloads
  (``load()`` decodes them only on first read) — certify-once,
  serve-many;
* **reverify** — the round replayed from the store for each graph
  (full verification, zero prover stages; the round attaches or
  compiles, and decodes only what it reads).

The series — requests/second per regime, per host size — is persisted
for trajectory tracking: one machine-readable ``BENCH_JSON`` line on
stdout *and* a ``BENCH_E11.json`` file (path override: ``E11_OUT``),
which CI uploads as an artifact.  The committed baseline lives at
``benchmarks/BENCH_E11.json`` and records the headline ratio: warm
serving at least 5x cold throughput.  Environment knobs: ``E11_SIZES``
(comma-separated host sizes; CI's smoke step uses a tiny workload),
``E11_CLIENTS`` (concurrent connections), ``E11_GRAPHS`` (distinct
graphs per sweep), ``E11_OUT``.
"""

import asyncio
import json
import os
import tempfile
import time

from repro.experiments import Table, lanewidth_workload
from repro.service import (
    CertificationService,
    Daemon,
    ServiceClient,
    ServiceConfig,
    result_of,
)

E11_SIZES = tuple(
    int(size) for size in os.environ.get("E11_SIZES", "32,64,128").split(",")
)
E11_CLIENTS = int(os.environ.get("E11_CLIENTS", "8"))
E11_GRAPHS = int(os.environ.get("E11_GRAPHS", "6"))
E11_OUT = os.environ.get("E11_OUT", "BENCH_E11.json")

PROPERTY = "connected"


def _hosts(n: int):
    """One shared graph (the coalescing target) + G distinct graphs."""
    _seq, shared = lanewidth_workload(2, n, 0xE11)
    graphs = [
        lanewidth_workload(2, n, 0xE11 + 1 + i)[1] for i in range(E11_GRAPHS)
    ]
    return shared, graphs


async def _drive(socket_path: str, shared, graphs) -> dict:
    """All four phases against one freshly started daemon."""
    clients = [
        await ServiceClient.connect(socket_path=socket_path)
        for _ in range(E11_CLIENTS)
    ]
    try:
        # Phase 1 — coalesced: every client asks for the same thing at
        # the same time, against an empty store.
        began = time.perf_counter()
        responses = await asyncio.gather(
            *[
                client.certify(shared, [PROPERTY], verify=False)
                for client in clients
            ]
        )
        coalesced_s = time.perf_counter() - began
        for response in responses:
            assert not result_of(response)["reports"][PROPERTY]["refused"]
        flags = sorted(r["meta"]["coalesced"] for r in responses)
        assert flags == [False] + [True] * (E11_CLIENTS - 1), flags

        snap = result_of(await clients[0].metrics())
        # The observability criterion: M identical concurrent requests
        # -> exactly one prover run, M-1 coalesced, visible in metrics.
        assert snap["prover_runs"] == 1, snap
        assert snap["coalesced_requests"] == E11_CLIENTS - 1, snap

        async def sweep(expect_served: str) -> float:
            began = time.perf_counter()
            swept = await asyncio.gather(
                *[
                    clients[i % E11_CLIENTS].certify(
                        graph, [PROPERTY], verify=False
                    )
                    for i, graph in enumerate(graphs)
                ]
            )
            elapsed = time.perf_counter() - began
            for response in swept:
                result = result_of(response)
                assert not result["reports"][PROPERTY]["refused"]
                assert result["served"][PROPERTY] == expect_served, result
            return elapsed

        # Phase 2 — cold: G distinct graphs, all proven from scratch.
        cold_s = await sweep("prover")
        # Phase 3 — warm: the same G requests, served from the store.
        warm_s = await sweep("store")

        # Phase 4 — reverify: replay the verification round on each
        # stored certificate (decode + round, zero prover stages).
        fingerprints = [graph.fingerprint() for graph in graphs]
        began = time.perf_counter()
        replays = await asyncio.gather(
            *[
                clients[i % E11_CLIENTS].reverify(fingerprint, PROPERTY)
                for i, fingerprint in enumerate(fingerprints)
            ]
        )
        reverify_s = time.perf_counter() - began
        for response in replays:
            replay = result_of(response)["reports"][PROPERTY]
            assert replay["accepted"] is True, replay
            assert replay["verification"]["accepted"] is True

        final = result_of(await clients[0].metrics())
        assert final["prover_runs"] == 1 + E11_GRAPHS
        assert final["store_hits"] == 2 * E11_GRAPHS  # warm + reverify
        assert final["store"]["entries"] == 1 + E11_GRAPHS
        result_of(await clients[0].shutdown())
    finally:
        for client in clients:
            await client.close()
    return {
        "coalesced_s": coalesced_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "reverify_s": reverify_s,
        "metrics": final,
    }


async def _one_size(n: int) -> dict:
    shared, graphs = _hosts(n)
    with tempfile.TemporaryDirectory() as root:
        # k=3: the daemon certifies bare wire graphs, and the witness
        # search on a 2-lane host occasionally settles for width 3.
        service = CertificationService(
            ServiceConfig(store_root=os.path.join(root, "store"),
                          k=3, worker_threads=4)
        )
        daemon = Daemon(
            service, socket_path=os.path.join(root, "e11.sock")
        )
        runner = asyncio.ensure_future(daemon.run())
        while daemon.address is None:
            await asyncio.sleep(0.005)
        timings = await _drive(
            daemon.address[len("unix:"):], shared, graphs
        )
        await asyncio.wait_for(runner, timeout=300)
    metrics = timings["metrics"]
    return {
        "n": n,
        "clients": E11_CLIENTS,
        "graphs": E11_GRAPHS,
        "coalesced_rps": round(E11_CLIENTS / timings["coalesced_s"], 2),
        "cold_rps": round(E11_GRAPHS / timings["cold_s"], 2),
        "warm_rps": round(E11_GRAPHS / timings["warm_s"], 2),
        "reverify_rps": round(E11_GRAPHS / timings["reverify_s"], 2),
        "warm_over_cold": round(timings["cold_s"] / timings["warm_s"], 2),
        "prover_runs": metrics["prover_runs"],
        "coalesced_requests": metrics["coalesced_requests"],
        "store_hits": metrics["store_hits"],
    }


def test_e11_service_throughput(benchmark):
    table = Table(
        "E11: daemon throughput by serving regime (req/s)",
        ["n", "cold_rps", "warm_rps", "reverify_rps", "coalesced_rps",
         "warm/cold"],
    )
    payload = {
        "bench": "e11_service",
        "clients": E11_CLIENTS,
        "graphs_per_sweep": E11_GRAPHS,
        "property": PROPERTY,
        "series": [],
    }
    for n in E11_SIZES:
        point = asyncio.run(_one_size(n))
        # Warm serving must beat cold proving outright at every size;
        # the committed baseline records the actual multiple (>=5x on
        # the default workload).
        assert point["warm_over_cold"] > 1.0, point
        payload["series"].append(point)
        table.add(
            n,
            f"{point['cold_rps']:.1f}",
            f"{point['warm_rps']:.1f}",
            f"{point['reverify_rps']:.1f}",
            f"{point['coalesced_rps']:.1f}",
            f"{point['warm_over_cold']:.1f}x",
        )
    table.show()

    with open(E11_OUT, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    # The benchmarked unit: the service front-end itself (validation,
    # coalescer, metrics, response envelope) on the cheapest op — the
    # per-request overhead every regime pays.
    with tempfile.TemporaryDirectory() as root:
        service = CertificationService(
            ServiceConfig(store_root=os.path.join(root, "store"),
                          worker_threads=1)
        )
        try:
            benchmark(
                lambda: asyncio.run(service.handle({"id": 0, "op": "ping"}))
            )
        finally:
            service.close_blocking()
