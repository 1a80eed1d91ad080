"""The benchmark's workloads: seeded inputs, one op each, and the oracle.

Every op is one closed-loop call through the public ``repro.api``
surface, one at a time on one thread.  Inputs come only from the
``repro.experiments`` generators and ``seed_stream`` draws, so the seed
fixes every host and every identifier assignment; host ``i`` of a run is
drawn at index ``i`` of the workload's own stream.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.api import (
    CertificateStore,
    CertificationSession,
    VerificationEngine,
    certify,
    make_executor,
)
from repro.experiments import lanewidth_workload, pathwidth_workload, seed_stream

PROPERTY = "connected"

#: Theorem-1 hosts are planted with a width-3 path decomposition, which
#: the op throws away.  On 1,400 drawn hosts the default heuristic
#: decomposer returned width 3 on 92%, 4 on 7.5%, 5 on 0.8% and 6 once,
#: so at k=3 about one op in twelve would be refused.  The op certifies at
#: k=8, where none is: labels and time do not depend on k (it only sets
#: the declared bound), and the heuristic's misses are counted as the
#: per-layer ``pathwidth.miss_share`` instead.
PLANTED_WIDTH = 3
CERTIFY_K = 8

#: Lanewidth hosts: construction sequences of lanewidth 3.
LANES = 3


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


@dataclass
class Host:
    """One op's input and what the oracle knows about it."""

    target: object  # a Graph (Theorem-1 mode) or a ConstructionSequence
    truth: bool  # graph.is_connected(), computed apart from the verifier
    fingerprint: str
    ids_rng: object = None
    directory: Path = None  # the op's own store directory, when it has one
    recorded: dict = None  # stored-reverify: what certify recorded


def certify_into(directory, sequence, rng):
    """The lanewidth-cold op: a fresh store-backed session, vectorized."""
    session = CertificationSession(
        store=CertificateStore(directory),
        engine=VerificationEngine(make_executor("vectorized")),
        rng=rng,
    )
    return session.certify(sequence, PROPERTY)


class Workload:
    """One workload: how to build host ``i``, run the op, and size it.

    ``tail_q`` is the highest percentile with at least ten ops beyond it
    once a timed run has ``min_ops`` ops.  Sizes and counters are
    reported over the first ``exact_ops`` ops only, so they repeat
    exactly at one seed whatever the machine's speed.
    """

    name = ""
    root_span = ""
    live = True  # the op runs the prover (stage timings are its own)
    tail_q = 0.0
    min_ops = 0
    exact_ops = 0
    populate_s = 0.0
    planted_width = 0  # width of the hosts' planted decomposition, if any

    def __init__(self, seed: int, scratch: Path, tiny: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.tiny = tiny
        self.hosts = seed_stream(seed, f"{self.name}/hosts")
        self.ids = seed_stream(seed, f"{self.name}/ids")
        if tiny:
            self.min_ops, self.exact_ops = 3, 2

    def populate(self) -> None:
        """Set-up work beyond the warm-up (stored-reverify only)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def host(self, index: int) -> Host:
        raise NotImplementedError

    def op(self, host: Host):
        raise NotImplementedError

    def disk_bytes(self, host: Host, report) -> int:
        """What one certificate of this workload occupies on disk."""
        raise NotImplementedError

    def entry_bytes(self, host: Host) -> int:
        """Size of the store entry the op wrote or read (0: no store)."""
        return 0

    def release(self, host: Host) -> None:
        if host.directory is not None:
            shutil.rmtree(host.directory, ignore_errors=True)

    def close(self) -> None:
        """Remove whatever set-up left on disk."""


class Theorem1Cold(Workload):
    """``certify(graph, "connected", k=8)`` with library defaults.

    Defaults are the heuristic decomposer, the serial reference verifier
    and the in-memory artifact cache: the only workload that runs
    ``repro.pathwidth`` and the reference verifier.
    """

    name = "theorem1-cold"
    root_span = "api.certify"
    planted_width = PLANTED_WIDTH
    tail_q = 0.60
    min_ops = 25
    exact_ops = 25

    def __init__(self, seed, scratch, tiny=False):
        super().__init__(seed, scratch, tiny)
        self.n = 24 if tiny else 256

    def _graph_host(self, index, graph) -> Host:
        return Host(
            graph, graph.is_connected(), graph.fingerprint(), self.ids.rng(index)
        )

    def host(self, index):
        graph, _planted = pathwidth_workload(
            self.n, PLANTED_WIDTH, self.hosts.seed(index)
        )
        return self._graph_host(index, graph)

    def disconnected_host(self, index) -> Host:
        """Host ``index`` plus one isolated vertex (for the self-test)."""
        graph = self.host(index).target
        graph.add_vertex(max(graph.vertices()) + 1)
        return self._graph_host(index, graph)

    def warm_up(self):
        warm = seed_stream(self.seed, "warm-up")
        graph, _planted = pathwidth_workload(32, PLANTED_WIDTH, warm.seed(0))
        certify(graph, PROPERTY, k=CERTIFY_K, rng=warm.rng(1))

    def op(self, host):
        return certify(host.target, PROPERTY, k=CERTIFY_K, rng=host.ids_rng)

    def disk_bytes(self, host, report):
        # The op keeps its artifacts in memory, so a stored certificate
        # is the store entry alone; saving it happens outside the op.
        directory = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            return CertificateStore(directory).save(report).stat().st_size
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class LanewidthCold(Workload):
    """A fresh store-backed vectorized session certifies one sequence.

    The certify-once side of the store deployment: no decompose; prove,
    columnar encode, kernel compile, and artifact plus store writes.
    """

    name = "lanewidth-cold"
    root_span = "session.certify"
    tail_q = 0.60
    min_ops = 25
    exact_ops = 8

    def __init__(self, seed, scratch, tiny=False):
        super().__init__(seed, scratch, tiny)
        self.n = 48 if tiny else 1024

    def host(self, index):
        sequence, graph = lanewidth_workload(
            LANES, self.n, self.hosts.seed(index)
        )
        return Host(
            sequence, graph.is_connected(), graph.fingerprint(),
            self.ids.rng(index), Path(tempfile.mkdtemp(dir=self.scratch)),
        )

    def warm_up(self):
        warm = seed_stream(self.seed, "warm-up")
        sequence, _graph = lanewidth_workload(LANES, 48, warm.seed(0))
        directory = tempfile.mkdtemp(dir=self.scratch)
        try:
            certify_into(directory, sequence, warm.rng(1))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def op(self, host):
        return certify_into(host.directory, host.target, host.ids_rng)

    def disk_bytes(self, host, report):
        return dir_bytes(host.directory)

    def entry_bytes(self, host):
        path = CertificateStore(host.directory).path_for(host.fingerprint, PROPERTY)
        return path.stat().st_size


class StoredReverify(Workload):
    """Reverify certificates a separate process stored during set-up.

    One op opens a fresh ``CertificateStore`` over the populated
    directory, builds a fresh vectorized executor on its artifact cache,
    and calls ``store.reverify``; ops cycle through the stored hosts.
    """

    name = "stored-reverify"
    root_span = "store.reverify"
    live = False
    tail_q = 0.80
    min_ops = 50
    stored_hosts = 6

    def __init__(self, seed, scratch, tiny=False):
        super().__init__(seed, scratch, tiny)
        self.n = 48 if tiny else 1024
        if tiny:
            self.stored_hosts = 2
        # One pass over the stored hosts fixes every size and counter.
        self.exact_ops = self.stored_hosts
        self.directory = None
        self.recorded = []

    def _sequence(self, index):
        return lanewidth_workload(LANES, self.n, self.hosts.seed(index))

    def populate(self):
        """Certify the hosts into one store, in a separate process.

        The child runs the lanewidth-cold op; this process never holds
        the prover's memory, so its peak resident size is the reading
        side's alone.
        """
        self.directory = Path(tempfile.mkdtemp(dir=self.scratch))
        command = [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--populate", str(self.directory), "--seed", str(self.seed),
        ] + (["--tiny"] if self.tiny else [])
        began = perf_counter()
        child = subprocess.run(
            command, stdout=subprocess.PIPE, check=True, timeout=150
        )
        self.populate_s = perf_counter() - began
        self.recorded = json.loads(child.stdout.decode().splitlines()[-1])
        for index, recorded in enumerate(self.recorded):
            _sequence, graph = self._sequence(index)
            if recorded["fingerprint"] != graph.fingerprint():
                raise RuntimeError("stored host does not match its seed")
            recorded["truth"] = graph.is_connected()

    def populate_here(self) -> list:
        """The child's side of :meth:`populate`; returns what it recorded."""
        recorded = []
        for index in range(self.stored_hosts):
            sequence, graph = self._sequence(index)
            report = certify_into(self.directory, sequence, self.ids.rng(index))
            recorded.append(
                {
                    "fingerprint": graph.fingerprint(),
                    "accepted": report.accepted,
                    "max_bits": report.encoded.max_bits,
                    "total_bits": report.encoded.total_bits,
                }
            )
        return recorded

    def warm_up(self):
        warm = seed_stream(self.seed, "warm-up")
        sequence, graph = lanewidth_workload(LANES, 48, warm.seed(0))
        directory = tempfile.mkdtemp(dir=self.scratch)
        try:
            certify_into(directory, sequence, warm.rng(1))
            store = CertificateStore(directory)
            store.reverify(
                graph.fingerprint(), PROPERTY,
                engine=VerificationEngine(
                    make_executor("vectorized", artifacts=store.artifact_cache())
                ),
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def host(self, index):
        recorded = self.recorded[index % self.stored_hosts]
        return Host(
            None, recorded["truth"], recorded["fingerprint"], recorded=recorded
        )

    def op(self, host):
        store = CertificateStore(self.directory)
        executor = make_executor("vectorized", artifacts=store.artifact_cache())
        return store.reverify(
            host.fingerprint, PROPERTY, engine=VerificationEngine(executor)
        )

    def disk_bytes(self, host, report):
        return dir_bytes(self.directory) // self.stored_hosts

    def entry_bytes(self, host):
        path = CertificateStore(self.directory).path_for(host.fingerprint, PROPERTY)
        return path.stat().st_size

    def close(self):
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (Theorem1Cold, LanewidthCold, StoredReverify)
}
