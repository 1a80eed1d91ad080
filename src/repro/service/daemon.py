"""The JSON-lines socket daemon around :class:`CertificationService`.

:class:`Daemon` binds a TCP port or unix socket, reads one framed
request per line (:mod:`repro.service.protocol`), and serves each as
its own :class:`asyncio.Task` — pipelined requests on a single
connection overlap, which is what lets one client's identical
back-to-back requests coalesce.  Responses are written under a
per-connection lock, so they may interleave *across* requests but never
*within* a frame; clients correlate by request ``id``.

Graceful shutdown (SIGTERM/SIGINT or a ``shutdown`` request): stop
accepting connections, wait up to ``config.drain_timeout`` seconds for
in-flight request tasks, close the service (worker threads drained —
no leaked worker processes), and emit one final ``SERVICE_METRICS {json}`` line on stdout so the
last metrics snapshot survives the process.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Optional

from repro.service.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
)
from repro.service.service import CertificationService


class Daemon:
    """One serving endpoint (TCP or unix socket) over one service."""

    def __init__(
        self,
        service: CertificationService,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
    ):
        if socket_path is None and port is None:
            raise ValueError("need a TCP port or a unix socket path")
        self.service = service
        self.host = host or "127.0.0.1"
        self.port = port
        self.socket_path = socket_path
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: set = set()
        self._stopping: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    async def start(self) -> str:
        """Bind and start accepting; return the printable address."""
        self._stopping = asyncio.Event()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.socket_path
            )
            self.address = f"unix:{self.socket_path}"
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp:{bound[0]}:{bound[1]}"
        return self.address

    def request_stop(self) -> None:
        """Begin graceful shutdown (idempotent, callable from handlers)."""
        if self._stopping is not None:
            self._stopping.set()

    async def run(self, ready_line: bool = False) -> None:
        """Start, serve until asked to stop, then drain and close.

        ``ready_line=True`` prints ``SERVICE_READY <address>`` once
        listening — the handshake ``python -m repro.service`` offers so
        wrappers (CI, the examples, the E11 benchmark) can wait for a
        live endpoint instead of polling the socket.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        if ready_line:
            print(f"SERVICE_READY {self.address}", flush=True)
        try:
            await self._stopping.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self._shutdown()

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        pending = {task for task in self._tasks if not task.done()}
        if pending:
            await asyncio.wait(
                pending, timeout=self.service.config.drain_timeout
            )
        await self.service.close()
        print(
            "SERVICE_METRICS " + json.dumps(self.service.snapshot(), sort_keys=True),
            flush=True,
        )

    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._respond(line, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _respond(self, line: bytes, writer, write_lock) -> None:
        shutdown_requested = False
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            response = error_response(None, str(exc))
        else:
            response = await self.service.handle(request)
            shutdown_requested = (
                request.get("op") == "shutdown" and response.get("ok", False)
            )
        try:
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, OSError):
            pass  # client went away; the work (and its cache effects) stand
        if shutdown_requested:
            self.request_stop()
