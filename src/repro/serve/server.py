"""The ``alive-serve`` daemon: a socket front-end over the supervisor.

The connection layer is readiness-driven, not thread-per-connection:
one IO thread owns a :mod:`selectors` selector watching the listener and
every live connection, so a thousand idle clients cost a thousand file
descriptors and zero threads.  Readable connections have their bytes
pulled into per-connection buffers, split into newline frames, and the
frames fanned out to a small **bounded pool of handler threads** that
parse and dispatch requests (per-connection in order — frames from one
socket are never handled concurrently).  ``max_connections`` caps the
accepted set; clients over the cap get an ``OVERLOADED`` reply and an
immediate close, the same shed-don't-queue policy the supervisor applies
to requests.

Replies are written from future callbacks as verdicts complete — out of
submission order, matched by ``id`` — under a per-connection write lock,
so one slow request never blocks the verdict stream behind it.

Signals (when run as a main program):

* ``SIGTERM`` / ``SIGINT`` — graceful shutdown: stop accepting, drain
  in-flight requests under ``--drain-timeout``, then exit;
* ``SIGHUP`` — log a health snapshot and re-scan (heal) the on-disk
  query cache without restarting.
"""

from __future__ import annotations

import argparse
import json
import logging
import queue
import selectors
import signal
import socket
import sys
import threading
from collections import deque
from typing import Deque, Optional, Set

from repro.refinement.check import VerifyOptions
from repro.serve import protocol
from repro.serve.supervisor import OverloadedError, ServeConfig, Supervisor

logger = logging.getLogger("repro.serve.server")

_DATA_OPS = ("verify", "test")


class _Conn:
    """One accepted connection: its socket, read buffer, frame queue."""

    __slots__ = ("sock", "buf", "write_lock", "frames", "queued", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.write_lock = threading.Lock()
        self.frames: Deque[bytes] = deque()  # parsed, unhandled frames
        self.queued = False  # sitting in the handler work queue?
        self.closed = False

    def reply(self, message: dict) -> None:
        try:
            frame = protocol.encode_message(message)
        except protocol.ProtocolError as exc:
            frame = protocol.encode_message(
                {
                    "id": message.get("id"),
                    "ok": False,
                    "error": protocol.BAD_REQUEST,
                    "detail": f"reply too large: {exc}",
                }
            )
        with self.write_lock:
            try:
                self.sock.sendall(frame)
            except OSError:
                pass  # client went away; verdict is already computed


class ServeServer:
    """Selector-driven accept/read loop + handler pool over one supervisor."""

    def __init__(
        self,
        address: protocol.Address,
        config: Optional[ServeConfig] = None,
        *,
        conn_threads: int = 4,
        max_connections: int = 256,
    ) -> None:
        self.address = address
        self.supervisor = Supervisor(config)
        self.conn_threads = max(1, conn_threads)
        self.max_connections = max(1, max_connections)
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._shutdown = threading.Event()
        self._drain_timeout_s: Optional[float] = None
        self._conns: Set[_Conn] = set()
        self._conns_lock = threading.Lock()
        self._io_thread: Optional[threading.Thread] = None
        self._handlers: list = []
        self._work: "queue.Queue[Optional[_Conn]]" = queue.Queue()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ServeServer":
        """Bind, start workers, and begin accepting in the background."""
        self.supervisor.start()
        self._listener = protocol.create_server_socket(self.address)
        # Non-blocking listener: accept() is only called on readiness,
        # and a raced-away connection must not stall the IO loop.
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._io_thread = threading.Thread(
            target=self._io_loop, name="serve-io", daemon=True
        )
        self._io_thread.start()
        self._handlers = [
            threading.Thread(
                target=self._handler_loop, name=f"serve-handler-{i}", daemon=True
            )
            for i in range(self.conn_threads)
        ]
        for thread in self._handlers:
            thread.start()
        logger.info(
            "alive-serve listening on %s (%d workers, %d handler threads, "
            "%d connection cap)",
            protocol.format_address(self.address),
            self.supervisor.config.workers,
            self.conn_threads,
            self.max_connections,
        )
        return self

    def wait(self) -> None:
        """Block until :meth:`request_shutdown`, then tear down."""
        self._shutdown.wait()
        self._teardown()

    def request_shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        self._drain_timeout_s = drain_timeout_s
        self._shutdown.set()

    def close(self, drain_timeout_s: Optional[float] = None) -> None:
        """Synchronous shutdown (for tests): drain, stop, unbind."""
        self.request_shutdown(drain_timeout_s)
        self._teardown()

    def _teardown(self) -> None:
        listener = self._listener
        self._listener = None
        if self._io_thread is not None:
            self._io_thread.join(timeout=2.0)
            self._io_thread = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        for _ in self._handlers:
            self._work.put(None)
        for thread in self._handlers:
            thread.join(timeout=2.0)
        self._handlers = []
        self.supervisor.shutdown(self._drain_timeout_s)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop_conn(conn)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self.address[0] == "unix":
            import os

            try:
                os.unlink(self.address[1])
            except OSError:
                pass

    # -- the IO loop -------------------------------------------------------
    def _io_loop(self) -> None:
        """Accept + read readiness for every socket, one thread total."""
        selector = self._selector
        while not self._shutdown.is_set():
            try:
                events = selector.select(timeout=0.2)
            except OSError:
                return
            for key, _mask in events:
                if key.data is None:
                    self._accept_ready()
                else:
                    self._read_ready(key.data)

    def _accept_ready(self) -> None:
        listener = self._listener
        if listener is None:
            return
        while True:
            try:
                sock, _peer = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            with self._conns_lock:
                over = len(self._conns) >= self.max_connections
                conn = _Conn(sock)
                if not over:
                    self._conns.add(conn)
            if over:
                # Shed, don't queue: same policy as the supervisor.
                conn.reply(
                    {
                        "id": None,
                        "ok": False,
                        "error": protocol.OVERLOADED,
                        "detail": f"connection cap ({self.max_connections})",
                    }
                )
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            # The socket stays *blocking*: reads happen only on readiness
            # (never stalling the IO thread past one buffered chunk) and
            # replies may use plain sendall from handler/callback threads.
            try:
                self._selector.register(sock, selectors.EVENT_READ, conn)
            except (KeyError, ValueError, OSError):
                self._drop_conn(conn)

    def _read_ready(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_conn(conn)
            return
        if not data:
            self._drop_conn(conn)
            return
        conn.buf += data
        frames = []
        while True:
            nl = conn.buf.find(b"\n")
            if nl < 0:
                break
            frames.append(conn.buf[:nl])
            conn.buf = conn.buf[nl + 1 :]
        if len(conn.buf) > protocol.MAX_LINE_BYTES:
            # A frame that never ends: answer once and cut the cord
            # instead of buffering without bound.
            conn.reply(
                {
                    "id": None,
                    "ok": False,
                    "error": protocol.BAD_REQUEST,
                    "detail": "oversized frame",
                }
            )
            self._drop_conn(conn)
            return
        if frames:
            self._enqueue(conn, frames)

    def _enqueue(self, conn: _Conn, frames: list) -> None:
        """Hand parsed frames to the handler pool, one queue entry per
        connection at a time so a connection's requests stay ordered."""
        with self._conns_lock:
            if conn.closed:
                return
            conn.frames.extend(frames)
            if conn.queued:
                return
            conn.queued = True
        self._work.put(conn)

    def _drop_conn(self, conn: _Conn) -> None:
        with self._conns_lock:
            conn.closed = True
            self._conns.discard(conn)
        selector = self._selector
        if selector is not None:
            try:
                selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- handler pool ------------------------------------------------------
    def _handler_loop(self) -> None:
        while True:
            conn = self._work.get()
            if conn is None:
                return
            self._process_conn(conn)

    def _process_conn(self, conn: _Conn) -> None:
        """Drain one connection's pending frames, in order."""
        while True:
            with self._conns_lock:
                if conn.closed or not conn.frames:
                    conn.queued = False
                    return
                line = conn.frames.popleft()
            if not line.strip():
                continue
            try:
                request = protocol.decode_message(line)
            except protocol.ProtocolError as exc:
                conn.reply(
                    {
                        "id": None,
                        "ok": False,
                        "error": protocol.BAD_REQUEST,
                        "detail": str(exc),
                    }
                )
                continue
            if not self._handle_request(request, conn.reply):
                self._drop_conn(conn)
                return

    # -- request handling --------------------------------------------------
    def _handle_request(self, request: dict, reply) -> bool:
        """Dispatch one decoded request; False ends the connection."""
        op = request.get("op")
        rid = request.get("id")
        if op in _DATA_OPS:
            problem = _validate_data_request(op, rid, request)
            if problem is not None:
                reply(
                    {
                        "id": rid,
                        "ok": False,
                        "error": protocol.BAD_REQUEST,
                        "detail": problem,
                    }
                )
                return True
            try:
                future = self.supervisor.submit(request)
            except OverloadedError as exc:
                reply(
                    {
                        "id": rid,
                        "ok": False,
                        "error": exc.code,
                        "detail": str(exc),
                    }
                )
                return True

            def deliver(fut, rid=rid) -> None:
                payload = fut.result()
                if payload.get("kind") == "error":
                    reply(
                        {
                            "id": rid,
                            "ok": False,
                            "error": payload.get("error", protocol.UNAVAILABLE),
                            "detail": payload.get("detail", ""),
                        }
                    )
                else:
                    reply({"id": rid, "ok": True, "result": payload})

            future.add_done_callback(deliver)
            return True
        if op == "health":
            health = self.supervisor.health()
            health["protocol"] = protocol.PROTOCOL_VERSION
            health["address"] = protocol.format_address(self.address)
            reply({"id": rid, "ok": True, "result": health})
            return True
        if op == "drain":
            drained = self.supervisor.drain(request.get("timeout_s"))
            reply({"id": rid, "ok": True, "result": {"drained": drained}})
            return True
        if op == "shutdown":
            reply({"id": rid, "ok": True, "result": {"stopping": True}})
            self.request_shutdown(request.get("timeout_s"))
            return False
        reply(
            {
                "id": rid,
                "ok": False,
                "error": protocol.BAD_REQUEST,
                "detail": f"unknown op {op!r}",
            }
        )
        return True


def _validate_data_request(op: str, rid, request: dict) -> Optional[str]:
    """Shape check before anything reaches a worker; None when fine."""
    if not isinstance(rid, int):
        return "data requests need an integer 'id'"
    if op == "verify":
        for key in ("src", "tgt"):
            if not isinstance(request.get(key), str):
                return f"verify needs IR text in {key!r}"
    else:
        test = request.get("test")
        if not isinstance(test, dict):
            return "test op needs a 'test' object"
        if not isinstance(test.get("name"), str) or not isinstance(
            test.get("ir"), str
        ):
            return "test object needs 'name' and 'ir' strings"
    options = request.get("options")
    if options is not None and not isinstance(options, dict):
        return "'options' must be an object (VerifyOptions.to_json())"
    return None


# ---------------------------------------------------------------------------
# Daemon entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alive-serve",
        description="Long-lived translation-validation service "
        "(line-delimited JSON over a Unix or TCP socket).",
    )
    parser.add_argument(
        "--listen",
        default="unix:./alive-serve.sock",
        metavar="ADDR",
        help="unix:/path, /path, or host:port (default %(default)s)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=128,
        help="outstanding requests before shedding with OVERLOADED",
    )
    parser.add_argument(
        "--query-cache",
        metavar="PATH",
        default=None,
        help="shared persistent solver-query cache (JSONL)",
    )
    parser.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        metavar="N",
        help="split the query cache into N digest-routed shard files; "
        "every worker loads all of them and appends each entry to the "
        "shard it routes to (1 = legacy single-file layout; existing "
        "files migrate automatically)",
    )
    parser.add_argument(
        "--conn-threads",
        type=int,
        default=4,
        help="bounded pool of request-handler threads shared by all "
        "connections (the IO loop itself is a single selector thread)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="accepted-connection cap; clients over it are shed with "
        "OVERLOADED instead of exhausting descriptors/threads",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request verification timeout (seconds)",
    )
    parser.add_argument("--unroll", type=int, default=4)
    parser.add_argument(
        "--certify",
        action="store_true",
        help="require checkable UNSAT proofs (see --certify in alive-suite)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="dispatches per request before degrading to CRASH",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight work on SIGTERM",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    options = VerifyOptions(
        unroll_factor=args.unroll,
        timeout_s=args.timeout,
        certify=args.certify,
    )
    config = ServeConfig(
        workers=max(1, args.workers),
        queue_limit=max(1, args.queue_limit),
        max_attempts=max(1, args.max_attempts),
        drain_timeout_s=args.drain_timeout,
        cache_enabled=args.query_cache is not None,
        cache_path=args.query_cache,
        cache_shards=max(1, args.cache_shards),
        default_options=options.to_json(),
    )
    try:
        address = protocol.parse_address(args.listen)
    except ValueError as exc:
        print(f"alive-serve: {exc}", file=sys.stderr)
        return 2

    server = ServeServer(
        address,
        config,
        conn_threads=max(1, args.conn_threads),
        max_connections=max(1, args.max_connections),
    ).start()

    def on_terminate(signum, _frame) -> None:
        logger.info(
            "signal %s: draining (timeout %.1fs) and shutting down",
            signal.Signals(signum).name,
            args.drain_timeout,
        )
        server.request_shutdown(args.drain_timeout)

    def on_hup(_signum, _frame) -> None:
        logger.info("health: %s", json.dumps(self_health(server)))
        if args.query_cache is not None:
            from repro.engine.qcache import QueryCache

            discarded = QueryCache(
                args.query_cache, shards=max(1, args.cache_shards)
            ).heal()
            logger.info(
                "query cache healed: %d corrupt entr%s discarded",
                discarded,
                "y" if discarded == 1 else "ies",
            )

    signal.signal(signal.SIGTERM, on_terminate)
    signal.signal(signal.SIGINT, on_terminate)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, on_hup)

    server.wait()
    logger.info("alive-serve stopped")
    return 0


def self_health(server: ServeServer) -> dict:
    return server.supervisor.health()


if __name__ == "__main__":
    sys.exit(main())
