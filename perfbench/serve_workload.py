"""``serve-recipe`` and ``serve-mtx``: a closed loop against ``repro serve``.

One client process sends one request at a time over one HTTP/1.1
connection and sends the next only after the full response body is
read (a closed loop, one connection, no think time).  The server
answers ``Connection: close``, so the client reconnects before each
request; the connect is inside the timed window, as it is for any
client of this server.

Every request is a unique ``/characterize`` query with default formats
and partitions (see :mod:`inputs`): the LRU and single-flight never
hit, and the server's ``computations`` counter must grow by exactly
the number of requests.  ``serve-recipe`` sends generator recipes;
``serve-mtx`` sends the same matrices as inline ``.mtx`` text, which
adds the sandbox gate and a second parse on the server.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time

import common

#: Server spawns per run; the median spawn-to-/healthz time is setup_s.
SETUP_SPAWNS = 5
#: Every SAMPLE_EVERY-th response is byte-compared, at most MAX_SAMPLES.
SAMPLE_EVERY = 8
MAX_SAMPLES = 24
#: Latency charged to a failed or refused request: slower than any
#: limit a caller of this server would set.
FAILED_MS = 1e6
_READY = re.compile(r"serving on http://([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """A spawned ``repro serve`` on an ephemeral localhost port."""

    def __init__(self) -> None:
        self.ready_s = 0.0
        self.port = 0
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.port = self._read_port(deadline=start + 60)
            client = Client(self.port)
            try:
                while not self._healthy(client):
                    if time.perf_counter() > start + 60:
                        raise RuntimeError("server never answered /healthz")
                    time.sleep(0.002)
            finally:
                client.close()
            self.ready_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _healthy(client: "Client") -> bool:
        try:
            return client.request("GET", "/healthz")[0] == 200
        except (OSError, http.client.HTTPException):
            return False

    def _read_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                match = _READY.search(line)
                if match:
                    return int(match.group(2))
        raise RuntimeError(
            f"repro serve did not start (exit {self.process.poll()})"
        )

    def pids(self) -> "list[int]":
        """The server and its direct children (the sandbox worker)."""
        pids = [self.process.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.process.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its children."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        children = [pid for pid in self.pids() if pid != self.process.pid]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        # the sandbox worker runs in its own session; the server closes
        # it on shutdown, and nothing may outlive the run
        deadline = time.perf_counter() + 10
        for pid in children:
            while os.path.exists(f"/proc/{pid}"):
                if time.perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.perf_counter() + 10
                time.sleep(0.01)


# ----------------------------------------------------------------------
# The client: stdlib http.client, one connection object
# ----------------------------------------------------------------------
class Client:
    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )
        self.connects = 0

    def request(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> "tuple[int, bytes, float]":
        """Status, body and seconds from send to the last body byte."""
        if self.connection.sock is None:
            self.connects += 1
        start = time.perf_counter()
        try:
            self.connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            raise
        return response.status, data, time.perf_counter() - start

    def computations(self) -> int:
        status, data, _ = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return int(json.loads(data)["extra"]["server"]["computations"])

    def close(self) -> None:
        self.connection.close()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def mismatched(samples: "list[tuple[bytes, bytes]]", reference) -> int:
    """Sampled responses whose bytes differ from ``reference(body)``."""
    return sum(
        1 for body, served in samples if reference(body) != served
    )


def reference_bytes(body: bytes) -> bytes:
    """The in-process answer to one request body."""
    import inputs
    from repro.serve import SweepBackend

    return SweepBackend().execute_bytes(inputs.query_of(body))


def query_digest(body: bytes) -> str:
    """The server's coalescing and cache key for one request body."""
    import inputs
    from repro.serve import protocol

    return protocol.query_digest(inputs.query_of(body))


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
class Loop:
    """Closed-loop requests until ``seconds`` of request time passed."""

    def __init__(self, seed: int, inline_mtx: bool) -> None:
        self.seed = seed
        self.inline_mtx = inline_mtx
        #: Latencies (ms) of each block of requests, in send order.
        self.blocks: list[list[float]] = []
        #: Requests per second of each block of requests.
        self.block_rates: list[float] = []
        self.failures = 0
        self.samples: list[tuple[bytes, bytes]] = []
        self.digests: list[str] = []
        self.first_block: list[bytes] = []

    def body(self, index: int) -> bytes:
        import inputs

        return inputs.serve_body(self.seed, index, self.inline_mtx)

    def run(self, client: Client, seconds: float) -> None:
        """Send whole blocks of requests until ``seconds`` of request
        time passed; every block holds the same mix of sizes.

        A block's bodies (and their digests) are made before its first
        request, so requests within a block go back to back.
        """
        import inputs

        timed = 0.0
        first = 0
        while timed < seconds:
            indices = range(first, first + inputs.SERVE_BLOCK)
            bodies = [self.body(index) for index in indices]
            self.digests.extend(query_digest(body) for body in bodies)
            block_s = 0.0
            block: list[float] = []
            for index, body in zip(indices, bodies):
                start = time.perf_counter()
                try:
                    status, data, elapsed = client.request(
                        "POST", "/characterize", body
                    )
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    elapsed = time.perf_counter() - start
                block_s += elapsed
                if status != 200:
                    self.failures += 1
                    block.append(FAILED_MS)
                    continue
                block.append(elapsed * 1e3)
                if (
                    index % SAMPLE_EVERY == 0
                    and len(self.samples) < MAX_SAMPLES
                ):
                    self.samples.append((body, data))
            timed += block_s
            self.blocks.append(block)
            self.block_rates.append(inputs.SERVE_BLOCK / block_s)
            if first == 0:
                self.first_block = bodies
            first += inputs.SERVE_BLOCK

    @property
    def attempted(self) -> int:
        return sum(len(block) for block in self.blocks)

    def inputs_digest(self) -> str:
        """Digest of the first block of request bodies."""
        import inputs

        return inputs.serve_inputs_digest(self.first_block)


def _replay(seed: int, inline_mtx: bool, count: int, http_p50_ms: float):
    """In-process replay of the first ``count`` requests, per-layer.

    Each query goes parse_query -> Sandbox.run (mtx only) ->
    SweepBackend.execute_bytes once untraced and once traced, in
    alternating order; the untraced block median is compared with the
    HTTP block median, the traced runs give the layer split.
    """
    import inputs
    from layertrace import Tracer
    from repro.guard.sandbox import Sandbox
    from repro.serve import SweepBackend

    tracer = Tracer()
    backend = SweepBackend()
    plain: list[float] = []
    traced_s = 0.0

    def answer(sandbox, body: bytes) -> bytes:
        query = inputs.query_of(body)
        if query.spec.kind == "mtx":
            content = dict(query.spec.params)["content"]
            verdict = sandbox.run(
                "profile", mtx=content, p=max(query.partitions)
            )
            if not verdict.ok:
                raise RuntimeError(f"sandbox refused: {verdict.kind}")
        return backend.execute_bytes(query)

    with Sandbox() as sandbox:
        # spawn the sandbox worker and warm first-call paths untimed
        answer(sandbox, inputs.serve_body(seed, -1, inline_mtx))
        for index in range(count):
            body = inputs.serve_body(seed, index, inline_mtx)
            for traced in ((False, True) if index % 2 else (True, False)):
                start = time.perf_counter()
                if traced:
                    with tracer.installed(), tracer.region():
                        answer(sandbox, body)
                    traced_s += time.perf_counter() - start
                else:
                    answer(sandbox, body)
                    plain.append(time.perf_counter() - start)
    replay_p50_ms = common.block_quantile(
        [
            plain[start:start + inputs.SERVE_BLOCK]
            for start in range(0, len(plain), inputs.SERVE_BLOCK)
        ],
        0.5,
    ) * 1e3
    common.report(
        "in-process replay p50",
        f"{replay_p50_ms:.2f} ms over {count} queries "
        f"(HTTP p50 {http_p50_ms:.2f} ms)",
    )
    return tracer.metrics(
        traced_s / sum(plain) - 1.0, http_p50_ms - replay_p50_ms
    )


def run(seed: int, seconds: float, trace: bool, inline_mtx: bool) -> tuple:
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        server = Server()
        server.stop()
        setups.append(server.ready_s)
    server = Server()
    setups.append(server.ready_s)
    loop = Loop(seed, inline_mtx)
    try:
        client = Client(server.port)
        # first-call costs (and, for mtx, the sandbox worker spawn) are
        # paid once per server, not per request
        status, _, _ = client.request(
            "POST", "/characterize", loop.body(-1)
        )
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
        before = client.computations()
        # a traced run splits its time: a third over HTTP, the rest
        # replaying the same queries in-process untraced and traced
        loop.run(client, seconds / 3 if trace else seconds)
        computed = client.computations() - before
        connects = client.connects
        client.close()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    ok = loop.attempted - loop.failures
    bad_samples = mismatched(loop.samples, reference_bytes)
    unique = len(set(loop.digests)) == len(loop.digests)
    common.report("inputs digest", loop.inputs_digest())
    common.report(
        "requests",
        f"{loop.attempted} sent, {ok} answered 200, {connects} connects",
    )
    common.report(
        "sampled bodies",
        f"{len(loop.samples) - bad_samples}/{len(loop.samples)} "
        "byte-identical to SweepBackend().execute_bytes",
    )
    common.report(
        "query digests", "all distinct" if unique else "DUPLICATES"
    )
    common.report("server computations delta", f"{computed} (want {ok})")
    correct = (
        bad_samples == 0
        and loop.failures == 0
        and unique
        and computed == ok
    )
    failed = loop.failures + bad_samples
    http_p50 = common.block_quantile(loop.blocks, 0.5)
    if trace:
        layers = _replay(seed, inline_mtx, loop.attempted, http_p50)
        common.report(
            "tracing overhead", f"{layers['trace.overhead_frac'][0]:+.1%}"
        )
        return correct, loop.attempted, failed, {
            name: common.metric(value, unit)
            for name, (value, unit) in layers.items()
        }
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "throughput_per_s": common.metric(
            common.median(loop.block_rates), "1/s"
        ),
        "p50_ms": common.metric(http_p50, "ms"),
        "p90_ms": common.metric(
            common.block_quantile(loop.blocks, 0.9), "ms"
        ),
        "peak_rss_mb": common.metric(peak_rss_mb, "MB"),
        "ok_frac": common.metric(
            (loop.attempted - failed) / loop.attempted, "fraction"
        ),
    }
    return correct, loop.attempted, failed, metrics
