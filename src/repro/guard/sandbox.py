"""Resource-sandboxed execution boundary for untrusted matrices.

A poison matrix — one crafted to blow up the parser, the profiler or a
format codec — must cost the attacker a verdict, not the operator a
serve worker.  This module runs the exposed operations (``parse``,
``profile``, ``encode``) in a *subprocess* under hard caps:

* **wall clock** — the parent kills the child past
  :attr:`SandboxLimits.wall_s` (a per-job CPU rlimit backs this up, so
  a busy loop dies even if the parent stalls);
* **memory** — the child caps its own address-space headroom with
  ``resource.setrlimit(RLIMIT_AS)``, so a dense-bomb allocation raises
  ``MemoryError`` inside the child instead of invoking the OOM killer
  on the serving process;
* **output size** — the parent refuses verdict payloads beyond
  :attr:`SandboxLimits.output_bytes`.

Every outcome is a typed :class:`ResourceVerdict`:

=============  =====================================================
``ok``         the operation completed; ``result`` holds its summary
``rejected``   the library refused the input with a typed
               :class:`~repro.errors.CopernicusError` — the *correct*
               answer for malformed input
``timeout``    wall-clock or CPU budget exhausted; child killed
``oom``        the memory cap fired (``MemoryError`` under RLIMIT_AS)
``oversize``   the child tried to ship more than the output cap
``crash``      an unhandled exception or child death — the verdict
               fuzzing hunts for
=============  =====================================================

The child is persistent: one spawned interpreter answers many jobs
over a length-delimited JSON pipe, so the per-job cost is the job, not
an interpreter boot.  A child killed for any reason is respawned on
the next call.  :class:`Sandbox` is thread-safe (one job in flight at
a time); :func:`run_sandboxed` is the one-shot convenience.

Only hostile *inputs* produce verdicts.  Harness failures — a child
that cannot spawn, a protocol violation — raise
:class:`~repro.errors.SandboxError` instead, so a verdict can always
be trusted to describe the input.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ..errors import CopernicusError, SandboxError

__all__ = [
    "SANDBOX_OPS",
    "VERDICT_KINDS",
    "ResourceVerdict",
    "Sandbox",
    "SandboxLimits",
    "run_sandboxed",
]

#: Operations the sandbox exposes over untrusted matrices.  The
#: underscored ops deterministically produce the non-``ok`` verdicts
#: (sleep → timeout, alloc → oom, flood → oversize, die → crash) and
#: exist for the verdict test suite; they never touch matrix data.
SANDBOX_OPS = (
    "parse",
    "profile",
    "encode",
    "_sleep",
    "_alloc",
    "_flood",
    "_die",
)

#: Every kind a :class:`ResourceVerdict` can carry.
VERDICT_KINDS = (
    "ok", "rejected", "timeout", "oom", "oversize", "crash",
)

#: Detail strings are clipped to this many characters in verdicts.
_DETAIL_CAP = 2000


@dataclass(frozen=True)
class SandboxLimits:
    """Hard caps for one sandboxed operation.

    ``rss_mb`` is allocation *headroom* beyond the child interpreter's
    baseline address space (numpy's mappings alone are large and
    constant), so the knob bounds what the untrusted input may
    allocate, independent of interpreter overhead.
    """

    wall_s: float = 10.0
    rss_mb: float = 512.0
    output_bytes: int = 1 << 22

    def __post_init__(self) -> None:
        if self.wall_s <= 0:
            raise SandboxError(
                f"wall_s must be > 0, got {self.wall_s}"
            )
        if self.rss_mb <= 0:
            raise SandboxError(
                f"rss_mb must be > 0, got {self.rss_mb}"
            )
        if self.output_bytes < 1024:
            raise SandboxError(
                f"output_bytes must be >= 1024, got {self.output_bytes}"
            )


@dataclass(frozen=True)
class ResourceVerdict:
    """The typed outcome of one sandboxed operation."""

    kind: str
    op: str
    detail: str = ""
    error_type: str = ""
    wall_s: float = 0.0
    result: "dict | None" = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    @property
    def safe(self) -> bool:
        """True when the input was *handled*: completed or refused
        with a typed error.  ``timeout``/``oom``/``oversize`` are also
        safe — the cap did its job — leaving ``crash`` as the only
        unsafe verdict."""
        return self.kind != "crash"

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "op": self.op,
            "detail": self.detail,
            "error_type": self.error_type,
            "wall_s": self.wall_s,
        }
        if self.result is not None:
            payload["result"] = self.result
        return payload


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def _address_space_bytes() -> int:
    """Current virtual size of this process (Linux; 0 elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as statm:
            pages = int(statm.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _apply_child_limits(rss_mb: float) -> None:
    import resource

    headroom = int(rss_mb * (1 << 20))
    ceiling = _address_space_bytes() + headroom
    try:
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _arm_cpu_budget(cpu_s: float) -> None:
    """Let the next job spend ``cpu_s`` (+1 s) of CPU from now on.

    ``RLIMIT_CPU`` counts the process's *cumulative* CPU, so a fixed
    limit would kill a long-lived child once its jobs add up past it.
    Only the soft limit moves — to the CPU already used plus the
    budget; the hard limit stays where it is, because an unprivileged
    process could never raise it again.
    """
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    used = math.ceil(usage.ru_utime + usage.ru_stime)
    soft = used + max(1, int(cpu_s) + 1)
    try:
        hard = resource.getrlimit(resource.RLIMIT_CPU)[1]
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_CPU, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _child_execute(job: dict) -> dict:
    """Run one job; map every outcome to a verdict payload."""
    op = job.get("op")
    try:
        if op == "parse":
            result = _op_parse(job)
        elif op == "profile":
            result = _op_profile(job)
        elif op == "encode":
            result = _op_encode(job)
        elif op == "_sleep":
            time.sleep(float(job.get("seconds", 3600.0)))
            result = {}
        elif op == "_alloc":
            result = _op_alloc(job)
        elif op == "_flood":
            result = {"blob": "x" * int(job.get("size", 1 << 24))}
        elif op == "_die":
            os._exit(int(job.get("code", 86)))
        else:
            return {
                "kind": "rejected",
                "error_type": "SandboxError",
                "detail": f"unknown sandbox op {op!r}",
            }
        return {"kind": "ok", "result": result}
    except CopernicusError as error:
        return {
            "kind": "rejected",
            "error_type": type(error).__name__,
            "detail": str(error)[:_DETAIL_CAP],
        }
    except MemoryError:
        return {"kind": "oom", "detail": "MemoryError under RLIMIT_AS"}
    except Exception as error:  # noqa: BLE001 — crash *finding*
        return {
            "kind": "crash",
            "error_type": type(error).__name__,
            "detail": traceback.format_exc()[-_DETAIL_CAP:],
        }


def _op_parse(job: dict) -> dict:
    from ..io import loads

    matrix = loads(str(job.get("mtx", "")))
    return {
        "shape": [matrix.n_rows, matrix.n_cols],
        "nnz": matrix.nnz,
    }


def _op_profile(job: dict) -> dict:
    from ..io import loads
    from ..partition import profile_table

    matrix = loads(str(job.get("mtx", "")))
    p = int(job.get("p", 8))
    table = profile_table(matrix, p)
    return {
        "shape": [matrix.n_rows, matrix.n_cols],
        "nnz": matrix.nnz,
        "p": p,
        "n_tiles": int(table.n_tiles),
    }


def _op_encode(job: dict) -> dict:
    from ..formats import get_format
    from ..formats.validate import validate_encoding
    from ..io import loads

    matrix = loads(str(job.get("mtx", "")))
    fmt = get_format(str(job.get("format", "csr")))
    encoded = fmt.encode(matrix)
    validate_encoding(encoded)
    size = fmt.size(encoded)
    return {
        "shape": [matrix.n_rows, matrix.n_cols],
        "nnz": matrix.nnz,
        "format": encoded.format_name,
        "total_bytes": int(size.total_bytes),
    }


def _op_alloc(job: dict) -> dict:
    import numpy as np

    mb = float(job.get("mb", 1 << 14))
    block = np.ones(int(mb * (1 << 20) // 8), dtype=np.float64)
    return {"allocated_mb": float(block.nbytes / (1 << 20))}


def _child_main(argv: "list[str]") -> int:
    """The sandbox child loop: one JSON job line in, one verdict out."""
    rss_mb = float(argv[argv.index("--rss-mb") + 1])
    cpu_s = float(argv[argv.index("--cpu-s") + 1])
    # import the heavy dependencies *before* capping the address
    # space, so the cap bounds untrusted allocations, not numpy's boot
    import numpy  # noqa: F401

    from .. import formats, io, partition  # noqa: F401

    _apply_child_limits(rss_mb)
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    while True:
        line = stdin.readline()
        if not line:
            return 0
        try:
            job = json.loads(line)
        except json.JSONDecodeError:
            payload = {
                "kind": "rejected",
                "error_type": "SandboxError",
                "detail": "malformed job line",
            }
        else:
            _arm_cpu_budget(cpu_s)
            payload = _child_execute(job)
        try:
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        except (MemoryError, ValueError, TypeError):
            blob = json.dumps(
                {"kind": "oom", "detail": "verdict serialization failed"}
            ).encode("utf-8")
        stdout.write(blob + b"\n")
        stdout.flush()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class Sandbox:
    """A persistent sandboxed worker for untrusted-matrix operations.

    One child interpreter serves many jobs; a child killed by a cap or
    a crash is respawned lazily on the next call.  Thread-safe: one
    job is in flight at a time, so verdicts can never interleave.
    """

    def __init__(self, limits: "SandboxLimits | None" = None) -> None:
        self.limits = limits or SandboxLimits()
        self._lock = threading.Lock()
        self._child: "subprocess.Popen | None" = None
        #: Total jobs executed (including non-ok verdicts).
        self.jobs = 0
        #: Child (re)spawns — 1 after the first job on a healthy run.
        self.spawns = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> subprocess.Popen:
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else str(src_root)
        )
        try:
            child = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.guard.sandbox",
                    "--rss-mb", str(self.limits.rss_mb),
                    "--cpu-s", str(self.limits.wall_s),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                start_new_session=True,
            )
        except OSError as error:
            raise SandboxError(
                f"could not spawn sandbox child: {error}"
            ) from error
        self.spawns += 1
        return child

    def _ensure_child(self) -> subprocess.Popen:
        if self._child is None or self._child.poll() is not None:
            self._child = self._spawn()
        return self._child

    def _kill_child(self) -> None:
        child = self._child
        self._child = None
        if child is None:
            return
        try:
            child.kill()
            child.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
            pass
        for stream in (child.stdin, child.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        with self._lock:
            self._kill_child()

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the job path --------------------------------------------------
    def run(
        self,
        op: str,
        *,
        wall_s: "float | None" = None,
        **payload: object,
    ) -> ResourceVerdict:
        """Execute one operation on untrusted input; never raises for
        the input itself."""
        if op not in SANDBOX_OPS:
            raise SandboxError(
                f"unknown sandbox op {op!r}; known: "
                f"{', '.join(SANDBOX_OPS)}"
            )
        budget = self.limits.wall_s if wall_s is None else wall_s
        if budget <= 0:
            raise SandboxError(f"wall_s must be > 0, got {budget}")
        job = {"op": op, **payload}
        try:
            blob = json.dumps(job).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise SandboxError(
                f"job payload is not JSON-serializable: {error}"
            ) from error
        with self._lock:
            self.jobs += 1
            started = time.perf_counter()
            reply = self._exchange(blob, budget)
            wall = time.perf_counter() - started
        return self._verdict(op, reply, wall)

    def _exchange(self, blob: bytes, budget: float) -> "dict | str":
        """One write/read round-trip; returns the parsed verdict
        payload or a parent-side verdict kind string."""
        child = self._ensure_child()
        try:
            child.stdin.write(blob + b"\n")
            child.stdin.flush()
        except (OSError, ValueError):
            # the previous job may have left a corpse; one respawn
            self._kill_child()
            child = self._ensure_child()
            try:
                child.stdin.write(blob + b"\n")
                child.stdin.flush()
            except (OSError, ValueError) as error:
                self._kill_child()
                raise SandboxError(
                    f"sandbox child rejected the job pipe: {error}"
                ) from error
        deadline = time.monotonic() + budget
        buffer = bytearray()
        fd = child.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_child()
                return "timeout"
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                self._kill_child()
                return "timeout"
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return self._classify_death(child)
            buffer.extend(chunk)
            if len(buffer) > self.limits.output_bytes:
                self._kill_child()
                return "oversize"
            if buffer.endswith(b"\n"):
                break
        try:
            payload = json.loads(bytes(buffer))
        except json.JSONDecodeError:
            self._kill_child()
            return "crash"
        if not isinstance(payload, dict):
            self._kill_child()
            return "crash"
        return payload

    def _classify_death(self, child: subprocess.Popen) -> str:
        """Verdict kind for a child that died mid-job."""
        try:
            code = child.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            code = None
        self._kill_child()
        if code is not None and -code in (
            signal.SIGXCPU, signal.SIGKILL,
        ):
            # SIGXCPU is the CPU rlimit backstop; SIGKILL under
            # memory pressure is the kernel refusing the address
            # space before MemoryError could fire
            return "timeout" if -code == signal.SIGXCPU else "oom"
        return "crash"

    def _verdict(
        self, op: str, reply: "dict | str", wall: float
    ) -> ResourceVerdict:
        if isinstance(reply, str):
            detail = {
                "timeout": "wall-clock budget exhausted; child killed",
                "oversize": "verdict payload exceeded the output cap",
                "crash": "sandbox child died mid-job",
                "oom": "child killed under memory pressure",
            }[reply]
            return ResourceVerdict(
                kind=reply, op=op, detail=detail, wall_s=wall
            )
        kind = reply.get("kind", "crash")
        if kind not in VERDICT_KINDS:
            kind = "crash"
        return ResourceVerdict(
            kind=kind,
            op=op,
            detail=str(reply.get("detail", ""))[:_DETAIL_CAP],
            error_type=str(reply.get("error_type", "")),
            wall_s=wall,
            result=(
                reply.get("result")
                if isinstance(reply.get("result"), dict)
                else None
            ),
        )


def run_sandboxed(
    op: str,
    limits: "SandboxLimits | None" = None,
    **payload: object,
) -> ResourceVerdict:
    """One-shot sandbox run: spawn, execute, tear down."""
    with Sandbox(limits) as sandbox:
        return sandbox.run(op, **payload)


if __name__ == "__main__":  # pragma: no cover - child entry point
    sys.exit(_child_main(sys.argv[1:]))
