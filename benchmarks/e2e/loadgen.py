"""Closed-loop TCP load generator: server lifecycle, client, epochs.

One client connection replays seeded feedback dialogues against a real
``repro-cbir serve`` child process over its JSON-lines socket, sending
its next request only when the previous reply has been parsed (closed
loop, zero think time).  Generator and server are pinned to one CPU
(:func:`pin_to_one_cpu`): they alternate, so that CPU never idles
mid-request, and no request waits for the hypervisor to wake a halted
one — the delay that, on a loaded host, swamps everything else.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import (
    calm_epochs,
    median_over_epochs,
    percentile,
    tail_percentile,
)
from workloads import (
    INDEX_SEED,
    MARKS_PER_ROUND,
    ROUNDS,
    SCREENS,
    Dialogue,
    Workload,
)

READY_TIMEOUT_S = 60.0
#: Every n-th dialogue keeps its finalize response for verification.
VERIFY_EVERY = 10
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
#: Tail percentile of an epoch's feedback rounds: the highest that
#: keeps >= 10 samples beyond it in every epoch of every workload (an
#: epoch has >= 50 dialogues of three rounds each).
FEEDBACK_TAIL = 90.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and measured)."""


# ----------------------------------------------------------------------
# the CPU the benchmark runs on
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to one CPU; returns it.

    The highest-numbered allowed CPU: CPU 0 takes most interrupts.
    Where the affinity may not be set the run goes on unpinned (and
    noisier); steal time is then read for that same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass
    return cpu


def steal_seconds(cpu: int) -> float:
    """Time the hypervisor has kept ``cpu`` from this guest, so far.

    0.0 where the kernel reports none (then every epoch counts as calm).
    """
    try:
        for line in Path("/proc/stat").read_text().splitlines():
            fields = line.split()
            if fields[0] == f"cpu{cpu}" and len(fields) > 8:
                return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# server child process
# ----------------------------------------------------------------------
def probe_free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro-cbir serve`` child; killed on every exit path."""

    def __init__(
        self, workload: Workload, db_path: Path, workdir: Path
    ) -> None:
        self.workload = workload
        self.db_path = db_path
        self.workdir = workdir
        self.port = 0
        #: Of the latest start: wall time from the spawn to the first
        #: ``ok`` reply, and the user-mode CPU time the child had used
        #: by then.
        self.setup_wall_s = 0.0
        self.setup_user_s = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._log = workdir / "server.log"

    def _argv(self) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--db", str(self.db_path),
            "--port", str(self.port),
            "--seed", str(INDEX_SEED),
            "--store", "inmem",
            *self.workload.server_flags,
        ]
        if self.workload.session_store == "sqlite":
            argv += ["--session-path", str(self.workdir / "sessions.db")]
        return argv

    def _spawn(self) -> None:
        # The CLI prints the requested port, not the bound one, so the
        # port is chosen here rather than left to the OS.
        self.port = probe_free_port()
        for stale in self.workdir.glob("sessions.db*"):
            stale.unlink()  # every start is a cold start
        env = dict(os.environ)  # carries run.py's BLAS thread pins
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{SRC_DIR}{os.pathsep}{inherited}" if inherited else str(SRC_DIR)
        )
        with open(self._log, "wb") as log:
            self._proc = subprocess.Popen(
                self._argv(),
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=self.workdir,
            )

    def _await_ready(self, t0: float) -> bool:
        """Poll until the first ``ok`` reply to ``open``.

        Returns False when the child exited first; raises with the
        child's captured output when it is still not serving after
        :data:`READY_TIMEOUT_S`.
        """
        assert self._proc is not None
        while time.perf_counter() - t0 < READY_TIMEOUT_S:
            if self._proc.poll() is not None:
                return False
            try:
                with Client(self.port) as client:
                    reply, _ = client.call({"op": "open", "seed": 0})
                    if reply.get("status") == "ok":
                        self.setup_wall_s = time.perf_counter() - t0
                        self.setup_user_s = self.user_cpu_seconds()
                        client.call(
                            {"op": "abandon", "session_id": reply["value"]}
                        )
                        return True
            except (OSError, BenchmarkError):
                pass  # not listening yet, or reset while starting up
            time.sleep(0.005)
        raise BenchmarkError(
            f"server not ready after {READY_TIMEOUT_S:.0f}s:\n"
            + self.captured_output()
        )

    def start(self) -> float:
        """Spawn and wait for readiness; returns ``setup_user_s``.

        Set-up runs from the spawn to the first ``ok`` reply.  A
        child that exits before serving most likely lost the probed
        port to someone else in between, so it gets one retry on a
        fresh port.
        """
        for attempt in (1, 2):
            t0 = time.perf_counter()
            self._spawn()
            try:
                ready = self._await_ready(t0)
            except BaseException:
                self.stop()
                raise
            if ready:
                return self.setup_user_s
            output = self.captured_output()
            self.stop()
        raise BenchmarkError(
            f"server exited before becoming ready ({attempt} attempts):\n"
            + output
        )

    def captured_output(self) -> str:
        try:
            return self._log.read_text(errors="replace")[-4000:]
        except OSError:
            return "(no server output captured)"

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time of the child, all threads.

        Read from the child's process CPU-time clock (the clock id
        ``clock_getcpuclockid`` returns): what ``/proc/<pid>/stat``
        counts in 10 ms ticks, to the nanosecond.
        """
        return time.clock_gettime_ns(((~self.pid) << 3) | 2) / 1e9

    def user_cpu_seconds(self) -> float:
        """utime of the child, all threads, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        ticks = int(stat.rsplit(")", 1)[1].split()[11])  # field 14
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class Client:
    """One JSON-lines connection; ``call`` is a timed round trip."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        #: Response parser (the traced run swaps in a timed one).
        self.loads: Callable[[bytes], Dict[str, Any]] = json.loads
        #: perf_counter when the latest request was written.
        self.sent_at = 0.0

    def call(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """Send one request; returns ``(reply, round-trip seconds)``.

        The round trip runs from the request write to the full response
        line parsed — what a caller of the service waits for.
        """
        line = (json.dumps(payload) + "\n").encode()
        self.sent_at = time.perf_counter()
        self.sock.sendall(line)
        raw = self.rfile.readline()
        if not raw:
            raise BenchmarkError("server closed the connection")
        reply = self.loads(raw)
        return reply, time.perf_counter() - self.sent_at

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class DialogueRecord:
    """What one replayed dialogue observed."""

    index: int
    ops: int = 0
    failed: int = 0
    #: ``finalized``, ``abandoned`` or ``failed``.
    outcome: str = "failed"
    feedback_s: List[float] = field(default_factory=list)
    finalize_s: float = 0.0
    total_s: float = 0.0
    #: perf_counter when the finalize request was written.
    finalize_sent: float = 0.0
    #: Finalize response value (kept for every ``VERIFY_EVERY``-th
    #: dialogue, or for all when ``keep_ids`` asks for the id list).
    value: Optional[Dict[str, Any]] = None
    result_ids: Optional[List[int]] = None


@dataclass
class WriteRecord:
    kind: str
    image_id: Optional[int]
    status: str
    seconds: float
    #: perf_counter when the acknowledgement was parsed.
    acked: float


Call = Callable[[Dict[str, Any]], Tuple[Dict[str, Any], float]]


def choose_marks(
    shown: Sequence[int], labels: np.ndarray, category: int
) -> List[int]:
    """The scripted user: first six shown images of the target category.

    Ids past the label table are images the write stream inserted;
    they carry no label and are never marked.
    """
    n_labelled = labels.shape[0]
    return [
        i for i in shown if i < n_labelled and labels[i] == category
    ][:MARKS_PER_ROUND]


def replay_dialogue(
    call: Call,
    dialogue: Dialogue,
    labels: np.ndarray,
    *,
    keep_ids: bool = False,
) -> DialogueRecord:
    """``open`` → 3 × [``display`` → ``submit``] → ``finalize``.

    Marks are the shown ids labelled with the dialogue's target
    category (first six); a dialogue in which nothing was ever marked
    ends with ``abandon``.  Any non-``ok`` reply ends the dialogue as
    failed: it then misses every latency metric.
    """
    record = DialogueRecord(index=dialogue.index)

    def request(payload: Dict[str, Any]) -> Tuple[Optional[Any], float]:
        reply, seconds = call(payload)
        record.ops += 1
        record.total_s += seconds
        if reply.get("status") != "ok":
            record.failed += 1
            return None, seconds
        return reply["value"], seconds

    sid, _ = request({"op": "open", "seed": dialogue.session_seed})
    if sid is None:
        return record
    marked_any = False
    for _ in range(ROUNDS):
        shown, t_display = request(
            {"op": "display", "session_id": sid, "screens": SCREENS}
        )
        if shown is None:
            return record
        marks = choose_marks(shown, labels, dialogue.category)
        marked_any = marked_any or bool(marks)
        branches, t_submit = request(
            {"op": "submit", "session_id": sid, "relevant_ids": marks}
        )
        if branches is None:
            return record
        record.feedback_s.append(t_display + t_submit)
    if not marked_any:
        done, _ = request({"op": "abandon", "session_id": sid})
        if done is not None:
            record.outcome = "abandoned"
        return record
    record.finalize_sent = time.perf_counter()
    value, record.finalize_s = request(
        {"op": "finalize", "session_id": sid, "k": dialogue.k}
    )
    if value is None:
        return record
    record.outcome = "finalized"
    if dialogue.index % VERIFY_EVERY == 0:
        record.value = value
    if keep_ids:
        record.result_ids = [
            item[0] for group in value["groups"] for item in group["items"]
        ]
    return record


class Writer:
    """The write stream; resolves remove targets at replay time."""

    def __init__(self) -> None:
        self._inserted: Deque[int] = deque()
        self.records: List[WriteRecord] = []

    def issue(self, call: Call, dialogue: Dialogue) -> None:
        write = dialogue.write
        if write is None:
            return
        image_id: Optional[int] = None
        if write.kind == "insert":
            payload: Dict[str, Any] = {
                "op": "insert", "vector": list(write.vector or ())
            }
        else:
            image_id = (
                self._inserted.popleft()
                if write.kind == "remove_inserted"
                else write.image_id
            )
            payload = {"op": "remove", "image_id": image_id}
        reply, seconds = call(payload)
        status = reply.get("status", "?")
        if write.kind == "insert" and status == "ok":
            image_id = int(reply["value"])
            self._inserted.append(image_id)
        self.records.append(
            WriteRecord(
                write.kind, image_id, status, seconds, time.perf_counter()
            )
        )


# ----------------------------------------------------------------------
# epochs
# ----------------------------------------------------------------------
@dataclass
class Epoch:
    wall_s: float
    server_cpu_s: float
    #: Time the hypervisor kept the benchmark's CPU during the epoch.
    steal_s: float
    #: Server ``VmHWM`` when the epoch ended.
    peak_rss_mb: float
    dialogues: List[DialogueRecord]
    writes: List[WriteRecord]

    @property
    def steal_share(self) -> float:
        return self.steal_s / self.wall_s

    def series(self) -> Dict[str, List[float]]:
        """Latency samples (seconds) of the dialogues that did not fail."""
        done = [d for d in self.dialogues if d.outcome != "failed"]
        final = [d for d in done if d.outcome == "finalized"]
        return {
            "dialogue": [d.total_s for d in final],
            "feedback": [s for d in done for s in d.feedback_s],
            "finalize": [d.finalize_s for d in final],
        }

    def metrics(self) -> Dict[str, float]:
        """This epoch's end-to-end metrics (see README glossary)."""
        done = sum(d.outcome != "failed" for d in self.dialogues)
        out: Dict[str, float] = {}
        if done:
            out["dialogues_per_s"] = done / self.wall_s
            out["server_cpu_ms_per_dialogue"] = (
                1000.0 * self.server_cpu_s / done
            )
        for name, series in self.series().items():
            if series:
                out[f"{name}_p50_ms"] = 1000.0 * percentile(series, 50.0)
        feedback = self.series()["feedback"]
        if feedback:
            out[f"feedback_p{FEEDBACK_TAIL:g}_ms"] = 1000.0 * percentile(
                feedback, FEEDBACK_TAIL
            )
        return out

    def supports_tail(self) -> bool:
        """Enough feedback rounds for :data:`FEEDBACK_TAIL` here."""
        supported = tail_percentile(len(self.series()["feedback"]))
        return (supported or 0.0) >= FEEDBACK_TAIL


class LoadGenerator:
    """One persistent client connection replaying epochs of a plan."""

    def __init__(
        self,
        server: ServerProcess,
        plan: Sequence[Dialogue],
        labels: np.ndarray,
        cpu: int,
        *,
        keep_ids: bool = False,
    ) -> None:
        self.server = server
        self.plan = plan
        self.labels = labels
        self.cpu = cpu
        self.keep_ids = keep_ids
        self.client = Client(server.port)
        self.writer = Writer()
        self.cursor = 0

    def close(self) -> None:
        self.client.close()

    def run_epoch(self, n_dialogues: int) -> Epoch:
        """Replay the next ``n_dialogues`` of the plan, writes included."""
        batch = self.plan[self.cursor : self.cursor + n_dialogues]
        if len(batch) < n_dialogues:
            raise BenchmarkError("dialogue plan exhausted")
        self.cursor += n_dialogues
        call = self.client.call
        records: List[DialogueRecord] = []
        first_write = len(self.writer.records)
        # The generator's own garbage is collected between epochs, so
        # that no request waits on this process's collector.
        gc.collect()
        gc.disable()
        try:
            steal0 = steal_seconds(self.cpu)
            cpu0 = self.server.cpu_seconds()
            start = time.perf_counter()
            for dialogue in batch:
                records.append(
                    replay_dialogue(
                        call, dialogue, self.labels, keep_ids=self.keep_ids
                    )
                )
                self.writer.issue(call, dialogue)
            wall = time.perf_counter() - start
            cpu = self.server.cpu_seconds() - cpu0
            steal = steal_seconds(self.cpu) - steal0
        finally:
            gc.enable()
        return Epoch(
            wall, cpu, steal, self.server.peak_rss_mb(), records,
            self.writer.records[first_write:],
        )


def summarize(epochs: Sequence[Epoch]) -> Dict[str, float]:
    """Run-level metrics: the median of each epoch metric over the
    epochs :func:`stats.calm_epochs` picks."""
    calm = calm_epochs([epoch.steal_share for epoch in epochs])
    return median_over_epochs([epochs[i].metrics() for i in calm])
