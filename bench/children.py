"""The system under test, run as a separate process through its public CLI.

``flowdns replay`` and ``flowdns serve`` children are spawned with a fixed
``PYTHONHASHSEED`` and waited for with ``os.wait4`` (wall, user+sys CPU of
the process tree); their peak memory is the ``VmHWM`` they print on the way
out (``flowdns_child.py`` says why not ``ru_maxrss``). What they leave
behind — the TSV rows and the summary lines on stderr — is parsed back for
verification.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.writer import parse_result_line

from spec import CHILD_HASH_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FLOWDNS = os.path.join(HERE, "flowdns_child.py")

#: A child that has not exited after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0

_REPLAY_SUMMARY = re.compile(
    r"([\d,]+)/([\d,]+) flows correlated .*?([\d,]+) dns records"
)
_SERVE_DNS = re.compile(r"dns records ingested : ([\d,]+)")
_SERVE_FLOWS = re.compile(r"flows correlated +: ([\d,]+)/([\d,]+)")
_SERVE_SOURCE = re.compile(
    r"^ +(tcp-dns|udp)\[[^\]]*\]: received=([\d,]+) dropped=([\d,]+) malformed=([\d,]+)",
    re.MULTILINE,
)
_PEAK_RSS = re.compile(r"^bench-child: peak_rss_kb=(\d+)$", re.MULTILINE)
_SERVE_ADDRESS = re.compile(r"^(NetFlow/IPFIX \(UDP\)|DNS over TCP +|metrics \(HTTP\) +): \S+:(\d+)$")


def _number(text: str) -> int:
    return int(text.replace(",", ""))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


class ChildFailed(Exception):
    """The child never got as far as taking load."""


class Exit(NamedTuple):
    """How a child ended and what it cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def _reap(proc: subprocess.Popen, started: float, stderr_path: str, timeout: float) -> Exit:
    """Wait for ``proc`` with ``os.wait4``; past ``timeout`` it is killed."""

    def on_alarm(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    # Tell Popen the child is reaped, so it neither waits nor warns.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    peak = _PEAK_RSS.search(stderr)
    return Exit(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime,
        int(peak.group(1)) / 1024.0 if peak else 0.0, stderr,
    )


def _spawn(args: List[str], stderr_path: str) -> subprocess.Popen:
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        return subprocess.Popen(
            [sys.executable, FLOWDNS, *args],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )


def run_replay(capture: str, rows_path: str, engine: str, stderr_path: str) -> Exit:
    """``flowdns replay CAPTURE --engine ENGINE --output ROWS``, spawn to exit."""
    started = time.perf_counter()
    proc = _spawn(
        ["replay", capture, "--engine", engine, "--output", rows_path], stderr_path
    )
    return _reap(proc, started, stderr_path, CHILD_TIMEOUT_S)


class Serve:
    """One ``flowdns serve`` child on ephemeral ports, up once constructed."""

    def __init__(self, rows_path: str, stderr_path: str, ready_timeout: float = 30.0):
        self._stderr_path = stderr_path
        self.started = time.perf_counter()
        self.proc = _spawn(
            ["serve", "--flow-port", "0", "--dns-port", "0", "--metrics-port", "0",
             "--output", rows_path],
            stderr_path,
        )
        ports: Dict[str, int] = {}
        while True:
            with open(stderr_path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            for line in lines:
                found = _SERVE_ADDRESS.match(line)
                if found:
                    ports[found.group(1).split()[0]] = int(found.group(2))
            if any(line.startswith("serving") for line in lines):
                break
            if self.proc.poll() is not None or time.perf_counter() - self.started > ready_timeout:
                self.proc.kill()
                self.proc.wait()
                raise ChildFailed("flowdns serve did not come up: " + " | ".join(lines[-3:]))
            time.sleep(0.005)
        self.flow_port = ports["NetFlow/IPFIX"]
        self.dns_port = ports["DNS"]
        self.metrics_port = ports["metrics"]
        self.ready_s = time.perf_counter() - self.started

    def stop(self) -> Exit:
        """SIGTERM (graceful drain), then wait for the exit and its summary.

        ``os.kill``, not ``Popen.send_signal``: that one polls first and
        reaps a child that died mid-run, leaving ``wait4`` nothing to
        account for. A dead, unreaped child takes the signal silently and
        ``wait4`` returns how it ended.
        """
        os.kill(self.proc.pid, signal.SIGTERM)
        return _reap(self.proc, self.started, self._stderr_path, CHILD_TIMEOUT_S)


def check_rows(path: str) -> Tuple[int, int]:
    """Parse every row with the repo's own parser; ``(rows, matched rows)``.

    Raises ``ValueError`` on a row that does not parse.
    """
    rows = matched = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parsed = parse_result_line(line)
            if parsed is None:
                continue
            rows += 1
            if parsed["service"] is not None:
                matched += 1
    return rows, matched


def replay_summary(stderr: str) -> Optional[Dict[str, int]]:
    """``matched``, ``flows`` and ``dns_records`` off the replay summary line."""
    found = _REPLAY_SUMMARY.search(stderr)
    if not found:
        return None
    matched, flows, dns_records = (_number(g) for g in found.groups())
    return {"matched": matched, "flows": flows, "dns_records": dns_records}


def serve_summary(stderr: str) -> Optional[Dict[str, int]]:
    """The serve exit summary: lane totals and per-source ingest counters
    (``tcp_received``, ``udp_dropped``, ...)."""
    dns = _SERVE_DNS.search(stderr)
    flows = _SERVE_FLOWS.search(stderr)
    if not dns or not flows:
        return None
    out = {
        "dns_records": _number(dns.group(1)),
        "matched": _number(flows.group(1)),
        "flows": _number(flows.group(2)),
    }
    for kind, received, dropped, malformed in _SERVE_SOURCE.findall(stderr):
        prefix = "tcp" if kind == "tcp-dns" else "udp"
        out[f"{prefix}_received"] = _number(received)
        out[f"{prefix}_dropped"] = _number(dropped)
        out[f"{prefix}_malformed"] = _number(malformed)
    return out


def warnings_in(stderr: str) -> List[str]:
    return [line for line in stderr.splitlines() if line.startswith("warning:")]
