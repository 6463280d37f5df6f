"""The load generator for the live workloads: one thread, one TCP
connection, one UDP socket.

Closed loops (the next send waits for the system): DNS over TCP is paced
by TCP flow control, flows over UDP by a send window acknowledged from
``/metrics``. Open loop (``open_loop``): datagrams leave on a fixed
schedule whether or not the system keeps up, and each is timed from when
it was *due*, so a stalled sender shows as lateness, not as a lighter load.
"""

from __future__ import annotations

import bisect
import socket
import statistics
import time
import urllib.request
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.monitor import parse_exposition
from repro.dns.tcp import frame_messages

FLOW_RECORDS = "flowdns_flow_records_total"
DNS_RECORDS = "flowdns_dns_records_total"


def scrape(metrics_port: int) -> Dict[str, float]:
    """One GET of the child's ``/metrics``, parsed to ``{sample: value}``."""
    url = f"http://127.0.0.1:{metrics_port}/metrics"
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return parse_exposition(response.read().decode("utf-8"))


def wait_for_count(
    read_count: Callable[[], float],
    expected: float,
    quiet_s: float,
    poll_interval: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[float, float]:
    """Poll until the counter reaches ``expected``, or has not moved for
    ``quiet_s`` (the system is done with whatever reached it, or stuck).

    Returns ``(count, when)`` with ``when`` the first read that showed the
    final count — the moment the system finished, not the moment the
    quiet period convinced us.
    """
    count = read_count()
    since = clock()
    while count < expected:
        sleep(poll_interval)
        latest = read_count()
        now = clock()
        if latest != count:
            count, since = latest, now
        elif now - since >= quiet_s:
            break
    return count, since


def send_dns_tcp(address: Tuple[str, int], payloads: Sequence[bytes]) -> Tuple[float, float]:
    """Send every message length-framed over one TCP connection.

    ``sendall`` blocks while the receiver's window is full, which is the
    closed loop. Returns ``(first_byte_at, last_byte_at)``.
    """
    stream = memoryview(frame_messages(payloads))
    with socket.create_connection(address, timeout=30.0) as sock:
        started = time.perf_counter()
        for offset in range(0, len(stream), 1 << 16):
            sock.sendall(stream[offset:offset + (1 << 16)])
        return started, time.perf_counter()


def send_window(rcvbuf_bytes: int, datagrams: Sequence[bytes]) -> int:
    """Datagrams that may be unacknowledged at once, so that the kernel
    never has to drop one: a quarter of the achieved ``SO_RCVBUF`` over
    the largest datagram. The kernel charges a datagram the whole buffer
    it sits in (2304 B for a 750 B payload on Linux loopback), so filling
    half the buffer by payload size overruns it."""
    largest = max(len(d) for d in datagrams)
    return max(1, rcvbuf_bytes // 4 // largest)


def send_windowed(
    send: Callable[[bytes], object],
    datagrams: Sequence[bytes],
    cumulative_flows: Sequence[int],
    window: int,
    read_flows: Callable[[], float],
    stall_s: float,
    poll_interval: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, float]:
    """Closed-loop UDP: never more than ``window`` datagrams unacknowledged.

    ``cumulative_flows[i]`` is how many flows datagrams ``0..i`` carry;
    ``read_flows`` returns how many flows the system has processed since
    this call began. A datagram is acknowledged once the processed count
    covers it. Returns ``first_at``, ``sent_at``, ``done_at``, ``flows``
    (the final processed count) and ``stalls`` (polls made while the
    window was full). Gives up once nothing has been acknowledged for
    ``stall_s`` — a datagram was lost, which a closed loop must not do.
    """
    total = len(datagrams)
    sent = acked = stalls = 0
    first_at = progress_at = clock()
    while sent < total and clock() - progress_at < stall_s:
        limit = min(total, acked + window)
        while sent < limit:
            send(datagrams[sent])
            sent += 1
        if sent < total:
            stalls += 1
            now_acked = bisect.bisect_right(cumulative_flows, read_flows())
            if now_acked > acked:
                acked, progress_at = now_acked, clock()
            else:
                sleep(poll_interval)
    sent_at = clock()
    flows, done_at = wait_for_count(
        read_flows, cumulative_flows[-1], stall_s, poll_interval, clock, sleep
    )
    return {"first_at": first_at, "sent_at": sent_at, "done_at": done_at,
            "flows": flows, "stalls": stalls}


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> Dict[str, float]:
    """How late the open-loop sender ran: per-datagram ``sent - due`` in ms
    (never negative: the sender does not send early), as median, p99 and max."""
    late = sorted(max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent))
    return {
        "p50": statistics.median(late),
        "p99": late[min(len(late) - 1, int(len(late) * 0.99))],
        "max": late[-1],
    }


def open_loop(
    send: Callable[[bytes], object],
    datagrams: Sequence[bytes],
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[List[float], List[float]]:
    """Send datagram ``i`` at ``start + i / rate``, or as soon after as the
    sender can. Never skips and never slows for the receiver. Returns the
    ``(due, sent)`` times."""
    start = clock()
    due = [start + i / rate for i in range(len(datagrams))]
    sent: List[float] = []
    for when, datagram in zip(due, datagrams):
        ahead = when - clock()
        if ahead > 0:
            sleep(ahead)
        send(datagram)
        sent.append(clock())
    return due, sent
