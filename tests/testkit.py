"""Helpers shared by several test modules; not a test module itself.

* :func:`call_with_deadline` is the watchdog the chaos suites wrap every
  engine run in: a hang becomes a :class:`WatchdogTimeout` failure with
  the offending label, not a CI-level timeout;
* :func:`send_datagrams` pushes NetFlow datagrams at a live collector.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Tuple


class WatchdogTimeout(RuntimeError):
    """A watchdogged call exceeded its deadline (a hang, surfaced)."""


def call_with_deadline(fn: Callable, timeout: float, label: str = "call"):
    """Run ``fn()`` under a hard deadline; a hang fails, never blocks CI.

    The call runs in a daemon thread; if it does not finish within
    ``timeout`` seconds, :class:`WatchdogTimeout` is raised and the
    daemon thread is abandoned (it cannot block interpreter exit). An
    exception inside ``fn`` propagates unchanged.
    """
    outcome: dict = {}
    done = threading.Event()

    def body() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            outcome["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=body, daemon=True, name=f"watchdog:{label}")
    worker.start()
    if not done.wait(timeout):
        raise WatchdogTimeout(
            f"{label} still running after {timeout:.1f}s watchdog deadline"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def send_datagrams(datagrams, address: Tuple[str, int]) -> int:
    """Push datagrams at a collector address; returns how many were sent."""
    host, _port = address
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sent = 0
    with socket.socket(family, socket.SOCK_DGRAM) as sock:
        for datagram in datagrams:
            sock.sendto(datagram, address)
            sent += 1
    return sent
