"""A child that dies fails every record of its pass; the bench carries on."""

import os
import socket
from types import SimpleNamespace

import children
import measure
import spec


def _unused_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


REFERENCE = {"fillup.records_stored": 1, "matched": 4, "writer.rows": 4}


def _set_up():
    report = SimpleNamespace(flows=4, dns_frames=1)
    return measure.SetUp("missing.fdc", report, [b"dns"], [b"flows"], [4])


def test_serve_child_that_dies_under_load_fails_every_record(tmp_path, monkeypatch):
    """The announced ports answer nothing and the child is already gone
    when it is stopped: no traceback, one failed pass."""
    port = _unused_port()
    fake = tmp_path / "dies_after_banner.py"
    fake.write_text(
        "import sys\n"
        f"print('NetFlow/IPFIX (UDP): 127.0.0.1:{port}', file=sys.stderr)\n"
        f"print('DNS over TCP       : 127.0.0.1:{port}', file=sys.stderr)\n"
        f"print('metrics (HTTP)     : 127.0.0.1:{port}', file=sys.stderr)\n"
        "print('serving until Ctrl-C ...', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    monkeypatch.setattr(children, "FLOWDNS", str(fake))
    real_stop = children.Serve.stop

    def stop_once_dead(serve):
        os.waitid(os.P_PID, serve.proc.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        return real_stop(serve)

    monkeypatch.setattr(children.Serve, "stop", stop_once_dead)
    rep = measure.live_rep(
        spec.WORKLOAD_BY_NAME["live_flow_udp"], _set_up(), REFERENCE, str(tmp_path)
    )
    assert rep.attempted == 5 and rep.failed == 5
    assert "stopped answering mid-run" in rep.violations[0]
    assert "child exited with 3" in rep.violations
    assert measure.rep_metrics(rep)["records_per_s"] == 0.0


def test_children_that_never_start_fail_every_record(tmp_path, monkeypatch):
    fake = tmp_path / "exits_at_once.py"
    fake.write_text("import sys\nsys.exit(2)\n")
    monkeypatch.setattr(children, "FLOWDNS", str(fake))
    live = measure.live_rep(
        spec.WORKLOAD_BY_NAME["live_dns_tcp"], _set_up(), REFERENCE, str(tmp_path)
    )
    assert live.failed == live.attempted == 5
    assert "did not come up" in live.violations[0]
    replay = measure.replay_rep(
        spec.WORKLOAD_BY_NAME["cdn_mix"], _set_up(), REFERENCE, str(tmp_path)
    )
    assert replay.failed == replay.attempted == 5
    assert "child exited with 2" in replay.violations
