import loadgen


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_window_is_never_exceeded_and_every_datagram_is_sent_once():
    """A fake counter that acknowledges 3 datagrams per poll."""
    datagrams = [bytes([i]) for i in range(20)]
    cumulative = [2 * (i + 1) for i in range(20)]  # two flows each
    clock = FakeClock()
    sent = []
    processed = 0
    worst_in_flight = 0

    def send(datagram):
        nonlocal worst_in_flight
        sent.append(datagram)
        worst_in_flight = max(worst_in_flight, len(sent) - processed)

    def read_flows():
        nonlocal processed
        processed = min(len(sent), processed + 3)
        return 2 * processed

    out = loadgen.send_windowed(send, datagrams, cumulative, 5, read_flows, stall_s=1.0,
                                poll_interval=0.02, clock=clock, sleep=clock.sleep)
    assert sent == datagrams
    assert worst_in_flight <= 5
    assert out["flows"] == 40
    assert out["stalls"] >= 3


def test_partly_processed_datagram_is_not_acknowledged():
    """Flows 0..4 processed covers datagram 0 (3 flows) but not 1 (3 more)."""
    datagrams = [b"a", b"b", b"c"]
    cumulative = [3, 6, 9]
    clock = FakeClock()
    sent = []
    reads = iter([4, 4, 6, 9, 9, 9])
    loadgen.send_windowed(sent.append, datagrams, cumulative, 1, lambda: next(reads),
                          stall_s=1.0, poll_interval=0.02, clock=clock, sleep=clock.sleep)
    assert sent == datagrams


def test_lost_datagram_gives_up_instead_of_hanging():
    clock = FakeClock()
    sent = []
    out = loadgen.send_windowed(sent.append, [b"a", b"b", b"c"], [1, 2, 3], 1, lambda: 0,
                                stall_s=0.5, poll_interval=0.02, clock=clock, sleep=clock.sleep)
    assert sent == [b"a"]
    assert out["flows"] == 0
    assert clock.now < 2.0


def test_send_window_leaves_room_for_kernel_overhead():
    datagrams = [b"x" * 100, b"x" * 750]
    assert loadgen.send_window(8 << 20, datagrams) == (8 << 20) // 4 // 750
    assert loadgen.send_window(100, datagrams) == 1


def test_wait_for_count_reports_when_the_final_count_first_showed():
    clock = FakeClock()
    reads = iter([0, 5, 5, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9])
    count, when = loadgen.wait_for_count(lambda: next(reads), 100, quiet_s=0.1,
                                         poll_interval=0.02, clock=clock, sleep=clock.sleep)
    assert count == 9
    assert when == 0.06  # third poll after the first read
    reached = iter([0, 7, 10])
    count, when = loadgen.wait_for_count(lambda: next(reached), 10, quiet_s=5.0,
                                         poll_interval=0.02, clock=clock, sleep=clock.sleep)
    assert count == 10


def test_open_loop_times_from_when_each_datagram_was_due():
    """The sender stalls 30 ms on datagram 2: it and its successors run
    late against the fixed schedule; nothing is skipped or rescheduled."""
    clock = FakeClock()
    sent = []

    def send(datagram):
        sent.append(datagram)
        clock.now += 0.030 if datagram == b"2" else 0.0001

    datagrams = [str(i).encode() for i in range(6)]
    due, sent_at = loadgen.open_loop(send, datagrams, rate=100.0, clock=clock, sleep=clock.sleep)
    assert sent == datagrams
    assert [round(d - due[0], 6) for d in due] == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    late = loadgen.lateness_ms(due, sent_at)
    assert late["max"] >= 20.0          # datagram 3 was due at 30 ms, left after 50 ms
    assert late["p50"] < late["max"]
    assert all(s >= d for d, s in zip(due, sent_at))
