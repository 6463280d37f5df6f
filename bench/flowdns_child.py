"""``flowdns`` plus one line on stderr at exit: its own peak resident memory.

Runs the entry point the ``flowdns`` console script runs
(``repro.cli:main``) and then prints ``VmHWM`` from ``/proc/self/status``.
The parent cannot take a child's memory from ``os.wait4``: on Linux a
child's ``ru_maxrss`` starts from its parent's resident size at fork, so
it reported the bench process (84-111 MiB, growing with every round), not
the child. ``VmHWM`` belongs to the address space ``exec`` created.
"""

import sys

from repro.cli import main

PEAK_LINE = "bench-child: peak_rss_kb="


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    code = main()
    print(f"{PEAK_LINE}{peak_rss_kb()}", file=sys.stderr)
    sys.exit(code)
