"""Host-speed reference for the benchmark's timings.

The benchmark runs on a share of a host whose other tenants change how
fast its cores execute: on a 2-vCPU KVM guest a fixed pure-Python loop
ran at one speed, then at half that speed for seconds to minutes at a
time, with no steal time reported, and a cold-scan read slowed with it
(36 ms per read on a quiet host, 65-75 ms on a busy one).  Medians
within a run cannot remove a slow-down that lasts the whole run.

So the benchmark times a fixed reference computation, the *probe*,
between the program's operations (outside every timed interval) and
expresses each timing at the probe's reference speed:

    reference-speed time = measured time * REFERENCE_MS / probe time

where the probe time is the median of the probes taken while that
stretch of work ran.  The probe is this file's own code and never
changes with the program, so a faster program still reads faster.  It
mixes three kinds of work the program's operations do: interpreter
work (tokenise, encode, hash and join small strings, as the navigator,
evaluator and serializer do), bulk byte copies (as the store, the
ciphers and the frame handling do) and small messages through a local
socket pair (as the remote session does); its time is the geometric
mean of the three part times.
"""

from __future__ import annotations

import hashlib
import math
import re
import socket
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Scale of the reference-speed figures: about the probe's time, run
#: between operations, on an uncontended 2-vCPU KVM guest (Xeon,
#: Sapphire Rapids), so figures read roughly as milliseconds there.
REFERENCE_MS = 0.2
#: A probe runs once this many seconds of timed work have passed since
#: the previous one.
PROBE_EVERY_S = 0.02

_TOKEN = re.compile(r"<(/?)(\w+)>|([^<]+)")
_TEXT = "<Folder><Admin><Lname>abc</Lname><Age>42</Age></Admin>" * 20
_BUFFER = bytes(range(256)) * 1024


def _interpreter_part() -> str:
    digest = hashlib.sha256()
    pieces = []
    for match in _TOKEN.finditer(_TEXT):
        piece = (match.group(2) or match.group(3)).encode()
        digest.update(piece)
        pieces.append(piece)
    return "".join(piece.decode() for piece in pieces)


def _memory_part() -> bytes:
    reversed_copy = _BUFFER[::-1]
    joined = b"".join(
        [_BUFFER[offset:offset + 4096] for offset in range(0, len(_BUFFER), 4096)]
    )
    return reversed_copy[:1] + joined[:1]


def _kernel_part() -> None:
    left, right = socket.socketpair()
    with left, right:
        for _ in range(16):
            left.sendall(_BUFFER[:2048])
            right.recv(4096)


def probe() -> float:
    """Seconds the reference computation takes now (geometric mean of
    its parts)."""
    times = []
    for part in (_interpreter_part, _memory_part, _kernel_part):
        started = perf_counter()
        part()
        times.append(perf_counter() - started)
    return math.prod(times) ** (1.0 / len(times))


class SpeedTrack:
    """Probes taken along a stretch of timed work.

    ``add(elapsed)`` is called after each timed interval; once
    PROBE_EVERY_S of timed work has passed since the last probe, it
    runs one.  Positions are in seconds of timed work, so the probes
    can be matched to the work that ran around them.
    """

    def __init__(self):
        self.busy = 0.0
        self.positions = []
        self.seconds = []
        self._next = 0.0

    def add(self, elapsed: float) -> None:
        self.busy += elapsed
        if self.busy >= self._next:
            self.positions.append(self.busy)
            self.seconds.append(probe())
            self._next = self.busy + PROBE_EVERY_S

    def scale(self, start: float = 0.0, end: float = math.inf) -> float:
        """REFERENCE_MS over the median probe time of the work between
        ``start`` and ``end``: multiply a time measured there by this.
        With no probe in that span, the nearest one stands in."""
        low = bisect_left(self.positions, start)
        high = bisect_right(self.positions, end)
        if high > low:
            seconds = statistics.median(self.seconds[low:high])
        elif self.seconds:
            seconds = self.seconds[min(low, len(self.seconds) - 1)]
        else:
            seconds = probe()
        return REFERENCE_MS / 1e3 / seconds
