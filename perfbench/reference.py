"""A fixed reference workload that tracks how fast the host runs right now.

The host this benchmark runs on is shared: measured on a 2-vCPU VM, the
same simulation took anywhere from 2.8 to 5.6 s within four minutes, so raw
host times of runs made minutes apart differ by more than any bound a
regression gate could hold.  Each repetition therefore interleaves short
chunks of this reference with the simulation and reports host times
scaled by ``NOMINAL_CHUNK_S / mean chunk time``: seconds on a host that
runs one chunk in ``NOMINAL_CHUNK_S``.  Process CPU time is no cure: on
that VM it tracked wall time to within 1% in every run, because the host
slows down the CPU rather than leaving the process waiting for it.

The reference is a small discrete-event loop in pure Python — a heap of
timed messages delivered to objects that count them in dicts and fan out
to peers — so it leans on the interpreter the way the simulator does.  It
shares no code with the program under test, so a change to the program
moves the scaled times by exactly as much as it moves the raw ones.
"""

from __future__ import annotations

import heapq
import time

#: Reference host seconds of one chunk; sets the unit of scaled host times.
NOMINAL_CHUNK_S = 0.01
#: Messages delivered per chunk.
CHUNK_EVENTS = 5000


class _Node:
    __slots__ = ("id", "peers", "box")

    def __init__(self, node_id: int):
        self.id = node_id
        self.peers: tuple[_Node, ...] = ()
        self.box: dict[tuple[int, int], int] = {}

    def deliver(self, heap: list, seq: list, now: float, msg: tuple) -> None:
        origin, hop, ttl = msg
        key = (origin, hop & 63)
        self.box[key] = self.box.get(key, 0) + 1
        if ttl:
            for peer in self.peers:
                seq[0] += 1
                delay = 0.001 * ((self.id * 7 + peer.id + hop) % 5 + 1)
                heapq.heappush(heap, (now + delay, seq[0], peer,
                                      (origin, hop + 1, ttl - 1)))


def chunk() -> float:
    """Run one chunk of the reference; return its host seconds."""
    started = time.perf_counter()
    nodes = [_Node(i) for i in range(8)]
    for node in nodes:
        node.peers = tuple(peer for peer in nodes if peer is not node)[:3]
    heap: list = []
    seq = [0]
    for node in nodes:
        seq[0] += 1
        heapq.heappush(heap, (0.0, seq[0], node, (node.id, 0, 12)))
    for _ in range(CHUNK_EVENTS):
        now, _seq, node, msg = heapq.heappop(heap)
        node.deliver(heap, seq, now, msg)
    return time.perf_counter() - started
