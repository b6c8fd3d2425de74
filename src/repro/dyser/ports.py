"""Input/output port FIFOs with credit-style flow control.

Timing contract (exact for compiler-emitted code, which sends and receives
in invocation order):

- A value sent to a full input FIFO stalls until the invocation that frees
  its slot has fired.  Because sends are emitted in invocation order, that
  freeing invocation's inputs were all sent earlier, so its fire time is
  already known when the stalling send executes.
- Symmetrically, an output slot is freed by the receive of an earlier
  invocation's value, which compiler-emitted code has already executed.

When the freeing event is genuinely unknown (hand-written code violating
the ordering), the FIFO optimistically accepts without a stall rather than
guessing; :class:`~repro.dyser.interface.DyserDevice` counts these cases so
tests can assert they never happen for generated code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import DyserError


@dataclass
class InputPortFifo:
    """One input port's FIFO."""

    port: int
    depth: int = 4
    pending: deque = field(default_factory=deque)   # (value, entry_time)
    total_sent: int = 0
    unresolved_stalls: int = 0

    def send(self, value, t_ready: int, fire_times: list[int]) -> int:
        """Deposit ``value``; return the cycle the send completes."""
        freeing_invocation = self.total_sent - self.depth
        entry = t_ready
        if freeing_invocation >= 0:
            if freeing_invocation < len(fire_times):
                entry = max(t_ready, fire_times[freeing_invocation])
            else:
                self.unresolved_stalls += 1
        self.pending.append((value, entry))
        self.total_sent += 1
        return entry

    def consume(self) -> tuple[int | float, int]:
        if not self.pending:
            raise DyserError(f"input port {self.port}: consume on empty FIFO")
        return self.pending.popleft()

    def reset(self) -> None:
        if self.pending:
            raise DyserError(
                f"input port {self.port}: reconfigure with "
                f"{len(self.pending)} values still pending"
            )
        self.total_sent = 0


@dataclass
class OutputPortFifo:
    """One output port's FIFO."""

    port: int
    depth: int = 4
    ready: deque = field(default_factory=deque)     # (value, ready_time)
    total_produced: int = 0
    total_received: int = 0
    recv_times: list[int] = field(default_factory=list)
    unresolved_stalls: int = 0

    def space_time(self) -> int | None:
        """Earliest cycle the next produced value has a slot.

        Returns None when space exists now (or the freeing receive has not
        happened yet — the optimistic case).
        """
        freeing_recv = self.total_produced - self.depth
        if freeing_recv < 0:
            return None
        if freeing_recv < len(self.recv_times):
            return self.recv_times[freeing_recv]
        self.unresolved_stalls += 1
        return None

    def produce(self, value, ready_time: int) -> None:
        self.ready.append((value, ready_time))
        self.total_produced += 1

    def recv(self, t_try: int) -> tuple[int | float, int]:
        """Pop the oldest value; return (value, completion_time)."""
        if not self.ready:
            raise DyserError(
                f"output port {self.port}: receive with no pending "
                f"invocation (region sent fewer values than it receives?)"
            )
        value, ready_time = self.ready.popleft()
        done = max(t_try, ready_time)
        self.recv_times.append(done)
        self.total_received += 1
        return value, done

    def drained_time(self) -> int:
        """Cycle by which everything produced so far is gone."""
        if self.ready:
            return max(t for _v, t in self.ready)
        return self.recv_times[-1] if self.recv_times else 0

    def reset(self) -> None:
        if self.ready:
            raise DyserError(
                f"output port {self.port}: reconfigure with "
                f"{len(self.ready)} values unread"
            )
        self.total_produced = 0
        self.total_received = 0
        self.recv_times.clear()
