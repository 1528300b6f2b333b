"""A minimal discrete-event simulation kernel.

The GPU model (Fig. 12) needs genuine concurrency semantics — CUDA
streams whose kernels overlap, DMA engines that serialize copies, and a
PCIe interconnect whose bandwidth is processor-shared among concurrent
transfers.  This module provides a small generator-based DES in the
style of SimPy:

* processes are generators that ``yield`` commands;
* :class:`Resource` is a counted FIFO resource (``Acquire``/``Release``);
* :class:`SharedBandwidth` models a link whose active transfers each
  progress at ``capacity / n_active`` — the equal-share model of PCIe
  contention the paper describes in §5.3.

The serving stack additionally needs *failure* semantics:

* ``Acquire(resource, timeout=...)`` is deadline-aware — the process
  resumes with ``True`` when granted, or ``False`` if the timeout
  expires while it is still queued (it is then removed from the wait
  queue without consuming a unit);
* :meth:`Simulator.cancel` throws :class:`Cancelled` into a process at
  its suspension point.  The generator may catch it, yield cleanup
  commands (typically ``Release``) and finish normally — the SimPy
  interrupt idiom.  Every scheduled wakeup is epoch-guarded, so stale
  timers left behind by a cancellation can never double-step a
  process.

Example::

    sim = Simulator()
    link = SharedBandwidth(sim, capacity=12e9)

    def worker(nbytes):
        yield Transfer(link, nbytes)

    sim.spawn(worker(1e9))
    sim.spawn(worker(1e9))
    sim.run()           # both finish at t = 2/12 s (shared bandwidth)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Generator, Optional

__all__ = [
    "Simulator",
    "WaitFor",
    "Process",
    "Resource",
    "SharedBandwidth",
    "Timeout",
    "Acquire",
    "Release",
    "Transfer",
    "Cancelled",
]


class Cancelled(Exception):
    """Thrown into a process's generator by :meth:`Simulator.cancel`.

    The generator may catch it to run cleanup (including yielding
    further commands such as ``Release``) before finishing.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


# --- commands a process may yield ------------------------------------------------


@dataclass(frozen=True)
class Timeout:
    """Suspend the process for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")


@dataclass(frozen=True)
class Acquire:
    """Block until one unit of ``resource`` is granted.

    With a ``timeout`` the wait is deadline-aware: the yield resumes
    with ``True`` on a grant and ``False`` if the timeout expires while
    the process is still queued (the process is removed from the wait
    queue and no unit is consumed).  Without a timeout the resumed
    value is still ``True``, so ``yield Acquire(r)`` callers may simply
    ignore it.
    """

    resource: "Resource"
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be non-negative, got {self.timeout}")


@dataclass(frozen=True)
class Release:
    """Return one unit of ``resource``."""

    resource: "Resource"


@dataclass(frozen=True)
class Transfer:
    """Move ``nbytes`` across a :class:`SharedBandwidth` link."""

    link: "SharedBandwidth"
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {self.nbytes}")


@dataclass(frozen=True)
class WaitFor:
    """Block until another process finishes (a join)."""

    process: "Process"


class Process:
    """A running generator inside the simulator."""

    def __init__(self, sim: "Simulator", generator: Generator, name: str) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.done = False
        self.cancelled = False
        self.finish_time: Optional[float] = None
        self._waiters: list["Process"] = []
        # Wakeup epoch: every actual resume bumps it, so any other
        # pending wakeup for this process (a raced grant, a stale
        # timer, anything scheduled before a cancellation) becomes
        # stale and is dropped by the epoch guard.
        self._epoch = 0
        self._waiting_on: Optional["Resource"] = None
        self._transferring_on: Optional["SharedBandwidth"] = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "done" if self.done else "running"
        )
        return f"Process({self.name}, {state})"


class Simulator:
    """Event loop: schedules callbacks, steps processes."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._active = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        """Register a generator as a process, started at the current time."""
        process = Process(self, generator, name)
        self._active += 1
        self.schedule(0.0, self._wakeup(process, None))
        return process

    def cancel(self, process: Process, reason: str = "cancelled") -> bool:
        """Cancel a process at its current suspension point.

        :class:`Cancelled` is thrown into the generator, which may
        catch it and yield cleanup commands before finishing.  Pending
        wakeups are invalidated and the process is removed from any
        resource wait queue or shared-bandwidth transfer it is part of.

        Returns ``False`` (and does nothing) if the process already
        finished — cancelling a completed process is a harmless no-op.
        """
        if process.done:
            return False
        process.cancelled = True
        process._epoch += 1  # invalidate every pending wakeup
        if process._waiting_on is not None:
            queue = process._waiting_on._waiting
            if process in queue:
                queue.remove(process)
            process._waiting_on = None
        if process._transferring_on is not None:
            process._transferring_on._abort(process)
        try:
            command = process.generator.throw(Cancelled(reason))
        except (StopIteration, Cancelled):
            self._finish(process)
            return True
        # The generator caught the cancellation and yielded a cleanup
        # command: keep stepping it like any live process.
        self._dispatch(process, command)
        return True

    def run(self, until: float | None = None) -> float:
        """Drain the event queue (optionally up to time ``until``).

        Returns the simulation time when the loop stops.
        """
        while self._heap:
            time, _, callback = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            callback()
        return self.now

    # --- process stepping ---------------------------------------------------------

    def _wakeup(self, process: Process, value) -> Callable[[], None]:
        """An epoch-guarded resume callback for ``process``.

        The callback only steps the process if no other resume (or a
        cancellation) happened since it was created — the guard that
        makes cancellation and ``Acquire`` timeouts race-free.
        """
        epoch = process._epoch

        def callback() -> None:
            if process.done or process._epoch != epoch:
                return
            self._step(process, value)

        return callback

    def _finish(self, process: Process) -> None:
        process.done = True
        process.finish_time = self.now
        self._active -= 1
        for waiter in process._waiters:
            self.schedule(0.0, self._wakeup(waiter, None))
        process._waiters.clear()
        process.generator.close()

    def _step(self, process: Process, value) -> None:
        if process.done:
            return
        process._epoch += 1  # this resume invalidates all other wakeups
        try:
            command = process.generator.send(value)
        except StopIteration:
            self._finish(process)
            return
        self._dispatch(process, command)

    def _dispatch(self, process: Process, command) -> None:
        if isinstance(command, Timeout):
            self.schedule(command.delay, self._wakeup(process, None))
        elif isinstance(command, Acquire):
            command.resource._acquire(process, timeout=command.timeout)
        elif isinstance(command, Release):
            command.resource._release()
            self.schedule(0.0, self._wakeup(process, None))
        elif isinstance(command, Transfer):
            command.link._start(process, command.nbytes)
        elif isinstance(command, WaitFor):
            if command.process.done:
                self.schedule(0.0, self._wakeup(process, None))
            else:
                command.process._waiters.append(process)
        else:
            raise TypeError(f"process {process.name} yielded {command!r}")


class Resource:
    """Counted resource with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: list[Process] = []

    @property
    def queue_depth(self) -> int:
        """Processes currently blocked waiting for a unit."""
        return len(self._waiting)

    def _acquire(self, process: Process, timeout: float | None = None) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            self.sim.schedule(0.0, self.sim._wakeup(process, True))
            return
        process._waiting_on = self
        self._waiting.append(process)
        if timeout is not None:
            epoch = process._epoch

            def expire() -> None:
                if process.done or process._epoch != epoch:
                    return  # granted or cancelled in the meantime
                if process._waiting_on is not self:
                    return  # grant already scheduled this timestamp
                self._waiting.remove(process)
                process._waiting_on = None
                self.sim._step(process, False)

            self.sim.schedule(timeout, expire)

    def _release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self.in_use -= 1
        while self._waiting:
            waiter = self._waiting.pop(0)
            if waiter.done:  # defensive: cancellation removes waiters
                continue
            waiter._waiting_on = None
            self.in_use += 1
            self.sim.schedule(0.0, self.sim._wakeup(waiter, True))
            break


@dataclass
class _ActiveTransfer:
    process: Process
    remaining: float
    total: float

    @property
    def finished(self) -> bool:
        # Floating-point residue must not strand a transfer: anything
        # within a relative hair of done is done.
        return self.remaining <= max(1e-6, 1e-9 * self.total)


class SharedBandwidth:
    """A link whose capacity is equally shared by active transfers.

    With ``n`` concurrent transfers each progresses at ``capacity / n``
    bytes/second; completion times are recomputed whenever the active
    set changes.  This is the standard processor-sharing model of a
    PCIe interconnect under contention (§5.3).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        name: str = "link",
        per_transfer_cap: float | None = None,
    ) -> None:
        """``per_transfer_cap`` bounds any single transfer's rate even
        when the link is otherwise idle (e.g. one GPU's x16 slot cannot
        exceed its own link speed no matter how idle the root complex
        is)."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if per_transfer_cap is not None and per_transfer_cap <= 0:
            raise ValueError("per_transfer_cap must be positive")
        self.sim = sim
        self.capacity = capacity
        self.per_transfer_cap = per_transfer_cap
        self.name = name
        self.bytes_moved = 0.0
        self._active: list[_ActiveTransfer] = []
        self._last_update = 0.0
        self._wakeup_seq = 0

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    def _rate(self) -> float:
        if not self._active:
            return 0.0
        share = self.capacity / len(self._active)
        if self.per_transfer_cap is not None:
            share = min(share, self.per_transfer_cap)
        return share

    def _advance(self) -> None:
        """Progress all active transfers up to the current time."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._active:
            rate = self._rate()
            for transfer in self._active:
                moved = min(transfer.remaining, rate * elapsed)
                transfer.remaining -= moved
                self.bytes_moved += moved
        self._last_update = self.sim.now

    def _start(self, process: Process, nbytes: float) -> None:
        self._advance()
        if nbytes <= 0:
            self.sim.schedule(0.0, self.sim._wakeup(process, None))
            return
        process._transferring_on = self
        self._active.append(_ActiveTransfer(process, float(nbytes), float(nbytes)))
        self._reschedule()

    def _abort(self, process: Process) -> None:
        """Drop a cancelled process's in-flight transfer."""
        self._advance()
        self._active = [t for t in self._active if t.process is not process]
        process._transferring_on = None
        self._reschedule()

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest projected completion."""
        if not self._active:
            return
        self._wakeup_seq += 1
        token = self._wakeup_seq
        rate = self._rate()
        soonest = min(t.remaining for t in self._active) / rate
        self.sim.schedule(soonest, lambda: self._complete(token))

    def _complete(self, token: int) -> None:
        if token != self._wakeup_seq:
            return  # stale wakeup: the active set changed since
        self._advance()
        finished = [t for t in self._active if t.finished]
        self._active = [t for t in self._active if not t.finished]
        for transfer in finished:
            transfer.process._transferring_on = None
            self.sim.schedule(0.0, self.sim._wakeup(transfer.process, None))
        self._reschedule()
