"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timestamped events. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the kernel dispatches them
in nondecreasing time order. Ties are broken by insertion order, which makes
runs fully deterministic for a fixed seed.

Time is integer nanoseconds; see :mod:`repro.sim.timebase`.

Hot-path design
---------------
The heap stores plain ``(time, seq, handle, callback, args)`` tuples rather
than comparable handle objects: tuple comparison happens in C and, because
``seq`` is unique, ordering never falls through to the third element. Three
scheduling flavours share that one queue shape:

* :meth:`Simulator.post` — fire-and-forget.
  No :class:`EventHandle` is allocated (``handle`` is ``None``); the bulk of
  all events (packet deliveries, timestamp callbacks) use this path.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — cancellable.
  The callback lives on the returned :class:`EventHandle` so ``cancel()``
  can drop the references immediately.
* :meth:`Simulator.schedule_periodic` — a first-class repeating timer. One
  handle is reused across every tick; each re-arm pushes only a fresh
  tuple, never a new handle, and consumes exactly one sequence number after
  the callback returns — the same order an equivalent self-rescheduling
  callback would, so dispatch order (and tie-breaking) is bit-compatible.

Cancelled entries stay in the heap until popped (lazy deletion keeps
``cancel`` O(1)), but when more than half of a non-trivial heap is dead the
kernel compacts it in place, so mass cancellation in long holdover or
link-failure runs cannot grow the queue unboundedly.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, List, Optional, Tuple

# Scheduling runs once per event; skip the module-attribute hop per call.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Below this queue length compaction is never attempted; rebuilding tiny
#: heaps costs more than the dead entries they carry.
_COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised on kernel misuse, e.g. scheduling into the past."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    The kernel never removes cancelled entries from the heap eagerly;
    cancellation just marks the handle and the dispatcher skips it. This is
    the standard lazy-deletion trick and keeps ``cancel`` O(1). The handle
    keeps a back-reference to its simulator while queued so cancellation can
    maintain the kernel's live-event counter without a heap scan.

    A handle with nonzero ``interval`` is a repeating timer: after each
    dispatch the kernel re-arms the same handle ``interval`` ns later until
    it is cancelled.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "interval", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
        interval: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False
        self.interval = interval
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once.

        For a periodic handle this stops the timer permanently; re-arming
        requires a new :meth:`Simulator.schedule_periodic` call.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._live -= 1
                self._sim = None
                sim._maybe_compact()
        self.callback = None
        self.args = ()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        kind = f", every={self.interval}" if self.interval else ""
        return f"EventHandle(t={self.time}, seq={self.seq}{kind}, {state})"


class Simulator:
    """Deterministic discrete-event simulator with integer-nanosecond time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1_000, fired.append, "a")
    >>> _ = sim.schedule(500, fired.append, "b")
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    1000
    """

    def __init__(self, start_time: int = 0) -> None:
        self.now: int = start_time
        # Heap of (time, seq, handle | None, callback | None, args | None).
        self._queue: List[tuple] = []
        self._seq: int = 0
        self._dispatched: int = 0
        self._live: int = 0
        self._running = False
        self._stopped = False
        # Observability (attach_metrics): None means fully disabled — the
        # scheduling paths then pay one short-circuited None check each.
        self._metrics = None
        self._queue_hwm: int = 0
        # Fast-forward support: jittered periodic tasks register here so
        # fast_forward() can retime their nominal schedules coherently
        # (weak refs — registration must not pin task lifetimes).
        self._tasks: "weakref.WeakSet" = weakref.WeakSet()
        self.fastforward_spans: int = 0
        self.fastforward_ns: int = 0

    def reset(self, start_time: int = 0) -> None:
        """Return the kernel to a pristine post-construction state.

        Cancels every queued event (so outstanding :class:`EventHandle`
        references become inert) and rewinds time and the counters. Worker
        processes that reuse one :class:`Simulator` across tasks call this
        between runs; the kernel holds no OS resources (no threads, locks,
        or file handles), so a reset instance is also safe to use after a
        ``fork``/``spawn`` into a child process.
        """
        # Detach the queue before cancelling: cancel() may trigger
        # compaction, which must not race the iteration.
        entries = self._queue
        self._queue = []
        for entry in entries:
            handle = entry[2]
            if handle is not None:
                handle.cancel()
        self.now = start_time
        self._seq = 0
        self._dispatched = 0
        self._live = 0
        self._running = False
        self._stopped = False
        self._queue_hwm = 0
        self._tasks = weakref.WeakSet()
        self.fastforward_spans = 0
        self.fastforward_ns = 0

    def register_task(self, task: Any) -> None:
        """Register a periodic task for fast-forward retiming (weakly held).

        Anything exposing ``fast_forward_key(horizon)`` /
        ``fast_forward(horizon)`` (see :class:`repro.sim.process.PeriodicTask`)
        may register; unregistration is automatic on garbage collection.
        """
        self._tasks.add(task)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} ns; current time is {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, sim=self)
        _heappush(self._queue, (time, seq, handle, None, None))
        self._live += 1
        if self._metrics is not None and self._live > self._queue_hwm:
            self._queue_hwm = self._live
        return handle

    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event ``delay`` ns from now.

        Identical dispatch semantics to :meth:`schedule` (same queue, same
        tie-breaking) but returns no handle and allocates no
        :class:`EventHandle` — the low-allocation path for events nobody
        ever cancels, which is most of them.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, seq, None, callback, args))
        self._live += 1
        if self._metrics is not None and self._live > self._queue_hwm:
            self._queue_hwm = self._live

    def schedule_periodic(
        self,
        interval: int,
        callback: Callable[..., None],
        *args: Any,
        start: Optional[int] = None,
    ) -> EventHandle:
        """Run ``callback(*args)`` every ``interval`` ns until cancelled.

        The first dispatch happens at absolute time ``start`` (default: one
        interval from now); each subsequent one exactly ``interval`` ns
        after the previous. The returned handle is reused for every tick —
        re-arming allocates no new handle and pushes only a heap tuple.

        Determinism: the re-arm consumes one sequence number *after* the
        callback returns, exactly where an equivalent self-rescheduling
        callback (``def tick(): work(); sim.schedule(interval, tick)``)
        would consume it, so dispatch order and tie-breaking are identical
        to the hand-rolled pattern this replaces.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        first = self.now + interval if start is None else start
        if first < self.now:
            raise SimulationError(
                f"cannot schedule at {first} ns; current time is {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(first, seq, callback, args, sim=self, interval=interval)
        _heappush(self._queue, (first, seq, handle, None, None))
        self._live += 1
        if self._metrics is not None and self._live > self._queue_hwm:
            self._queue_hwm = self._live
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, entry: tuple) -> None:
        """Fire one live heap entry (caller has already skipped dead ones)."""
        handle = entry[2]
        self.now = entry[0]
        self._live -= 1
        self._dispatched += 1
        if handle is None:
            entry[3](*entry[4])
            return
        callback = handle.callback
        args = handle.args
        interval = handle.interval
        # While the callback runs the event is no longer queued: a cancel()
        # from inside must not double-decrement the live counter.
        handle._sim = None
        if not interval:
            handle.callback = None
            handle.args = ()
            callback(*args)
            return
        callback(*args)
        if not handle.cancelled:
            # Re-arm the same handle; consume the next seq *after* the
            # callback so ties resolve exactly like a self-rescheduling
            # callback's would.
            seq = self._seq
            self._seq = seq + 1
            time = handle.time + interval
            handle.time = time
            handle.seq = seq
            handle._sim = self
            self._live += 1
            _heappush(self._queue, (time, seq, handle, None, None))

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        queue = self._queue
        pop = _heappop
        while queue:
            entry = pop(queue)
            handle = entry[2]
            if handle is not None and handle.cancelled:
                continue
            self._dispatch(entry)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` dispatched).

        Returns the number of events dispatched by this call.
        """
        dispatched = 0
        fast = 0
        self._stopped = False
        queue = self._queue
        pop = _heappop
        dispatch = self._dispatch
        while not self._stopped:
            if max_events is not None and dispatched >= max_events:
                break
            while queue:
                entry = pop(queue)
                handle = entry[2]
                if handle is None:
                    # Fire-and-forget fast path, inlined: most events are
                    # posts and the extra call per event is measurable. The
                    # live/dispatched counters are settled in bulk after the
                    # loop (nothing inside the model reads them mid-run; the
                    # compaction heuristic only sees a conservatively high
                    # live count).
                    self.now = entry[0]
                    fast += 1
                    entry[3](*entry[4])
                elif handle.cancelled:
                    continue
                else:
                    self._live -= fast
                    self._dispatched += fast
                    fast = 0
                    dispatch(entry)
                dispatched += 1
                break
            else:
                break
        self._live -= fast
        self._dispatched += fast
        return dispatched

    def run_until(self, time: int) -> int:
        """Run every event with timestamp ``<= time``; advance now to ``time``.

        Events scheduled beyond ``time`` remain queued. Returns the number of
        events dispatched.
        """
        if time < self.now:
            raise SimulationError(
                f"run_until({time}) is in the past (now={self.now})"
            )
        before = self._dispatched
        fast = 0
        self._stopped = False
        queue = self._queue
        pop = _heappop
        pushback = _heappush
        dispatch = self._dispatch
        while queue and not self._stopped:
            # Pop unconditionally and push the head back at the horizon:
            # one boundary push instead of a peek on every iteration.
            head = pop(queue)
            if head[0] > time:
                pushback(queue, head)
                break
            handle = head[2]
            if handle is None:
                # Fire-and-forget fast path, inlined: most events are posts
                # and the extra call per event is measurable at this volume.
                # The live/dispatched counters are settled in bulk after the
                # loop (nothing inside the model reads them mid-run; the
                # compaction heuristic only sees a conservatively high live
                # count).
                self.now = head[0]
                fast += 1
                head[3](*head[4])
            elif handle.cancelled:
                continue
            else:
                self._live -= fast
                self._dispatched += fast
                fast = 0
                dispatch(head)
        self._live -= fast
        self._dispatched += fast
        if not self._stopped and time > self.now:
            self.now = time
        return self._dispatched - before

    def stop(self) -> None:
        """Ask a running :meth:`run`/:meth:`run_until` loop to return."""
        self._stopped = True

    def fast_forward(self, to_time: int) -> int:
        """Retime all periodic work to at/after ``to_time`` without firing it.

        The adaptive-fidelity engine's primitive: every repeating timer
        (``schedule_periodic`` handles and registered jittered
        :class:`~repro.sim.process.PeriodicTask` objects) whose next fire
        lands before ``to_time`` is advanced by a whole number of its own
        periods so its phase is preserved; one-shot events are left
        untouched. ``now`` does not move — the caller follows up with
        :meth:`run_until` to sweep whatever remains in the window, then
        applies the analytic state update for the skipped span.

        Returns the number of timers retimed. Callers own the semantic
        question of whether skipping is sound (quiescence); the kernel only
        guarantees the retiming is phase-exact and deterministic.
        """
        if to_time < self.now:
            raise SimulationError(
                f"fast_forward({to_time}) is in the past (now={self.now})"
            )
        queue = self._queue
        keep: List[tuple] = []
        retimed: List[tuple] = []
        for entry in queue:
            handle = entry[2]
            if handle is not None and handle.cancelled:
                continue  # shed dead entries while rebuilding anyway
            if (
                handle is not None
                and handle.interval > 0
                and entry[0] < to_time
            ):
                retimed.append(entry)
            else:
                keep.append(entry)
        # Old (time, seq) order keeps seq assignment — and thus any future
        # tie-breaking at the new times — deterministic.
        retimed.sort()
        for entry in retimed:
            handle = entry[2]
            interval = handle.interval
            # ceil((to_time - t) / interval) whole periods, integer math.
            periods = -((handle.time - to_time) // interval)
            handle.time += periods * interval
            seq = self._seq
            self._seq = seq + 1
            handle.seq = seq
            keep.append((handle.time, seq, handle, None, None))
        queue[:] = keep
        heapq.heapify(queue)
        # Jittered tasks re-arm themselves with one-shot events the loop
        # above cannot retime; each task knows its own nominal schedule.
        pending = []
        for task in self._tasks:
            key = task.fast_forward_key(to_time)
            if key is not None:
                pending.append((key, task))
        pending.sort(key=lambda kt: kt[0])
        for _key, task in pending:
            task.fast_forward(to_time)
        self.fastforward_spans += 1
        self.fastforward_ns += to_time - self.now
        return len(retimed) + len(pending)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[tuple]:
        queue = self._queue
        while queue:
            handle = queue[0][2]
            if handle is not None and handle.cancelled:
                _heappop(queue)
                continue
            return queue[0]
        return None

    def _maybe_compact(self) -> None:
        """Rebuild the heap in place once most of it is cancelled entries.

        Lazy deletion leaves dead tuples in the queue until they surface at
        the top; workloads that mass-cancel (holdover, link failure, VM
        teardown) would otherwise retain them — and their tuples — for the
        rest of the run. Compaction preserves dispatch order exactly:
        ``(time, seq)`` is a strict total order, so heapify reproduces the
        same pop sequence regardless of internal layout.
        """
        queue = self._queue
        if len(queue) < _COMPACT_MIN_QUEUE or 2 * self._live >= len(queue):
            return
        # In-place slice assignment keeps the list identity stable: the run
        # loops hold a local alias to this exact list object.
        queue[:] = [
            entry
            for entry in queue
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(queue)

    def attach_metrics(self, registry) -> None:
        """Enable kernel observability against ``registry``.

        Only the queue high-water mark costs anything while attached (one
        extra comparison per scheduled event); everything else is read from
        counters the kernel maintains anyway and published on demand by
        :meth:`publish_metrics`. Metrics never influence dispatch order, so
        attaching a registry leaves runs (and traces) bit-identical.
        """
        self._metrics = registry
        self._queue_hwm = self._live

    def publish_metrics(self) -> None:
        """Export the kernel's counters as gauges (no-op when detached).

        The high-water mark is tracked against the push-side ``_live``
        counter, which the inlined run loops settle in bulk — it is exact
        for the queue growth that matters and conservatively high by at
        most the events already dispatched within the current burst.
        """
        registry = self._metrics
        if registry is None:
            return
        registry.gauge("kernel.events_dispatched").set(self._dispatched)
        registry.gauge("kernel.queue_depth_hwm").set(self._queue_hwm)
        registry.gauge("kernel.pending_events").set(self._live)
        registry.gauge("kernel.sim_now_ns").set(self.now)
        # Only adaptive-fidelity runs carry fast-forward spans; full-fidelity
        # runs keep their historical metric set.
        if self.fastforward_spans:
            registry.gauge("kernel.fastforward_spans").set(self.fastforward_spans)
            registry.gauge("kernel.fastforward_ns").set(self.fastforward_ns)

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): maintained as a counter incremented on push and decremented on
        dispatch/cancel, rather than scanning the heap (which made every
        ``repr``/monitor probe O(n) in queue depth).
        """
        return self._live

    @property
    def dispatched_events(self) -> int:
        """Total number of events dispatched since construction."""
        return self._dispatched

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if idle."""
        entry = self._peek()
        return entry[0] if entry is not None else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now}, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )
