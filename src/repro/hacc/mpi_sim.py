"""Simulated MPI: rank topology, decomposition, and overload exchange.

The paper's test problem runs 8 MPI ranks, one per accelerator slice
(Section 3.4.2).  Offline we cannot (and need not) run real MPI; this
module provides an mpi4py-compatible communicator façade whose ranks
run as threads inside one process, with collectives implemented as
true rendezvous operations.  Code written against :class:`SimComm`
ports to mpi4py by replacing the communicator object (the method names
follow the mpi4py convention).

It also provides HACC's 3-D block domain decomposition with "overload"
(ghost) particle exchange: each rank holds copies of neighbouring
particles within an overload shell of its boundary, which is what lets
the short-range solvers run without per-pair communication.

Self-healing collectives (mpi4py-compatibility notes)
-----------------------------------------------------
Production CRK-HACC campaigns survive node failures only because runs
fail loudly and restart from checkpoints; a collective that blocks
forever on a dead rank is the worst possible failure mode.  Every
:class:`SimComm` collective therefore accepts an optional ``timeout``
keyword (seconds) defaulting to the world-level
:attr:`SimWorld.timeout`.  When a peer rank dies, or the timeout
elapses before all ranks arrive, the survivors raise
:class:`RankFailure` instead of deadlocking, and the
:class:`SimWorld` supervisor records an obituary (which rank died,
and why) in :attr:`SimWorld.obituaries`.

The ``timeout`` keyword is an *extension* over mpi4py: real
``MPI.COMM_WORLD`` collectives have no timeout parameter, so code that
must stay drop-in portable should leave ``timeout`` unset (``None``
at the world level reproduces mpi4py's blocking behaviour exactly).
Under real MPI the equivalent protection comes from the ULFM
fault-tolerance extensions or from an external watchdog; the
:class:`RankFailure` exception maps onto ``MPI.ERR_PROC_FAILED``.

Shrinking-world recovery (ULFM ``MPI_Comm_shrink`` / ``MPI_Comm_agree``)
------------------------------------------------------------------------
Raising :class:`RankFailure` is only half of ULFM; the other half is
letting the survivors *continue without the dead*.  :meth:`SimComm.agree`
is the fault-tolerant agreement: it completes among the live members of
the communicator even while ranks are dying (a member that never shows
up within the timeout is *declared* dead, exactly a ULFM failure
detector), and every survivor receives the identical
:class:`AgreeOutcome` naming the same failed-rank set.
:meth:`SimComm.shrink` builds on it: agree on the failure set, then
return a new, smaller communicator over the sorted survivors with
locally renumbered ranks (``Get_rank``/``Get_size`` follow the new
group, mirroring ``MPI_Comm_shrink``).  Collectives on the shrunk
communicator rendezvous only among its members — dead ranks are
excluded from the meeting point, so the survivors' world keeps working
at its reduced size.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.hacc.particles import ParticleData
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder


class RankFailure(RuntimeError):
    """A collective could not complete because a peer rank died or the
    rendezvous timed out.

    Raised on every *surviving* rank (the failed rank raises its own
    original exception), mirroring ULFM's ``MPI.ERR_PROC_FAILED``.

    ``failed_ranks`` are ranks known dead when the collective failed;
    ``missing_ranks`` are live-but-absent ranks that never arrived
    before a timeout (a stalled peer the caller may choose to *declare*
    dead before shrinking, as a ULFM failure detector would).
    """

    def __init__(
        self,
        message: str,
        failed_ranks: Sequence[int] = (),
        missing_ranks: Sequence[int] = (),
    ):
        super().__init__(message)
        self.failed_ranks = tuple(failed_ranks)
        self.missing_ranks = tuple(missing_ranks)


@dataclass(frozen=True)
class AgreeOutcome:
    """The shared result of one fault-tolerant agreement.

    Every survivor of the same :meth:`SimComm.agree` call receives an
    outcome built from the identical rendezvous snapshot, so all
    survivors name the same ``failed_ranks`` — that is the agreement
    guarantee ULFM's ``MPI_Comm_agree`` provides.
    """

    group: tuple[int, ...]
    contributions: dict[int, Any]
    failed_ranks: frozenset[int]

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(r for r in self.group if r not in self.failed_ranks)


@dataclass(frozen=True)
class RankObituary:
    """Supervisor record of one rank's death."""

    rank: int
    reason: str
    exception: BaseException


class _Rendezvous:
    """One collective-operation meeting point for a set of ranks.

    ``participants`` are the *global* ranks that meet here (an ``int``
    means ``range(n)``, the full world).  A **strict** rendezvous (the
    default, normal MPI semantics) completes only when every
    participant arrives and fails everyone as soon as any participant
    is known dead.  A **tolerant** rendezvous (ULFM agreement
    semantics) excludes dead participants from the meeting: it
    completes once every *live* participant has arrived, and a timeout
    does not fail the call — instead the absent live participants are
    *declared* dead and the generation completes among the arrived
    (:attr:`declared_dead` records who was declared so the caller can
    propagate the verdict to the world supervisor).
    """

    def __init__(
        self,
        participants: int | Sequence[int],
        dead: set[int] | None = None,
        tolerant: bool = False,
    ):
        if isinstance(participants, int):
            participants = range(participants)
        self.participants = frozenset(participants)
        self.size = len(self.participants)
        self.tolerant = tolerant
        self._cond = threading.Condition()
        self._values: dict[int, Any] = {}
        self._generation = 0
        # initialised eagerly: a wakeup before the first completed
        # generation must never read an undefined attribute
        self._result: dict[int, Any] | None = None
        self._dead: set[int] = set(dead or ()) & self.participants
        #: live participants declared dead by a tolerant timeout
        self.declared_dead: tuple[int, ...] = ()

    def mark_dead(self, rank: int) -> None:
        """Record a dead rank and wake every waiter so it can react."""
        with self._cond:
            if rank not in self.participants:
                return
            self._dead.add(rank)
            self._cond.notify_all()

    def _fail(self, timed_out: float | None = None) -> RankFailure:
        if self._dead:
            detail = f"rank(s) {sorted(self._dead)} died"
        else:
            detail = f"timed out after {timed_out:.1f}s"
        # missing_ranks only name live peers absent at a *timeout*: on
        # the known-death fast path nobody has had time to arrive, and
        # naming the still-live peers would invite a caller to declare
        # every survivor dead
        missing = (
            self.participants - set(self._values) - self._dead
            if timed_out is not None
            else set()
        )
        return RankFailure(
            f"collective aborted: {detail}",
            failed_ranks=sorted(self._dead),
            missing_ranks=sorted(missing),
        )

    def _locked_try_finalise(self) -> bool:
        """Complete the generation if its arrival condition holds.

        Must be called with the condition lock held.  Strict mode needs
        every participant; tolerant mode needs every *live* participant
        (and at least one).
        """
        arrived = set(self._values)
        if self.tolerant:
            live = self.participants - self._dead
            complete = bool(live) and live <= arrived
            if complete:
                self._result = {
                    r: v for r, v in self._values.items() if r not in self._dead
                }
        else:
            complete = arrived >= self.participants
            if complete:
                self._result = dict(self._values)
        if complete:
            self._generation += 1
            self._values = {}
            self._cond.notify_all()
        return complete

    def exchange(
        self, rank: int, value: Any, timeout: float | None = None
    ) -> dict[int, Any]:
        """Deposit ``value``; blocks until the meeting completes, then
        every rank receives the same ``{rank: value}`` mapping.

        Strict mode raises :class:`RankFailure` if a participant has
        been marked dead or the timeout elapses.  Tolerant mode raises
        only if the *caller* has been declared dead; peer deaths and
        timeouts complete the meeting among the live arrivals instead.
        """
        with self._cond:
            if rank not in self.participants:
                raise ValueError(f"rank {rank} is not a participant")
            generation = self._generation
            if self._dead and not self.tolerant:
                raise self._fail()
            if self.tolerant and rank in self._dead:
                raise self._fail()
            self._values[rank] = value
            if not self._locked_try_finalise():
                deadline = None if timeout is None else time.monotonic() + timeout
                # predicate guards against spurious wakeups: only a
                # completed generation (or a death/timeout) ends the wait
                while self._generation == generation:
                    if self._dead and not self.tolerant:
                        raise self._fail()
                    if self.tolerant and rank in self._dead:
                        raise self._fail()
                    if self._locked_try_finalise():
                        break
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            if not self.tolerant:
                                raise self._fail(timed_out=timeout)
                            # ULFM failure detector: declare the absent
                            # live participants dead and complete the
                            # agreement among the arrived survivors
                            missing = (
                                self.participants - set(self._values) - self._dead
                            )
                            self._dead |= missing
                            self.declared_dead = tuple(
                                sorted(set(self.declared_dead) | missing)
                            )
                            self._locked_try_finalise()
                            break
                    self._cond.wait(remaining)
            assert self._result is not None
            return dict(self._result)


class SimComm:
    """A thread-backed stand-in for ``mpi4py.MPI.COMM_WORLD``.

    All collectives take an optional ``timeout`` keyword (see module
    docstring) defaulting to the world-level setting.

    A communicator covers a *group* of global ranks (the full world by
    default).  ``Get_rank``/``Get_size`` follow the group, mirroring a
    shrunk ULFM communicator: after :meth:`shrink`, survivors are
    renumbered ``0..len(survivors)-1`` while :attr:`global_rank` keeps
    the world-level identity (used for fault plans and obituaries).
    """

    def __init__(
        self,
        world: "SimWorld",
        rank: int,
        group: Sequence[int] | None = None,
        comm_id: str = "world",
    ):
        self._world = world
        self._group = tuple(group) if group is not None else tuple(range(world.size))
        if rank not in self._group:
            raise ValueError(f"rank {rank} is not in communicator group {self._group}")
        self._grank = rank  # global (world) rank
        self._rank = self._group.index(rank)  # local rank within the group
        self._comm_id = comm_id

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return len(self._group)

    @property
    def group(self) -> tuple[int, ...]:
        """Global ranks that are members of this communicator."""
        return self._group

    @property
    def global_rank(self) -> int:
        """This member's rank in the original world."""
        return self._grank

    def _exchange(
        self,
        kind: str,
        value: Any,
        timeout: float | None,
        tolerant: bool = False,
    ) -> Any:
        """Run one rendezvous among the group.

        Strict mode (default) returns the values as a group-ordered
        list (``result[i]`` is local rank ``i``'s contribution).
        Tolerant mode returns the raw ``{global_rank: value}`` snapshot
        of the live arrivals and propagates any timeout-declared deaths
        to the world supervisor.
        """
        if timeout is None:
            timeout = self._world.timeout
        self._world.pre_collective(kind, self._grank)
        tracer = self._world.tracer
        metrics = self._world.metrics
        rv = self._world.rendezvous(
            f"{self._comm_id}:{kind}", self._group, tolerant=tolerant
        )
        begin = time.monotonic()
        try:
            snapshot = rv.exchange(self._grank, value, timeout)
        except RankFailure as exc:
            if tracer is not None:
                tracer.instant(
                    f"collective-failed:{kind}",
                    category="mpi",
                    rank=self._grank,
                    failed_ranks=list(exc.failed_ranks),
                )
            raise
        finally:
            elapsed = time.monotonic() - begin
            if metrics is not None:
                metrics.counter("mpi.collective.calls").inc()
                metrics.counter("mpi.collective.seconds").inc(elapsed)
            if tracer is not None:
                end = tracer.now()
                tracer.add_span(
                    kind,
                    begin=max(0.0, end - elapsed),
                    end=end,
                    category="mpi",
                    args={"rank": self._grank},
                )
        if tolerant:
            # a tolerant timeout is a failure-detector verdict: make it
            # world-official so stalled ranks fail out of their old
            # collectives and future meetings exclude them (idempotent)
            for dead in rv.declared_dead:
                self._world.mark_rank_dead(
                    dead,
                    RankFailure(
                        f"rank {dead} declared dead by agreement timeout",
                        failed_ranks=(dead,),
                    ),
                    reason="declared dead: absent from agreement within timeout",
                )
            return snapshot
        return [snapshot[g] for g in self._group]

    def bcast(self, obj: Any, root: int = 0, timeout: float | None = None) -> Any:
        return self._exchange("bcast", obj, timeout)[root]

    def gather(
        self, obj: Any, root: int = 0, timeout: float | None = None
    ) -> list[Any] | None:
        values = self._exchange("gather", obj, timeout)
        return values if self._rank == root else None

    def allgather(self, obj: Any, timeout: float | None = None) -> list[Any]:
        return self._exchange("allgather", obj, timeout)

    def allreduce(self, value: Any, op: str = "sum", timeout: float | None = None) -> Any:
        return _reduce(self._exchange("allreduce", value, timeout), op)

    def reduce(
        self, value: Any, op: str = "sum", root: int = 0, timeout: float | None = None
    ) -> Any | None:
        values = self._exchange("reduce", value, timeout)
        return _reduce(values, op) if self._rank == root else None

    def alltoall(self, sendbuf: list[Any], timeout: float | None = None) -> list[Any]:
        """Each rank sends ``sendbuf[r]`` to local rank r."""
        if len(sendbuf) != len(self._group):
            raise ValueError("alltoall send buffer must have one entry per rank")
        values = self._exchange("alltoall", sendbuf, timeout)
        return [values[src][self._rank] for src in range(len(self._group))]

    def barrier(self, timeout: float | None = None) -> None:
        self._exchange("barrier", None, timeout)

    # lowercase aliases (mpi4py exposes both spellings for some ops)
    Barrier = barrier

    # -- ULFM fault tolerance ------------------------------------------
    def agree(self, value: Any = None, timeout: float | None = None) -> AgreeOutcome:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``).

        Completes among the live members even while members are dying:
        a member absent past the timeout is declared dead rather than
        failing the call.  Every survivor receives an
        :class:`AgreeOutcome` built from the identical rendezvous
        snapshot, so all survivors agree on the failed-rank set and on
        each other's ``value`` contributions.

        Raises :class:`RankFailure` only if the *caller* has itself
        been declared dead.
        """
        snapshot = self._exchange("agree", value, timeout, tolerant=True)
        return AgreeOutcome(
            group=self._group,
            contributions=dict(snapshot),
            failed_ranks=frozenset(self._group) - frozenset(snapshot),
        )

    def shrunk(self, survivors: Sequence[int]) -> "SimComm":
        """A new communicator over ``survivors`` (global ranks), with
        members renumbered ``0..n-1`` in sorted global order.

        Every survivor must call this with the same survivor set
        (normally :attr:`AgreeOutcome.survivors`); the caller must be a
        member.  The lowest surviving rank emits the shrink metric and
        trace instant, once per shrink.
        """
        survivors = tuple(sorted(survivors))
        if not survivors:
            raise ValueError("cannot shrink to an empty communicator")
        if self._grank not in survivors:
            raise RankFailure(
                f"rank {self._grank} is not among the survivors {survivors}",
                failed_ranks=(self._grank,),
            )
        unknown = set(survivors) - set(self._group)
        if unknown:
            raise ValueError(f"survivors {sorted(unknown)} are not members")
        dead = sorted(set(self._group) - set(survivors))
        if self._grank == survivors[0]:
            if self._world.metrics is not None:
                self._world.metrics.counter("sim.resilience.shrinks").inc()
            if self._world.tracer is not None:
                self._world.tracer.instant(
                    "shrink",
                    category="resilience",
                    dead_ranks=dead,
                    survivors=list(survivors),
                )
        comm_id = f"{self._comm_id}|{'.'.join(str(r) for r in survivors)}"
        return SimComm(self._world, self._grank, group=survivors, comm_id=comm_id)

    def shrink(self, timeout: float | None = None) -> "SimComm":
        """Agree on the failure set, then return the shrunk
        communicator over the survivors (ULFM ``MPI_Comm_shrink``)."""
        return self.shrunk(self.agree(timeout=timeout).survivors)


def _reduce(values: list[Any], op: str) -> Any:
    if op == "sum":
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    raise ValueError(f"unsupported reduction {op!r}")


class SimWorld:
    """A simulated MPI world of ``size`` ranks (threads).

    ``timeout`` is the default collective timeout in seconds (``None``
    keeps mpi4py's indefinitely-blocking behaviour).  The world acts as
    a supervisor: a rank thread that dies is recorded in
    :attr:`obituaries` and every in-flight or future collective on the
    surviving ranks raises :class:`RankFailure`.
    """

    def __init__(
        self,
        size: int,
        timeout: float | None = None,
        *,
        tracer: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if size < 1:
            raise ValueError("world size must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.size = size
        self.timeout = timeout
        self._lock = threading.Lock()
        self._rendezvous: dict[str, _Rendezvous] = {}
        self._sequence: dict[str, int] = {}
        self._obituaries: dict[int, RankObituary] = {}
        #: hook called before each collective (kind, rank); the fault
        #: injector uses it to stall a collective past its timeout
        self.pre_collective_hook: Callable[[str, int], None] | None = None
        #: observability sinks: when set, rank threads run on per-rank
        #: trace tracks (pid = rank), collectives become spans, and
        #: rank deaths become instant events — every rank's events
        #: merge into the one shared timeline
        self.tracer = tracer
        self.metrics = metrics

    # -- supervisor ----------------------------------------------------
    @property
    def obituaries(self) -> dict[int, RankObituary]:
        """Which ranks died, and why (rank -> obituary)."""
        with self._lock:
            return dict(self._obituaries)

    @property
    def dead_ranks(self) -> set[int]:
        with self._lock:
            return set(self._obituaries)

    def mark_rank_dead(self, rank: int, exc: BaseException, reason: str = "") -> None:
        """Record a rank's death and wake all blocked collectives."""
        with self._lock:
            if rank in self._obituaries:
                return
            self._obituaries[rank] = RankObituary(
                rank=rank, reason=reason or f"{type(exc).__name__}: {exc}", exception=exc
            )
            points = list(self._rendezvous.values())
        if self.tracer is not None:
            self.tracer.instant(
                "rank-death",
                category="resilience",
                pid=rank,
                rank=rank,
                reason=reason or f"{type(exc).__name__}: {exc}",
            )
        if self.metrics is not None:
            self.metrics.counter("resilience.rank_failures").inc()
        for rv in points:
            rv.mark_dead(rank)

    def pre_collective(self, kind: str, rank: int) -> None:
        hook = self.pre_collective_hook
        if hook is not None:
            hook(kind, rank)

    def rendezvous(
        self,
        key: str,
        participants: Sequence[int] | None = None,
        tolerant: bool = False,
    ) -> _Rendezvous:
        """The current meeting point for collective ``key``.

        A fresh rendezvous is created per collective *call site epoch*;
        ranks calling collectives in the same order (required by MPI
        semantics) always agree on the epoch.  New meeting points are
        born knowing which ranks have already died, so a survivor
        entering a later collective fails immediately instead of
        waiting out the timeout.  Keys are namespaced per communicator
        (``comm_id:kind``), so a shrunk communicator's collectives
        never collide with abandoned pre-shrink meeting points.
        """
        if participants is None:
            participants = range(self.size)
        with self._lock:
            rv = self._rendezvous.get(key)
            if rv is None or rv._generation > 0:
                rv = _Rendezvous(
                    participants, dead=set(self._obituaries), tolerant=tolerant
                )
                self._rendezvous[key] = rv
            return rv

    def run_outcomes(
        self, fn: Callable[[SimComm], Any]
    ) -> tuple[list[Any], list[BaseException | None]]:
        """Execute ``fn(comm)`` on every rank concurrently; never raises.

        Returns ``(results, errors)``, one slot per rank: a rank that
        returned has its value in ``results``, a rank that raised has
        the exception in ``errors`` (and an obituary in
        :attr:`obituaries`).  This is the degradation-aware entry
        point: a caller pursuing shrink-and-continue recovery needs the
        per-rank outcomes, not a single fail-fast exception.
        """
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size

        def runner(rank: int) -> None:
            try:
                if self.tracer is not None:
                    with self.tracer.track(rank, name=f"rank {rank}"):
                        results[rank] = fn(SimComm(self, rank))
                else:
                    results[rank] = fn(SimComm(self, rank))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                reason = (
                    "aborted after peer failure"
                    if isinstance(exc, RankFailure)
                    else f"{type(exc).__name__}: {exc}"
                )
                self.mark_rank_dead(rank, exc, reason=reason)

        # daemon threads: a KeyboardInterrupt in the joining caller
        # must be able to take the process down instead of hanging on
        # rank threads blocked in a collective
        threads = [
            threading.Thread(
                target=runner, args=(r,), name=f"simrank-{r}", daemon=True
            )
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # a dead rank's frames pin everything ``fn`` held (its driver,
        # with all it memoised) in a cycle only the cyclic collector
        # frees; file and line stay on the traceback for the report
        for exc in errors:
            if exc is not None:
                traceback.clear_frames(exc.__traceback__)
        return results, errors

    def run(self, fn: Callable[[SimComm], Any]) -> list[Any]:
        """Execute ``fn(comm)`` on every rank concurrently.

        Exceptions in any rank are re-raised in the caller (after all
        threads finish), matching the fail-fast behaviour of an MPI
        abort.  The *root-cause* exception is preferred: if one rank
        died of a real error and the others of the induced
        :class:`RankFailure`, the real error is what propagates.
        """
        results, errors = self.run_outcomes(fn)
        root_cause = next(
            (e for e in errors if e is not None and not isinstance(e, RankFailure)),
            None,
        )
        if root_cause is not None:
            raise root_cause
        for exc in errors:
            if exc is not None:
                raise exc
        return results


# ---------------------------------------------------------------------------
# Domain decomposition
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DomainDecomposition:
    """3-D block decomposition of the periodic box.

    The paper's 8 ranks form a 2x2x2 grid.  Each rank owns the cuboid
    ``[lo, hi)``; :meth:`exchange_overload` adds ghost copies of
    neighbouring particles within ``overload`` of the boundary.
    """

    box: float
    ranks_per_dim: tuple[int, int, int]
    overload: float

    def __post_init__(self):
        if any(r < 1 for r in self.ranks_per_dim):
            raise ValueError("ranks per dimension must be >= 1")
        widths = [self.box / r for r in self.ranks_per_dim]
        if self.overload < 0 or self.overload >= min(widths) / 2:
            raise ValueError("overload width must be in [0, half the domain width)")

    @classmethod
    def cubic(cls, box: float, n_ranks: int, overload: float) -> "DomainDecomposition":
        """Cubic decomposition for a cubic rank count (8 -> 2x2x2)."""
        per_dim = round(n_ranks ** (1.0 / 3.0))
        if per_dim**3 != n_ranks:
            raise ValueError(f"{n_ranks} ranks do not form a cubic grid")
        return cls(box=box, ranks_per_dim=(per_dim,) * 3, overload=overload)

    @property
    def n_ranks(self) -> int:
        rx, ry, rz = self.ranks_per_dim
        return rx * ry * rz

    def rank_coords(self, rank: int) -> tuple[int, int, int]:
        rx, ry, rz = self.ranks_per_dim
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return (rank // (ry * rz), (rank // rz) % ry, rank % rz)

    def bounds(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of the rank's owned cuboid."""
        coords = self.rank_coords(rank)
        widths = np.array([self.box / r for r in self.ranks_per_dim])
        lo = np.array(coords) * widths
        return lo, lo + widths

    def owner_of(self, pos: np.ndarray) -> np.ndarray:
        """Owning rank for each (n, 3) position."""
        pos = np.asarray(pos, dtype=np.float64) % self.box
        rx, ry, rz = self.ranks_per_dim
        ix = np.minimum((pos[:, 0] / self.box * rx).astype(np.int64), rx - 1)
        iy = np.minimum((pos[:, 1] / self.box * ry).astype(np.int64), ry - 1)
        iz = np.minimum((pos[:, 2] / self.box * rz).astype(np.int64), rz - 1)
        return ix * ry * rz + iy * rz + iz

    def split(self, particles: ParticleData) -> list[ParticleData]:
        """Partition a global particle set into per-rank owned sets."""
        owners = self.owner_of(particles.positions)
        return [particles.select(owners == r) for r in range(self.n_ranks)]

    def _in_overload_region(self, pos: np.ndarray, rank: int) -> np.ndarray:
        """Mask of positions within ``overload`` of rank's cuboid
        (periodic), excluding positions inside the cuboid itself."""
        lo, hi = self.bounds(rank)
        pos = np.asarray(pos) % self.box
        half = 0.5 * self.box
        inside = np.ones(len(pos), dtype=bool)
        near = np.ones(len(pos), dtype=bool)
        for axis in range(3):
            x = pos[:, axis]
            centre = 0.5 * (lo[axis] + hi[axis])
            d = (x - centre + half) % self.box - half
            half_width = 0.5 * (hi[axis] - lo[axis])
            inside &= np.abs(d) < half_width
            near &= np.abs(d) < half_width + self.overload
        return near & ~inside

    def exchange_overload(self, owned: Sequence[ParticleData]) -> list[ParticleData]:
        """Ghost exchange: each rank receives copies of neighbouring
        ranks' particles inside its overload shell.

        Returns, per rank, the owned particles concatenated with their
        ghosts (ghosts keep their original ``pid``).
        """
        if len(owned) != self.n_ranks:
            raise ValueError("owned list must have one entry per rank")
        results = []
        for r in range(self.n_ranks):
            merged = owned[r]
            for s in range(self.n_ranks):
                if s == r or len(owned[s]) == 0:
                    continue
                mask = self._in_overload_region(owned[s].positions, r)
                if mask.any():
                    merged = merged.concatenated_with(owned[s].select(mask))
            results.append(merged)
        return results
