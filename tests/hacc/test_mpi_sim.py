"""Tests for the simulated MPI world and domain decomposition."""

import time

import numpy as np
import pytest

from repro.hacc.mpi_sim import (
    DomainDecomposition,
    RankFailure,
    SimWorld,
    _Rendezvous,
)


class TestCollectives:
    def test_allreduce_sum(self):
        world = SimWorld(8)
        results = world.run(lambda comm: comm.allreduce(comm.Get_rank()))
        assert results == [28] * 8

    def test_allreduce_min_max(self):
        world = SimWorld(4)
        assert world.run(lambda c: c.allreduce(c.Get_rank(), op="max")) == [3] * 4
        assert world.run(lambda c: c.allreduce(c.Get_rank() + 1, op="min")) == [1] * 4

    def test_bcast_from_nonzero_root(self):
        world = SimWorld(4)
        results = world.run(
            lambda c: c.bcast("payload" if c.Get_rank() == 2 else None, root=2)
        )
        assert results == ["payload"] * 4

    def test_gather_only_root_receives(self):
        world = SimWorld(4)
        results = world.run(lambda c: c.gather(c.Get_rank() ** 2, root=1))
        assert results[1] == [0, 1, 4, 9]
        assert results[0] is None and results[2] is None

    def test_allgather(self):
        world = SimWorld(3)
        results = world.run(lambda c: c.allgather(c.Get_rank() * 10))
        assert results == [[0, 10, 20]] * 3

    def test_alltoall(self):
        world = SimWorld(3)

        def fn(c):
            send = [f"{c.Get_rank()}->{dst}" for dst in range(3)]
            return c.alltoall(send)

        results = world.run(fn)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_reduce_to_root(self):
        world = SimWorld(4)
        results = world.run(lambda c: c.reduce(1, root=0))
        assert results[0] == 4
        assert results[1] is None

    def test_sequential_collectives_keep_order(self):
        world = SimWorld(4)

        def fn(c):
            a = c.allreduce(1)
            c.barrier()
            b = c.allgather(c.Get_rank())
            return (a, tuple(b))

        results = world.run(fn)
        assert results == [(4, (0, 1, 2, 3))] * 4

    def test_rank_exception_propagates(self):
        world = SimWorld(2)

        def fn(c):
            if c.Get_rank() == 1:
                raise RuntimeError("rank 1 aborts")
            # rank 0 must not deadlock on a collective rank 1 skipped
            return c.Get_size()

        with pytest.raises(RuntimeError, match="rank 1 aborts"):
            world.run(fn)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimWorld(0)


@pytest.mark.timeout(60)
class TestSelfHealingCollectives:
    def test_rendezvous_result_initialised(self):
        # regression: a wakeup before the first completed generation
        # used to read an undefined _result attribute
        assert _Rendezvous(2)._result is None

    def test_per_call_timeout_raises_rankfailure(self):
        world = SimWorld(2)

        def fn(c):
            if c.Get_rank() == 0:
                time.sleep(1.0)  # never joins the barrier
                return "late"
            with pytest.raises(RankFailure, match="timed out"):
                c.barrier(timeout=0.1)
            return "timed-out"

        assert world.run(fn) == ["late", "timed-out"]

    def test_world_level_timeout_is_the_default(self):
        world = SimWorld(2, timeout=0.1)

        def fn(c):
            if c.Get_rank() == 0:
                time.sleep(1.0)
                return "late"
            with pytest.raises(RankFailure, match="timed out"):
                c.allreduce(1)  # no per-call timeout: world's applies
            return "timed-out"

        assert world.run(fn) == ["late", "timed-out"]

    def test_per_call_timeout_overrides_world_default(self):
        world = SimWorld(2, timeout=0.05)
        # a generous per-call timeout lets a slow rank make it
        def fn(c):
            if c.Get_rank() == 0:
                time.sleep(0.3)
            return c.allreduce(1, timeout=10.0)

        assert world.run(fn) == [2, 2]

    def test_dead_rank_wakes_blocked_survivors(self):
        """Survivors blocked in an untimed collective are woken by the
        supervisor when a peer dies — no timeout needed."""
        world = SimWorld(4)
        woken = []

        def fn(c):
            if c.Get_rank() == 3:
                raise RuntimeError("boom")
            try:
                c.allreduce(1)  # would block forever without healing
            except RankFailure as exc:
                # peers that aborted after rank 3's death may also be
                # listed by the time later survivors wake up
                assert 3 in exc.failed_ranks
                woken.append(c.Get_rank())
                raise

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom"):
            world.run(fn)
        assert time.monotonic() - start < 10.0
        assert sorted(woken) == [0, 1, 2]

    def test_supervisor_records_obituaries(self):
        world = SimWorld(3)

        def fn(c):
            if c.Get_rank() == 1:
                raise ValueError("cosmic ray")
            try:
                c.barrier()
            except RankFailure:
                raise

        with pytest.raises(ValueError, match="cosmic ray"):
            world.run(fn)
        assert set(world.obituaries) == {0, 1, 2}
        assert world.obituaries[1].reason == "ValueError: cosmic ray"
        assert world.obituaries[0].reason == "aborted after peer failure"
        assert world.dead_ranks == {0, 1, 2}

    def test_collectives_after_death_fail_fast(self):
        """Once a rank is dead, later collectives on survivors fail
        immediately instead of waiting out the timeout."""
        world = SimWorld(2, timeout=30.0)
        world.mark_rank_dead(1, RuntimeError("gone"), reason="gone")

        def fn(c):
            if c.Get_rank() == 1:
                return None  # plays dead
            start = time.monotonic()
            with pytest.raises(RankFailure, match=r"rank\(s\) \[1\] died"):
                c.allgather(1)
            return time.monotonic() - start

        elapsed = world.run(fn)[0]
        assert elapsed < 5.0  # did not consume the 30s timeout

    def test_root_cause_error_preferred_over_rankfailure(self):
        world = SimWorld(4)

        def fn(c):
            if c.Get_rank() == 0:
                raise ZeroDivisionError("the real bug")
            c.barrier()

        # survivors all raise RankFailure, but the propagated error is
        # the root cause
        with pytest.raises(ZeroDivisionError, match="the real bug"):
            world.run(fn)

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            SimWorld(2, timeout=0.0)
        with pytest.raises(ValueError, match="timeout"):
            SimWorld(2, timeout=-1.0)

    def test_pre_collective_hook_observes_every_call(self):
        world = SimWorld(2)
        seen = []
        world.pre_collective_hook = lambda kind, rank: seen.append((kind, rank))

        world.run(lambda c: (c.barrier(), c.allreduce(1)))
        assert sorted(seen) == [
            ("allreduce", 0),
            ("allreduce", 1),
            ("barrier", 0),
            ("barrier", 1),
        ]


class TestDecomposition:
    @pytest.fixture
    def decomp(self, small_particles):
        return DomainDecomposition.cubic(small_particles.box, 8, overload=0.1)

    def test_cubic_requires_cubic_count(self, small_particles):
        with pytest.raises(ValueError):
            DomainDecomposition.cubic(small_particles.box, 6, overload=0.1)

    def test_eight_ranks_form_2x2x2(self, decomp):
        assert decomp.ranks_per_dim == (2, 2, 2)
        assert decomp.n_ranks == 8

    def test_rank_coords_roundtrip(self, decomp):
        seen = {decomp.rank_coords(r) for r in range(8)}
        assert len(seen) == 8

    def test_bounds_tile_the_box(self, decomp, small_particles):
        total = 0.0
        for r in range(8):
            lo, hi = decomp.bounds(r)
            total += np.prod(hi - lo)
        assert total == pytest.approx(small_particles.box**3)

    def test_owner_matches_bounds(self, decomp, small_particles):
        owners = decomp.owner_of(small_particles.positions)
        for r in range(8):
            lo, hi = decomp.bounds(r)
            mine = small_particles.positions[owners == r]
            assert np.all(mine >= lo - 1e-12)
            assert np.all(mine < hi + 1e-12)

    def test_split_partitions_everything(self, decomp, small_particles):
        parts = decomp.split(small_particles)
        assert sum(len(p) for p in parts) == len(small_particles)

    def test_overload_adds_ghosts(self, decomp, small_particles):
        parts = decomp.split(small_particles)
        merged = decomp.exchange_overload(parts)
        for owned, with_ghosts in zip(parts, merged):
            assert len(with_ghosts) >= len(owned)
        assert sum(len(m) for m in merged) > len(small_particles)

    def test_ghosts_lie_in_overload_shell(self, decomp, small_particles):
        parts = decomp.split(small_particles)
        merged = decomp.exchange_overload(parts)
        for r in range(8):
            n_owned = len(parts[r])
            ghosts = merged[r].positions[n_owned:]
            if len(ghosts) == 0:
                continue
            lo, hi = decomp.bounds(r)
            half = 0.5 * small_particles.box
            centre = 0.5 * (lo + hi)
            d = np.abs(
                (ghosts - centre + half) % small_particles.box - half
            )
            half_width = 0.5 * (hi - lo)
            assert np.all(d <= half_width + decomp.overload + 1e-12)

    def test_ghost_pids_reference_originals(self, decomp, small_particles):
        parts = decomp.split(small_particles)
        merged = decomp.exchange_overload(parts)
        all_pids = set(small_particles.pid.tolist())
        for r in range(8):
            assert set(merged[r].pid.tolist()) <= all_pids

    def test_excessive_overload_rejected(self, small_particles):
        with pytest.raises(ValueError):
            DomainDecomposition.cubic(
                small_particles.box, 8, overload=small_particles.box
            )


def _collective_call(comm, name):
    if name == "alltoall":
        return comm.alltoall([0] * comm.Get_size())
    return comm.reduce(1, root=0)


@pytest.mark.timeout(60)
class TestUlfmAgreeAndShrink:
    def test_agree_all_live(self):
        world = SimWorld(4)

        def fn(c):
            out = c.agree(value=c.Get_rank() * 2)
            return (out.failed_ranks, out.survivors, out.contributions[2])

        results = world.run(fn)
        assert results == [(frozenset(), (0, 1, 2, 3), 4)] * 4

    def test_agree_excludes_dead_rank_for_every_survivor(self):
        world = SimWorld(4, timeout=5.0)

        def fn(c):
            if c.Get_rank() == 2:
                raise RuntimeError("node failure")
            out = c.agree(value="v")
            return (sorted(out.survivors), out.failed_ranks)

        results, errors = world.run_outcomes(fn)
        assert isinstance(errors[2], RuntimeError)
        live = [results[r] for r in (0, 1, 3)]
        assert live == [([0, 1, 3], frozenset({2}))] * 3

    def test_agree_declares_stalled_rank_dead_on_timeout(self):
        """A live-but-absent participant is declared dead by the
        tolerant agreement, exactly like ULFM's MPI_Comm_agree over a
        revoked communicator."""
        world = SimWorld(3, timeout=0.3)

        def fn(c):
            if c.Get_rank() == 1:
                time.sleep(1.5)  # never joins the agreement in time
                return "stalled"
            out = c.agree()
            return (sorted(out.survivors), out.failed_ranks)

        results, errors = world.run_outcomes(fn)
        assert results[0] == ([0, 2], frozenset({1}))
        assert results[2] == ([0, 2], frozenset({1}))

    def test_shrink_renumbers_and_collectives_work(self):
        world = SimWorld(4, timeout=5.0)

        def fn(c):
            if c.Get_rank() == 1:
                raise RuntimeError("gone")
            try:
                c.allreduce(1)
            except RankFailure:
                pass
            sub = c.shrink()
            assert sub.Get_size() == 3
            assert sub.group == (0, 2, 3)
            return (sub.Get_rank(), sub.global_rank, sub.allreduce(sub.global_rank))

        results, errors = world.run_outcomes(fn)
        assert [results[r] for r in (0, 2, 3)] == [(0, 0, 5), (1, 2, 5), (2, 3, 5)]

    def test_shrunk_twice_nests(self):
        world = SimWorld(4, timeout=5.0)

        def fn(c):
            if c.Get_rank() == 3:
                return None
            sub = c.shrunk((0, 1, 2))
            if c.Get_rank() == 1:
                return None
            subsub = sub.shrunk((0, 2))
            return subsub.allgather(subsub.global_rank)

        results = world.run(fn)
        assert results[0] == [0, 2] and results[2] == [0, 2]

    def test_shrunk_validation(self):
        world = SimWorld(3)

        def fn(c):
            if c.Get_rank() == 0:
                with pytest.raises(ValueError):
                    c.shrunk(())
                with pytest.raises(ValueError):
                    c.shrunk((0, 7))
                with pytest.raises(RankFailure):
                    c.shrunk((1, 2))  # caller not among survivors
            return True

        assert world.run(fn) == [True] * 3

    def test_shrink_emits_metric_once(self):
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        world = SimWorld(3, timeout=5.0, metrics=metrics)
        world.run(lambda c: None if c.Get_rank() == 2 else c.shrunk((0, 1)))
        assert metrics.counter("sim.resilience.shrinks").value == 1


@pytest.mark.timeout(60)
class TestMidRendezvousDeath:
    """A rank dying around an in-flight collective must leave every
    survivor with the same view of the failure, regardless of whether
    the victim was first or last to (not) arrive."""

    @pytest.mark.parametrize("collective", ["alltoall", "reduce"])
    def test_victim_dies_before_survivors_arrive(self, collective):
        """First-arriver order: the victim is already dead when the
        survivors reach the collective; they fail fast, then agree on
        the identical dead set."""
        world = SimWorld(4, timeout=10.0)

        def fn(c):
            if c.Get_rank() == 2:
                raise RuntimeError("early death")
            time.sleep(0.2)  # let the victim die before anyone arrives
            start = time.monotonic()
            with pytest.raises(RankFailure) as exc:
                _collective_call(c, collective)
            assert time.monotonic() - start < 5.0  # fail-fast, not timeout
            assert 2 in exc.value.failed_ranks
            out = c.agree()
            return (sorted(out.survivors), out.failed_ranks)

        results, errors = world.run_outcomes(fn)
        assert isinstance(errors[2], RuntimeError)
        assert [results[r] for r in (0, 1, 3)] == [([0, 1, 3], frozenset({2}))] * 3

    @pytest.mark.parametrize("collective", ["alltoall", "reduce"])
    def test_victim_dies_as_last_arriver(self, collective):
        """Last-arriver order: the survivors are already blocked inside
        the rendezvous when the victim dies; the supervisor wakes them
        and they agree on the identical dead set."""
        world = SimWorld(4, timeout=30.0)

        def fn(c):
            if c.Get_rank() == 2:
                time.sleep(0.3)  # everyone else is blocked by now
                raise RuntimeError("late death")
            start = time.monotonic()
            with pytest.raises(RankFailure) as exc:
                _collective_call(c, collective)
            assert time.monotonic() - start < 10.0  # woken, not timed out
            assert 2 in exc.value.failed_ranks
            out = c.agree()
            return (sorted(out.survivors), out.failed_ranks)

        results, errors = world.run_outcomes(fn)
        assert isinstance(errors[2], RuntimeError)
        assert [results[r] for r in (0, 1, 3)] == [([0, 1, 3], frozenset({2}))] * 3

    def test_survivors_can_finish_on_shrunk_comm_after_death(self):
        """The full ULFM recovery motion: fail, agree, shrink, and run
        the same collective to completion on the survivors."""
        world = SimWorld(4, timeout=10.0)

        def fn(c):
            if c.Get_rank() == 1:
                raise RuntimeError("node failure")
            with pytest.raises(RankFailure):
                c.alltoall([c.Get_rank()] * 4)
            sub = c.shrink()
            return sub.alltoall([f"{sub.global_rank}->{g}" for g in sub.group])

        results, errors = world.run_outcomes(fn)
        assert results[2] == ["0->2", "2->2", "3->2"]
