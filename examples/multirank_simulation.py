"""An 8-rank run: domain decomposition, ghost exchange, halo finding.

Mirrors the paper's production layout (8 MPI ranks in a 2x2x2 grid,
one per accelerator slice, Section 3.4.2) on the simulated MPI world:

- the global particle load is split across ranks,
- overload (ghost) particles are exchanged so each rank's short-range
  work is self-contained,
- per-rank gravity workloads are priced on each system's device slice,
- after the run, the FOF halo finder (the ArborX-DBSCAN stand-in,
  Section 3.1) summarises the forming structure.

Run:  python examples/multirank_simulation.py
"""

import numpy as np

from repro.hacc.halo import dbscan, fof
from repro.hacc.ic import ICConfig, zeldovich_ics
from repro.hacc.mpi_sim import DomainDecomposition, SimWorld
from repro.hacc.particles import Species
from repro.hacc.short_range import ShortRangeSolver
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.adiabatic import price_trace
from repro.machine.registry import all_devices
from repro.proglang.model import ProgrammingModel

N_RANKS = 8


def main() -> None:
    # global problem: 2x 12^3 particles (box scaled for mass resolution)
    config = SimulationConfig(n_per_side=12, n_steps=3)
    particles = zeldovich_ics(config.ic_config())
    print(
        f"Global load: {len(particles)} particles "
        f"({particles.count(Species.BARYON)} baryons) in a "
        f"{particles.box:.2f} Mpc/h box"
    )

    # decompose across the paper's 2x2x2 rank grid with ghosts wide
    # enough for the SPH support
    overload = 0.2 * particles.box / 2
    decomp = DomainDecomposition.cubic(particles.box, N_RANKS, overload=overload)
    owned = decomp.split(particles)
    with_ghosts = decomp.exchange_overload(owned)
    print(f"\nRank layout {decomp.ranks_per_dim}, overload {overload:.3f} Mpc/h:")
    for rank in range(N_RANKS):
        print(
            f"  rank {rank}: {len(owned[rank]):5d} owned, "
            f"{len(with_ghosts[rank]) - len(owned[rank]):5d} ghosts"
        )

    # each rank reports its short-range interaction load; the simulated
    # world reduces the imbalance statistics like an MPI job would
    world = SimWorld(N_RANKS)
    box = particles.box

    def rank_interactions(comm):
        rank = comm.Get_rank()
        local = with_ghosts[rank]
        solver = ShortRangeSolver(box, r_s=0.1 * box, cutoff=0.45 * box)
        count = solver.interaction_count(local)
        total = comm.allreduce(count)
        peak = comm.allreduce(count, op="max")
        return count, total, peak

    per_rank = world.run(rank_interactions)
    _counts, total, peak = per_rank[0]
    print(
        f"\nShort-range interactions: total {total:,}, "
        f"peak rank {peak:,} (imbalance {peak * N_RANKS / total:.2f}x)"
    )

    # run the dynamics (single-domain driver carries the physics; the
    # traces below represent one rank's on-node workload)
    print("\nRunning 3 steps of the adiabatic dynamics ...")
    driver = AdiabaticDriver(config, particles=particles)
    driver.run()
    for device in all_devices():
        report = price_trace(
            driver.trace, device, ProgrammingModel.SYCL, "memory_object"
        )
        print(
            f"  {device.system:9s} per-rank GPU time: "
            f"{report.total_seconds * 1e3:8.3f} ms"
        )

    # find the forming halos in the evolved dark matter
    dm = driver.particles.select(
        driver.particles.species_mask(Species.DARK_MATTER)
    )
    linking = 0.2 * particles.box / config.n_per_side
    catalog = fof(dm.positions, box, linking, min_members=8)
    print(f"\nFOF halos (b = 0.2): {catalog.n_halos}")
    if catalog.n_halos:
        print(f"  largest: {catalog.sizes[0]} particles")

    # the DBSCAN formulation used for the GPU FOF (min_points = 2
    # reduces exactly to FOF -- the ArborX equivalence)
    catalog_db = dbscan(dm.positions, box, eps=linking, min_points=2, min_members=8)
    assert catalog_db.n_halos == catalog.n_halos
    assert np.array_equal(np.sort(catalog_db.sizes), np.sort(catalog.sizes))
    print("  DBSCAN(min_points=2) reproduces the FOF catalogue exactly.")


if __name__ == "__main__":
    main()
