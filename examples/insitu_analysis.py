"""In-situ analysis of a running simulation.

The paper disables in-situ analysis for its timing study
(Section 3.4.4); this example turns it back on: the matter power
spectrum is measured at every step of a z = 200 -> 50 run, the final
state is searched for proto-halos, and the gas density PDF shows the
onset of clustering.

Run:  python examples/insitu_analysis.py
"""

import numpy as np

from repro.hacc.analysis import (
    density_pdf,
    halo_mass_function,
    measure_power_spectrum,
    radial_profile,
)
from repro.hacc.cosmology import Cosmology
from repro.hacc.halo import fof
from repro.hacc.particles import Species
from repro.hacc.power import PowerSpectrum
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig


def main() -> None:
    config = SimulationConfig(n_per_side=10)
    cosmo = Cosmology()
    driver = AdiabaticDriver(config, cosmo)
    linear = PowerSpectrum(cosmo)

    print(f"2x {config.n_per_side}^3 particles, box {config.box:.2f} Mpc/h")
    print("\nPower-spectrum growth across the run (largest-scale bin):")
    schedule = cosmo.step_schedule(config.z_initial, config.z_final, config.n_steps)

    def report_power(a: float) -> float:
        meas = measure_power_spectrum(driver.particles, n_mesh=10)
        z = cosmo.z_of_a(a)
        d2 = cosmo.growth_factor(a) ** 2
        lin = linear(np.array([meas.k[0]]))[0] * d2
        print(
            f"  z={z:6.1f}  k={meas.k[0]:.3f} h/Mpc  "
            f"P={meas.power[0]:10.4g}  linear={lin:10.4g}"
        )
        return meas.power[0]

    p_start = report_power(float(schedule[0]))
    for a0, a1 in zip(schedule[:-1], schedule[1:]):
        driver.step(float(a0), float(a1))
        report_power(float(a1))
    p_end = measure_power_spectrum(driver.particles, n_mesh=10).power[0]
    print(f"  growth factor of the measured power: {p_end / p_start:.1f}x")

    # density PDF of the evolved gas
    centres, pdf = density_pdf(driver.particles, n_mesh=8)
    spread = float(np.sqrt(np.sum(pdf * (centres - 1.0) ** 2) * (centres[1] - centres[0])))
    print(f"\nGas density PDF spread at z=50: {spread:.3f} (0 = uniform)")

    # proto-halos in the dark matter
    dm = driver.particles.select(
        driver.particles.species_mask(Species.DARK_MATTER)
    )
    linking = 0.28 * config.box / config.n_per_side
    catalog = fof(dm.positions, config.box, linking, min_members=5)
    print(f"\nFOF proto-halos (b=0.28, >=5 particles): {catalog.n_halos}")
    if catalog.n_halos:
        mf = halo_mass_function(
            catalog, particle_mass=float(dm.mass[0]), box=config.box, n_bins=4
        )
        for m, n in zip(mf.mass, mf.cumulative):
            print(f"  N(>{m:9.3g} Msun/h) = {n}")

        members = catalog.members(0)
        centre = dm.positions[members].mean(axis=0)
        r, rho = radial_profile(
            driver.particles, centre, r_max=0.45 * config.box, n_bins=6
        )
        mean_rho = driver.particles.total_mass() / config.box**3
        print("  density profile around the largest proto-halo (rho/mean):")
        for ri, di in zip(r, rho):
            print(f"    r={ri:6.3f} Mpc/h  {di / mean_rho:6.2f}")


if __name__ == "__main__":
    main()
