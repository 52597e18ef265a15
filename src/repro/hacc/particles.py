"""Structure-of-arrays particle storage.

CRK-HACC models two species (Section 3.1): dark matter, which responds
only to gravity, and baryons, which additionally carry the CRK-SPH
state.  The GPU code is SoA throughout, and this container mirrors
that: one NumPy array per field, with species selected by mask.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Species(enum.IntEnum):
    """Particle species identifiers."""

    DARK_MATTER = 0
    BARYON = 1


#: fields every particle carries
_BASE_FIELDS = ("x", "y", "z", "vx", "vy", "vz", "mass")
#: additional CRK-SPH state carried by baryons (allocated for all
#: particles to keep the SoA layout uniform, as the GPU code does)
_HYDRO_FIELDS = (
    "u",       # specific internal energy
    "rho",     # mass density
    "volume",  # CRK volume V_i
    "hsml",    # smoothing length
    "pressure",
    "cs",      # sound speed
)
#: every field of a :meth:`ParticleData.allocate`-d set
FIELDS = _BASE_FIELDS + _HYDRO_FIELDS + ("species", "pid")


@dataclass
class ParticleData:
    """SoA particle container for one MPI rank's domain.

    All positions are comoving Mpc/h in ``[0, box)``; velocities are
    comoving peculiar velocities.
    """

    box: float
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def allocate(cls, n: int, box: float) -> "ParticleData":
        """Zero-initialised storage for ``n`` particles."""
        if n < 0:
            raise ValueError("particle count must be non-negative")
        if box <= 0:
            raise ValueError("box size must be positive")
        data = cls(box=box)
        for name in _BASE_FIELDS + _HYDRO_FIELDS:
            data.arrays[name] = np.zeros(n, dtype=np.float64)
        data.arrays["species"] = np.zeros(n, dtype=np.int8)
        data.arrays["pid"] = np.arange(n, dtype=np.int64)
        return data

    # -- convenience accessors -----------------------------------------
    def __len__(self) -> int:
        return len(self.arrays["x"])

    def __getattr__(self, name: str) -> np.ndarray:
        arrays = object.__getattribute__(self, "__dict__").get("arrays")
        if arrays is not None and name in arrays:
            return arrays[name]
        raise AttributeError(name)

    @property
    def positions(self) -> np.ndarray:
        """(n, 3) position view (copies into a contiguous array)."""
        return np.column_stack([self.arrays["x"], self.arrays["y"], self.arrays["z"]])

    @property
    def velocities(self) -> np.ndarray:
        """(n, 3) velocity array."""
        return np.column_stack(
            [self.arrays["vx"], self.arrays["vy"], self.arrays["vz"]]
        )

    def set_positions(self, pos: np.ndarray) -> None:
        pos = np.asarray(pos, dtype=np.float64)
        if pos.shape != (len(self), 3):
            raise ValueError(f"expected {(len(self), 3)}, got {pos.shape}")
        self.arrays["x"][:] = pos[:, 0]
        self.arrays["y"][:] = pos[:, 1]
        self.arrays["z"][:] = pos[:, 2]

    def set_velocities(self, vel: np.ndarray) -> None:
        vel = np.asarray(vel, dtype=np.float64)
        if vel.shape != (len(self), 3):
            raise ValueError(f"expected {(len(self), 3)}, got {vel.shape}")
        self.arrays["vx"][:] = vel[:, 0]
        self.arrays["vy"][:] = vel[:, 1]
        self.arrays["vz"][:] = vel[:, 2]

    # -- species handling ------------------------------------------------
    def species_mask(self, species: Species) -> np.ndarray:
        return self.arrays["species"] == int(species)

    def count(self, species: Species | None = None) -> int:
        if species is None:
            return len(self)
        return int(self.species_mask(species).sum())

    def select(self, mask: np.ndarray) -> "ParticleData":
        """A copy restricted to ``mask`` (used for ghost exchange)."""
        out = ParticleData(box=self.box)
        for name, arr in self.arrays.items():
            out.arrays[name] = arr[mask].copy()
        return out

    def concatenated_with(self, other: "ParticleData") -> "ParticleData":
        """This rank's particles followed by ``other`` (ghosts)."""
        if other.box != self.box:
            raise ValueError("cannot merge particle sets from different boxes")
        out = ParticleData(box=self.box)
        for name, arr in self.arrays.items():
            out.arrays[name] = np.concatenate([arr, other.arrays[name]])
        return out

    # -- geometry helpers -----------------------------------------------------
    def wrap(self) -> None:
        """Apply periodic wrapping to positions (in place)."""
        for axis in ("x", "y", "z"):
            np.mod(self.arrays[axis], self.box, out=self.arrays[axis])

    def minimum_image(self, dx: np.ndarray) -> np.ndarray:
        """Minimum-image convention for displacement components."""
        half = 0.5 * self.box
        return (dx + half) % self.box - half

    # -- diagnostics --------------------------------------------------------
    def total_momentum(self) -> np.ndarray:
        """Total momentum vector (mass-weighted velocity sum)."""
        m = self.arrays["mass"]
        return np.array(
            [
                float(np.sum(m * self.arrays["vx"])),
                float(np.sum(m * self.arrays["vy"])),
                float(np.sum(m * self.arrays["vz"])),
            ]
        )

    def total_mass(self) -> float:
        return float(np.sum(self.arrays["mass"]))

    def kinetic_energy(self) -> float:
        m = self.arrays["mass"]
        v2 = self.arrays["vx"] ** 2 + self.arrays["vy"] ** 2 + self.arrays["vz"] ** 2
        return float(0.5 * np.sum(m * v2))

    def thermal_energy(self) -> float:
        mask = self.species_mask(Species.BARYON)
        return float(np.sum(self.arrays["mass"][mask] * self.arrays["u"][mask]))

    def validate(self) -> None:
        """Internal-consistency checks (uniform lengths, finite data)."""
        n = len(self)
        for name, arr in self.arrays.items():
            if len(arr) != n:
                raise ValueError(f"field {name!r} has length {len(arr)} != {n}")
        for name in _BASE_FIELDS:
            if not np.all(np.isfinite(self.arrays[name])):
                raise ValueError(f"non-finite values in field {name!r}")
