"""Cross-lane communication cost primitives.

These are the machine-level building blocks behind the paper's five
kernel variants (Section 5.3):

- :func:`select_cycles` — an arbitrary-pattern shuffle
  (``sycl::select_from_group``).  Dedicated-shuffle hardware pays a
  small constant; Intel's indirect register access pays one cycle per
  lane (Figure 5).
- :func:`broadcast_cycles` — a compile-time-known broadcast, lowered to
  register regioning on Intel (Figure 6).
- :func:`reduce_cycles` — ``sycl::reduce_over_group``, a log2 shuffle
  tree (or the hardware's native reduction).
- :func:`visa_butterfly_cycles` — the specialized butterfly-shuffle
  written in inline vISA: four ``mov`` instructions regardless of
  sub-group size (Section 5.3.3, Figure 8).  Intel-only.
"""

from __future__ import annotations

import math

from repro.machine.device import DeviceSpec, ShuffleImplementation


class UnsupportedOperation(RuntimeError):
    """Raised when a device cannot execute the requested primitive."""


def select_cycles(device: DeviceSpec, subgroup_size: int, words: int = 1) -> float:
    """Cycles for an arbitrary cross-lane shuffle of ``words`` words."""
    return words * device.shuffle_cycles(subgroup_size)


def broadcast_cycles(device: DeviceSpec, words: int = 1) -> float:
    """Cycles to broadcast ``words`` words from a known lane."""
    return words * device.broadcast_cycles


def reduce_cycles(device: DeviceSpec, subgroup_size: int) -> float:
    """Cycles for a sub-group reduction (``reduce_over_group``).

    Implemented as a log2(subgroup) tree of compile-time shuffles; the
    conveyed communication pattern lets the compiler use the cheap
    compile-time lowering even on indirect-access hardware
    (Section 5.1's group-algorithms optimization).
    """
    steps = int(math.log2(subgroup_size))
    if device.shuffle_impl is ShuffleImplementation.DEDICATED:
        per_step = device.dedicated_shuffle_cycles
    else:
        per_step = device.broadcast_cycles
    return steps * (per_step + device.fma_cycles)


def visa_butterfly_cycles(device: DeviceSpec, words: int = 1) -> float:
    """Cycles for the inline-vISA butterfly exchange (Figure 8).

    Four ``mov`` instructions move a whole sub-group's worth of data:
    two populate the duplicated register pairs and two perform the
    shifted reads via register regioning.

    Raises :class:`UnsupportedOperation` on non-Intel hardware, which is
    what zeroes the vISA variant's performance portability in
    Figure 12.
    """
    if not device.supports_inline_visa:
        raise UnsupportedOperation(
            f"{device.name} does not accept inline vISA assembly"
        )
    # four movs move a sub-group's worth of data per exchanged word;
    # register regioning keeps them close to plain moves
    return 3.0 * words * device.fma_cycles
