"""Shuffles the tests compose from the product's sub-group primitives."""

import numpy as np

from repro.proglang import intrinsics as I


def shuffle_xor(x: np.ndarray, mask: int) -> np.ndarray:
    """Exchange values between lanes ``l`` and ``l ^ mask``: a
    ``select_from_group`` over the XOR partner lanes."""
    return I.select_from_group(x, I.xor_partner(x.shape[-1], mask))
