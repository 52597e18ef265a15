"""Property tests for the canonical config hash.

The hash keys the service result cache and travels inside simulation
checkpoints, so the contract is sharp: *semantically equal* configs
must hash identically regardless of construction order or numeric
representation, and any *near-miss* (one field nudged) must diverge.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hacc.confighash import canonical_json, canonicalize, config_hash

# -- strategies --------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

_config_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12), _values, min_size=1, max_size=6
)


class Mode(enum.Enum):
    FAST = "fast"
    EXACT = "exact"


@dataclasses.dataclass(frozen=True)
class DemoConfig:
    n: int = 8
    dt: float = 0.5
    name: str = "run"
    flags: tuple = (1, 2)


# -- invariance --------------------------------------------------------


class TestPermutationInvariance:
    @given(_config_dicts, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_key_order_never_changes_the_hash(self, config, rng):
        items = list(config.items())
        rng.shuffle(items)
        permuted = dict(items)
        assert permuted == config
        assert config_hash(permuted) == config_hash(config)

    @given(st.sets(st.integers(min_value=-100, max_value=100), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_set_iteration_order_is_canonicalised(self, values):
        a = set(values)
        b = {v for v in sorted(values, reverse=True)}
        assert config_hash(a) == config_hash(b)

    def test_equal_dataclasses_hash_equal(self):
        assert config_hash(DemoConfig()) == config_hash(
            DemoConfig(n=8, dt=0.5, name="run", flags=(1, 2))
        )

    def test_tuple_and_list_are_one_sequence_form(self):
        assert config_hash((1, 2, 3)) == config_hash([1, 2, 3])


class TestNearMissDivergence:
    @given(_config_dicts, st.text(min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_adding_a_field_changes_the_hash(self, config, extra_key):
        grown = dict(config)
        grown[extra_key] = "<sentinel-not-in-values>"
        if grown == config:
            return  # the key happened to exist with that exact value
        assert config_hash(grown) != config_hash(config)

    @pytest.mark.parametrize(
        "nudge",
        [
            {"n": 9},
            {"dt": 0.5000001},
            {"name": "run2"},
            {"flags": (1, 2, 3)},
        ],
    )
    def test_nudged_dataclass_field_diverges(self, nudge):
        assert config_hash(
            dataclasses.replace(DemoConfig(), **nudge)
        ) != config_hash(DemoConfig())

    def test_int_and_equal_float_are_distinct(self):
        # 1 and 1.0 compare equal in Python but are different dtypes
        # in a config; the canonical form keeps them apart
        assert config_hash({"a": 1}) != config_hash({"a": 1.0})

    def test_string_digits_differ_from_numbers(self):
        assert config_hash({"a": "1"}) != config_hash({"a": 1})


class TestNumericStability:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_numpy_ints_hash_like_python_ints(self, value):
        for dtype in (np.int32, np.int64):
            assert config_hash(dtype(value)) == config_hash(value)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=50, deadline=None)
    def test_numpy_float64_of_same_value_matches_python_float(self, value):
        assert config_hash(np.float64(value)) == config_hash(float(value))

    def test_numpy_array_hashes_like_nested_lists(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert config_hash(arr) == config_hash([[1.0, 2.0], [3.0, 4.0]])

    def test_negative_zero_normalises(self):
        assert config_hash({"x": -0.0}) == config_hash({"x": 0.0})

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            config_hash({"x": float("nan")})

    def test_infinities_are_rejected(self):
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                config_hash({"x": bad})

    def test_enum_hashes_by_identity_not_value_alone(self):
        assert config_hash(Mode.FAST) != config_hash(Mode.EXACT)
        assert config_hash(Mode.FAST) != config_hash("fast")


class TestCanonicalJson:
    @given(_config_dicts)
    @settings(max_examples=50, deadline=None)
    def test_canonical_json_is_valid_sorted_json(self, config):
        text = canonical_json(config)
        decoded = json.loads(text)
        assert decoded == json.loads(canonical_json(decoded))

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({1: "a"})

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_hash_is_hex_sha256(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 64
        int(digest, 16)  # parses as hex
        assert config_hash({"a": 1}, length=12) == digest[:12]


class TestRealConfigs:
    """The hash over the repo's actual config dataclasses."""

    def test_simulation_config_roundtrip_stability(self):
        from repro.hacc.timestep import SimulationConfig

        a = SimulationConfig(n_per_side=6, n_steps=2)
        b = SimulationConfig(n_per_side=6, n_steps=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(
            SimulationConfig(n_per_side=6, n_steps=3)
        )

    def test_ic_config_content_hash_helper(self):
        from repro.hacc.ic import ICConfig

        assert ICConfig(n_per_side=4).content_hash() == config_hash(
            ICConfig(n_per_side=4)
        )
        assert (
            ICConfig(n_per_side=4).content_hash()
            != ICConfig(n_per_side=4, seed=1).content_hash()
        )

    def test_job_spec_products_order_is_canonical(self):
        from repro.service.jobs import JobSpec

        a = JobSpec(products=("trace", "diagnostics"))
        b = JobSpec(products=("diagnostics", "trace"))
        assert a.content_hash() == b.content_hash()
