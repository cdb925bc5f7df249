"""Content-hash keys: stable, and sensitive to every input that matters."""

import pytest

from repro.runner.checkpoint import sweep_key
from repro.runner.core import SweepSpec
from repro.runner import hashing
from repro.runner.hashing import (
    ENGINE_SIGNATURE,
    canonical_json,
    content_hash,
    point_key,
)
from repro.simnet.topology import DumbbellConfig
from repro.transport.cubic import CubicParams
from repro.workload.onoff import OnOffConfig

from tests.runner.conftest import MINI_GRID, MINI_PRESET


def default_key(**overrides):
    kwargs = dict(
        params=CubicParams.default(),
        config=DumbbellConfig(),
        workload=OnOffConfig(),
        duration_s=60.0,
        seed=0,
    )
    kwargs.update(overrides)
    return point_key(**kwargs)


class TestPointKey:
    def test_stable_across_calls(self):
        assert default_key() == default_key()

    def test_is_hex_sha256(self):
        key = default_key()
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_sensitive_to_params(self):
        assert default_key() != default_key(params=CubicParams(beta=0.5))

    def test_sensitive_to_seed(self):
        assert default_key() != default_key(seed=1)

    def test_sensitive_to_duration(self):
        assert default_key() != default_key(duration_s=30.0)

    def test_sensitive_to_topology(self):
        assert default_key() != default_key(config=DumbbellConfig(n_senders=4))

    def test_sensitive_to_workload(self):
        assert default_key() != default_key(
            workload=OnOffConfig(mean_on_bytes=100_000)
        )

    def test_none_workload_distinct(self):
        assert default_key() != default_key(workload=None)

    def test_sensitive_to_engine_signature(self, monkeypatch):
        # Bumping the engine signature must invalidate every cached point.
        key = default_key()
        monkeypatch.setattr(hashing, "ENGINE_SIGNATURE", ENGINE_SIGNATURE + "-next")
        assert default_key() != key


def test_an_enum_hashes_as_its_value():
    from repro.phi.plane import SharingMode

    mode = next(iter(SharingMode))
    assert hashing.plain({"mode": mode}) == {"mode": mode.value}


class TestPinnedKeys:
    """Literal key values, computed once and never recomputed here.

    The tests above only compare keys with each other, so a change to
    the canonical encoding could move every key -- and silently orphan
    every cache and journal on disk -- while they all still pass.
    """

    def test_default_point_key(self):
        assert default_key() == (
            "624de527b247c7c17fb0972c7ce99618e3042e58902577de7bc4f4150c0fecf6"
        )

    def test_sweep_key(self):
        assert sweep_key(SweepSpec(preset=MINI_PRESET), MINI_GRID, 2, 0) == (
            "1bcb50c59348f8b78ba6e7178004b02a9d97f446d82a6ac76af1ed1d2c801015"
        )


class TestCanonicalEncoding:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_content_hash_dict_order_invariant(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_content_hash_handles_nested_dataclasses(self):
        payload = {"params": CubicParams.default(), "values": [1, 2.5, "x", None]}
        assert content_hash(payload) == content_hash(payload)

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            content_hash({"bad": object()})
