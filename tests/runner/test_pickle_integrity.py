"""Every on-disk pickle reader has one defined outcome for a bad file.

Cache entries, the surrogate store and fleet checkpoints are written by
``atomic_write_pickle`` (magic header + sha256 + payload) and read by
``read_pickle``.  A torn, truncated, extended or byte-flipped file must
get its reader's defined outcome every time — a cache miss counted in
``disk_errors``, a surrogate miss with a warning, a checkpoint
``ValueError`` — never a silent load and never another exception type.
"""

import hashlib
import logging

import numpy as np
import pytest

from repro.capping import shard
from repro.hardware.system import SystemPowerAccumulator
from repro.prediction.model import ClassRegressor, TwoStageSurrogate
from repro.prediction.store import load_surrogate, save_surrogate, store_path
from repro.runner.cache import (
    PICKLE_MAGIC,
    RunCache,
    atomic_write_bytes,
    atomic_write_pickle,
    read_pickle,
)

#: sha256 digest length, the rest of the header after the magic.
DIGEST = hashlib.sha256().digest_size
#: A checksummed payload that unpickles to an import of a missing module.
UNPICKLABLE = b"cno_such_module_for_repro\nthing\n."
FINGERPRINT = "f" * 64


def corruptions(data: bytes, max_offsets: int = 300):
    """``(label, bytes)`` variants of ``data`` that must all be refused.

    Every header byte and up to ``max_offsets`` payload offsets get a
    single-byte change; truncations cut inside the magic, the digest and
    the payload; one variant appends a byte.
    """
    header = len(PICKLE_MAGIC) + DIGEST
    rng = np.random.default_rng(0)
    stride = max(1, (len(data) - header) // max_offsets)
    offsets = list(range(header)) + list(range(header, len(data), stride))
    for offset in offsets:
        flipped = bytearray(data)
        flipped[offset] ^= int(rng.integers(1, 256))
        yield f"flip@{offset}", bytes(flipped)
    for length in (0, 1, len(PICKLE_MAGIC) - 1, len(PICKLE_MAGIC), header - 1,
                   header, header + 1, len(data) // 2, len(data) - 1):
        yield f"truncate@{length}", data[:length]
    yield "append", data + b"\0"


def unpicklable_file() -> bytes:
    return PICKLE_MAGIC + hashlib.sha256(UNPICKLABLE).digest() + UNPICKLABLE


def stand_in_surrogate() -> TwoStageSurrogate:
    """A surrogate object to store (the store reader never calls it)."""
    regressor = ClassRegressor(
        weights=np.arange(12.0).reshape(4, 3), residual_std=np.ones(3), n_samples=8
    )
    return TwoStageSurrogate(
        classifier=None,
        regressors=[regressor],
        global_regressor=regressor,
        n_samples=8,
        ridge_lambda=1.0e-3,
    )


class TestReadPickle:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "value.pkl"
        atomic_write_pickle(path, {"x": np.arange(4.0)})
        assert path.read_bytes().startswith(PICKLE_MAGIC)
        np.testing.assert_array_equal(read_pickle(path)["x"], np.arange(4.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            read_pickle(tmp_path / "absent.pkl")

    def test_plain_pickle_has_no_header(self, tmp_path):
        path = tmp_path / "plain.pkl"
        atomic_write_bytes(path, b"\x80\x05K\x01.")  # pickle of 1
        with pytest.raises(ValueError, match="not a checksummed pickle"):
            read_pickle(path)

    def test_unpicklable_payload(self, tmp_path):
        path = tmp_path / "stale.pkl"
        atomic_write_bytes(path, unpicklable_file())
        with pytest.raises(ValueError, match="does not unpickle"):
            read_pickle(path)


class TestEveryCorruptionGetsItsOutcome:
    def test_cache_entry_is_a_counted_miss(self, tmp_path, caplog):
        disk = tmp_path / "cache"
        RunCache(disk_dir=disk).put("key", {"trace": np.linspace(0.0, 1.0, 512)})
        path = disk / "key.pkl"
        intact = path.read_bytes()
        variants = [*corruptions(intact), ("unpicklable", unpicklable_file())]
        for label, data in variants:
            path.write_bytes(data)
            cache = RunCache(disk_dir=disk, name="unit")
            with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
                caplog.clear()
                assert cache.get("key") is None, label
            stats = cache.stats()
            assert (stats.misses, stats.disk_errors, stats.hits) == (1, 1, 0), label
            assert any("unreadable disk entry" in r.getMessage() for r in caplog.records)
        path.write_bytes(intact)
        np.testing.assert_array_equal(
            RunCache(disk_dir=disk).get("key")["trace"], np.linspace(0.0, 1.0, 512)
        )

    def test_surrogate_store_is_a_warned_miss(self, tmp_path, caplog):
        save_surrogate(stand_in_surrogate(), FINGERPRINT, tmp_path)
        path = store_path(tmp_path)
        intact = path.read_bytes()
        variants = [*corruptions(intact), ("unpicklable", unpicklable_file())]
        for label, data in variants:
            path.write_bytes(data)
            with caplog.at_level(logging.WARNING, logger="repro.prediction.store"):
                caplog.clear()
                assert load_surrogate(FINGERPRINT, tmp_path) is None, label
            assert any("unreadable" in r.getMessage() for r in caplog.records), label
        path.write_bytes(intact)
        assert isinstance(load_surrogate(FINGERPRINT, tmp_path), TwoStageSurrogate)

    def test_checkpoint_raises_value_error(self, tmp_path):
        fold = shard.FleetFold(SystemPowerAccumulator(n_nodes=8, bin_s=2.0))
        fold.accumulator.add_busy_interval(0.0, 600.0, 4)
        path = tmp_path / "fleet.ckpt"
        shard.save_checkpoint(
            path, shard.FleetCheckpoint(shard.CHECKPOINT_VERSION, FINGERPRINT, fold.state())
        )
        intact = path.read_bytes()
        variants = [*corruptions(intact), ("unpicklable", unpicklable_file())]
        for _, data in variants:
            path.write_bytes(data)
            with pytest.raises(ValueError, match="unreadable fleet checkpoint"):
                shard.load_checkpoint(path)
        path.write_bytes(intact)
        assert shard.load_checkpoint(path).fingerprint == FINGERPRINT
