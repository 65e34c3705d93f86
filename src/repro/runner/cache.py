"""Content-keyed memoization of pipeline runs.

Every paper artifact sweeps a (workload, node-count, cap) grid, and many
grid points repeat across figures — e.g. the uncapped baseline shared by
every cap-response curve.  The engine is deterministic given its inputs,
so a run is fully identified by the *content* of its specification:
workload fingerprint, node configuration, cap, seed and engine config.

:class:`RunCache` memoizes any computation keyed that way, with an
in-memory LRU layer and an optional on-disk layer (a directory of pickle
files, by default ``.repro_cache/`` when enabled).  The disk layer is what
lets separate processes (repeated CLI runs, say) share results.

Every on-disk pickle in the package — cache entries, the surrogate store,
fleet checkpoints — is written by :func:`atomic_write_pickle` with a
magic header and a sha256 of its payload, and read back by
:func:`read_pickle`, which refuses any file that does not check out.

``fingerprint()`` derives a stable digest from (nested) dataclasses,
containers, numpy arrays and scalars.  Floats hash by their exact bit
pattern, so any change to a workload parameter or an
:class:`~repro.runner.engine.EngineConfig` field invalidates the key.
A frozen workload enters a fingerprint as its memoized
:func:`content_key`, so it is walked once per instance.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import logging
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

from repro import obs
from repro.vasp.parallel import layout_for
from repro.vasp.phases import PhaseList

logger = logging.getLogger(__name__)

T = TypeVar("T")


class Account:
    """A process account: plain integer counts, the only copy of each.

    A subclass names its counts in ``COUNTS`` and renders a :meth:`state`
    as ``(name, labels, value)`` counter series in ``counters(state)``
    (see :func:`repro.obs.register_stats`).
    """

    COUNTS: tuple[str, ...] = ()

    def state(self) -> dict[str, int]:
        """The counts, by name."""
        return {name: getattr(self, name) for name in self.COUNTS}

    def merge_state(self, state: dict[str, int]) -> None:
        """Add another process's counts (a worker's delta)."""
        for name, count in state.items():
            setattr(self, name, getattr(self, name) + count)

    def reset(self) -> None:
        """Zero every count."""
        for name in self.COUNTS:
            setattr(self, name, 0)


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Point-in-time effectiveness snapshot of one :class:`RunCache`."""

    name: str
    hits: int
    misses: int
    disk_hits: int
    evictions: int
    #: Unreadable disk entries (torn writes), each also counted a miss.
    disk_errors: int
    size: int
    maxsize: int
    disk_dir: str | None

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary_line(self) -> str:
        """One-line human summary (for CLI footers)."""
        line = (
            f"{self.name} cache: {self.hits} hits / {self.misses} misses"
            f" ({self.hit_rate:.0%} hit rate), {self.size}/{self.maxsize} entries"
        )
        if self.disk_dir is not None:
            line += f", {self.disk_hits} disk hits ({self.disk_dir})"
        if self.evictions:
            line += f", {self.evictions} evictions"
        return line


def _canonical(obj: Any) -> Any:
    """Reduce an object to a deterministic, hashable-by-repr structure."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # Exact bit pattern: 0.1 + 0.2 != 0.3 must key differently from 0.3.
        return ("f", obj.hex())
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__qualname__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if _is_frozen_workload(type(obj)):
            return ("content_key", content_key(obj))
        return _dataclass_fields(obj)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return ("npscalar", obj.dtype.str, obj.tobytes())
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((repr(k), _canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(_canonical(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(v)) for v in obj)))
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r}: add a dataclass or "
        f"container representation"
    )


def _dataclass_fields(obj: Any) -> tuple:
    """A dataclass instance's type and canonical fields."""
    return (
        type(obj).__module__,
        type(obj).__qualname__,
        tuple(
            (f.name, _canonical(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        ),
    )


@functools.cache
def _is_frozen_workload(cls: type) -> bool:
    """Whether a dataclass type is a frozen workload, keyed by :func:`content_key`.

    A workload exposes the engine contract (``phases`` and
    ``uncapped_runtime_s``).  The answer depends on the type alone, so
    an instance keys the same whether or not its key was memoized yet.
    """
    return (
        cls.__dataclass_params__.frozen
        and callable(getattr(cls, "phases", None))
        and callable(getattr(cls, "uncapped_runtime_s", None))
    )


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of arbitrary (dataclass/container/array) content."""
    digest = hashlib.sha256()
    digest.update(repr(tuple(_canonical(p) for p in parts)).encode("utf-8"))
    return digest.hexdigest()


#: Instance-``__dict__`` slot of a frozen dataclass's memoized content key.
_CONTENT_KEY = "_content_key"


def content_key(obj: Any) -> str:
    """The fingerprint of a workload and its model id, walked once.

    A frozen dataclass cannot change after construction, so its key is
    memoized in the instance ``__dict__`` — not a dataclass field, so it
    never enters ``_canonical``, ``__eq__`` or ``repr``, and
    ``dataclasses.replace`` builds a fresh, unkeyed instance.  Anything
    else is fingerprinted on every call, so a mutable ad-hoc workload
    keys by its current content.  ``fingerprint`` keys a frozen workload
    nested in anything (a ``RunSpec``, a fleet job) by this key, so a
    workload's fields are walked once however often it is keyed.
    """
    memo = getattr(obj, "__dict__", None)
    if memo is not None and _CONTENT_KEY in memo:
        return memo[_CONTENT_KEY]
    # Imported here: the workload registry's package imports the runner.
    from repro.workloads.registry import workload_model_id

    fields = (
        _dataclass_fields(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type)
        else _canonical(obj)
    )
    key = hashlib.sha256(
        repr((workload_model_id(obj), fields)).encode("utf-8")
    ).hexdigest()
    if (
        memo is not None
        and dataclasses.is_dataclass(obj)
        and type(obj).__dataclass_params__.frozen
    ):
        memo[_CONTENT_KEY] = key
    return key


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write a file atomically: temp sibling + ``os.replace``.

    The one atomic writer of the package: pickles (cache entries, the
    surrogate store, fleet checkpoints) and heartbeat snapshots.
    Readers never observe a torn file — they see either the previous
    content or the full new content.  The temp name carries the writer's
    pid, so concurrent shard workers targeting the same path cannot
    clobber each other's in-flight writes.  Missing parent directories
    are created.  On any failure the temp file is removed; the
    destination is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: First bytes of every file :func:`atomic_write_pickle` writes; the
#: payload's sha256 digest follows, then the payload.
PICKLE_MAGIC = b"repro-pickle-sha256\n"
_PICKLE_HEADER = len(PICKLE_MAGIC) + hashlib.sha256().digest_size


def atomic_write_pickle(path: str | Path, value: Any) -> None:
    """Atomically write a checksummed pickle of a value to a path.

    The file is :data:`PICKLE_MAGIC`, the sha256 of the pickle payload,
    then the payload (see :func:`atomic_write_bytes`); read it back with
    :func:`read_pickle`.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, PICKLE_MAGIC + hashlib.sha256(payload).digest() + payload)


def read_pickle(path: str | Path) -> Any:
    """The value :func:`atomic_write_pickle` stored at a path.

    Raises
    ------
    ValueError
        For any file that does not give the value back: missing or
        unreadable, without the header, torn or corrupted (the payload
        does not match its sha256), or holding a payload this code
        cannot unpickle.  The message names the path.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if len(data) < _PICKLE_HEADER or not data.startswith(PICKLE_MAGIC):
        raise ValueError(f"{path} is not a checksummed pickle")
    payload = data[_PICKLE_HEADER:]
    if hashlib.sha256(payload).digest() != data[len(PICKLE_MAGIC) : _PICKLE_HEADER]:
        raise ValueError(f"{path} fails its sha256 check (torn or corrupted)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # The bytes are the ones written, so only a change in the code
        # (a class moved, renamed or reshaped) fails here, and pickle
        # raises whatever the failing import or constructor raises.
        raise ValueError(
            f"{path} does not unpickle ({type(exc).__name__}: {exc})"
        ) from exc


class RunCache(Account):
    """Two-layer (LRU memory + optional disk) content-keyed result cache.

    Parameters
    ----------
    maxsize:
        In-memory LRU capacity (entries).
    disk_dir:
        Directory for the pickle layer; None keeps the cache memory-only.
        The directory is created lazily on first write.  Keys of a disk
        cache are ``str`` file stems; a memory-only cache takes any
        hashable key.
    name:
        Label for :meth:`stats` lines and the ``cache`` metric label
        (e.g. ``"run"`` vs ``"estimate"``).

    Notes
    -----
    Cached values are returned *by reference* — treat results as
    immutable (the experiment pipeline never mutates a
    :class:`~repro.runner.trace.RunResult` after the fact).
    """

    COUNTS = ("hits", "misses", "disk_hits", "evictions", "disk_errors")

    def __init__(
        self,
        maxsize: int = 256,
        disk_dir: str | Path | None = None,
        name: str = "run",
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.name = name
        self._memory: OrderedDict[Hashable, Any] = OrderedDict()
        self.reset()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.pkl"

    def get(self, key: Hashable) -> Any | None:
        """Look up a key in memory, then on disk.  None on miss."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits += 1
            return self._memory[key]
        if self.disk_dir is not None:
            path = self._disk_path(key)
            if path.is_file():
                try:
                    value = read_pickle(path)
                except ValueError as exc:
                    # A torn or corrupted entry is a miss.
                    logger.warning(
                        "%s cache: unreadable disk entry (%s); treating as miss",
                        self.name,
                        exc,
                    )
                    self.disk_errors += 1
                    self.misses += 1
                    return None
                self._remember(key, value)
                self.hits += 1
                self.disk_hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Store a value under a key in both layers."""
        self._remember(key, value)
        if self.disk_dir is not None:
            atomic_write_pickle(self._disk_path(key), value)

    def _remember(self, key: Hashable, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)
            self.evictions += 1

    def stats(self) -> CacheStats:
        """Effectiveness snapshot: hits, misses, disk hits, evictions, size."""
        return CacheStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            disk_hits=self.disk_hits,
            evictions=self.evictions,
            disk_errors=self.disk_errors,
            size=len(self._memory),
            maxsize=self.maxsize,
            disk_dir=str(self.disk_dir) if self.disk_dir is not None else None,
        )

    def counters(self, state: dict[str, int]) -> list[tuple]:
        """The ``repro_cache_*`` series one :meth:`state` renders as."""
        cache = {"cache": self.name}
        disk_hits = state["disk_hits"]
        memory_hits = state["hits"] - disk_hits
        return [
            ("repro_cache_hits_total", {**cache, "layer": "memory"}, memory_hits),
            ("repro_cache_hits_total", {**cache, "layer": "disk"}, disk_hits),
            ("repro_cache_misses_total", cache, state["misses"]),
            ("repro_cache_disk_errors_total", cache, state["disk_errors"]),
            ("repro_cache_evictions_total", cache, state["evictions"]),
        ]

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value for a key, computing and storing on miss."""
        cached = self.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value)
        return value

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and, optionally, the disk layer)."""
        self._memory.clear()
        self.reset()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for path in self.disk_dir.glob("*.pkl"):
                try:
                    path.unlink()
                except OSError as exc:
                    logger.warning(
                        "%s cache: could not remove %s (%s)", self.name, path, exc
                    )


_PROCESS_CACHES: dict[str, RunCache] = {}


def process_cache(module: str, cache: RunCache) -> RunCache:
    """Register ``cache``, owned by ``module``, as a process account.

    :func:`process_caches` lists it for the CLI footer and run ledger.
    """
    _PROCESS_CACHES[cache.name] = cache
    obs.register_stats(f"{module}:{cache.name}", cache)
    return cache


def process_caches() -> list[RunCache]:
    """This process's registered caches, by name."""
    return [_PROCESS_CACHES[name] for name in sorted(_PROCESS_CACHES)]


#: The process's phase lists, keyed by (workload content key, width).
#: Modelling one (``workload.phases``) takes about 0.5 ms: 17 take 7 ms
#: in a traced `fleet --jobs 600 --nodes 1200`, 76 take 40 ms in a traced
#: EXPERIMENTS.md pass.  Admission estimates,
#: fleet renders, experiment runs, control studies and surrogate
#: features of one (workload, width) share it — across caps, policies,
#: runs and, in a worker process, batches.  Each entry is a
#: :class:`~repro.vasp.phases.PhaseList`: the list with its phase table.
_PHASE_STORE = process_cache(__name__, RunCache(name="phases"))


def cached_phases(workload, n_nodes: int) -> PhaseList:
    """``workload.phases`` at its default layout for ``n_nodes``, built
    once per process with its :class:`~repro.vasp.phases.PhaseTable`
    (``.table``).  Callers share the list and must not mutate it."""
    key = (content_key(workload), n_nodes)
    return _PHASE_STORE.get_or_compute(
        key, lambda: PhaseList(workload.phases(layout_for(workload, n_nodes)))
    )
