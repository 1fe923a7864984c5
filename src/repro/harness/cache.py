"""Content-addressed on-disk cache for experiment runs.

Every experiment cell — one ``(workload, params, warmup, nprocs, mode,
config, network)`` combination — is deterministic, so its
:class:`~repro.harness.runner.RunResult` can be stored once and replayed
from disk forever.  The cache key is a SHA-256 digest over

* a canonical rendering of the cell (workload name + params, warmup
  profile, process count, mode, every ``ChameleonConfig`` field, every
  ``NetworkModel`` field), and
* the cache **schema version** plus a **code fingerprint** (a digest of
  every ``repro`` source file), so editing the simulator — the
  instrumentation cost model (``DEFAULT_COSTS``) included, a constant in
  the sources — or bumping :data:`CACHE_SCHEMA_VERSION` cold-starts the
  cache instead of serving stale results.

Layout on disk (everything under one root, default ``.repro-cache`` or
``$REPRO_CACHE_DIR``)::

    <root>/v<schema>-<fingerprint12>/<digest[:2]>/<digest>.pkl

Entries are pickles of ``{"schema", "digest", "checksum", "blob"}`` where
``blob`` is the pickled result and ``checksum`` its SHA-256 — so a bit
flip anywhere in the payload (partial write, disk corruption) is caught
on read, not just gross truncation.  A corrupt, truncated, or mismatching
entry is deleted on read and counted as an invalidation, never returned;
give the cache an :class:`~repro.obs.instrument.Instrument` to surface
those invalidations as ``fault``-category events.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..obs.instrument import NULL_INSTRUMENT, Instrument

#: Bump whenever the semantics of a run change in a way the digest inputs
#: cannot see (e.g. a new RunResult field with behavioural meaning).
#: v2: checksummed entry payloads.
CACHE_SCHEMA_VERSION = 2

#: Environment variable naming the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the cache entirely when set to "1".
ENV_NO_CACHE = "REPRO_NO_CACHE"


# ---------------------------------------------------------------------------
# canonical rendering + digests
# ---------------------------------------------------------------------------


def canonical(obj: Any) -> str:
    """A stable, order-independent textual form of ``obj`` for hashing.

    Dataclasses render as ``Name(field=..., ...)`` in field order, dicts
    and sets sort their members, enums render by name — so two logically
    equal cells always hash identically regardless of construction order.
    """
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, dict):
        body = ",".join(
            f"{canonical(k)}:{canonical(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(canonical(v) for v in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in obj)) + "}"
    if isinstance(obj, float):
        return repr(obj)
    return repr(obj)


def digest_of(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``obj``."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (computed once per process).

    Folding the package sources into the cache namespace means a code
    change — new cost constants, a fixed clustering bug — silently starts
    a fresh cache generation rather than replaying stale results.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _CODE_FINGERPRINT = h.hexdigest()
    return _CODE_FINGERPRINT


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the working dir."""
    return Path(os.environ.get(ENV_CACHE_DIR) or ".repro-cache")


def cache_disabled_by_env() -> bool:
    return os.environ.get(ENV_NO_CACHE, "0") == "1"


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

#: Per-process counter feeding spill names.  Combined with the pid, two
#: writers — same process or different processes racing on one digest —
#: can never share a spill path, so neither can truncate the other's
#: in-flight file before its atomic ``os.replace``.
_SPILL_COUNTER = itertools.count()

#: Spill name suffix: ``<entry>.<pid>-<counter>.tmp``.  ``verify`` parses
#: the pid back out to tell a live writer's spill from a dead one's.
_SPILL_RE = re.compile(r"\.(\d+)-(\d+)\.tmp$")


def _spill_path(path: Path) -> Path:
    """A unique spill path next to ``path`` for this process."""
    return path.parent / (
        f"{path.name}.{os.getpid()}-{next(_SPILL_COUNTER)}.tmp"
    )


def _spill_writer_alive(path: Path) -> bool:
    """Whether ``path`` is a pid-tagged spill whose writer still runs.

    Legacy or unparsable ``.tmp`` names report ``False`` (treated as
    orphans, as before); a parsed pid is probed with ``kill(pid, 0)``.
    """
    match = _SPILL_RE.search(path.name)
    if match is None:
        return False
    pid = int(match.group(1))
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - platform oddity: assume dead
        return False
    return True


@dataclass
class CacheStats:
    """Counters one :class:`RunCache` accumulates over its lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0  # corrupt / schema-mismatched entries deleted

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class CacheVerifyReport:
    """What one :meth:`RunCache.verify` sweep found (and removed).

    ``corrupt`` entries live in the current generation but fail schema,
    key or checksum validation; ``orphaned`` files are leftover ``.tmp``
    spills from interrupted writes and entries stranded in stale
    generation directories that no current code can ever read.
    ``in_flight`` spills carry the pid of a still-running writer — a
    racer mid-``put`` — and are neither damage nor removable.
    """

    generation: str = ""
    scanned: int = 0
    ok: int = 0
    corrupt: list[str] = dataclasses.field(default_factory=list)
    orphaned: list[str] = dataclasses.field(default_factory=list)
    in_flight: list[str] = dataclasses.field(default_factory=list)
    removed: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.orphaned

    def as_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "orphaned": list(self.orphaned),
            "in_flight": list(self.in_flight),
            "removed": self.removed,
        }

    def summary(self) -> str:
        state = "clean" if self.clean else "damaged"
        return (
            f"cache {state}: {self.scanned} scanned | {self.ok} ok | "
            f"{len(self.corrupt)} corrupt | {len(self.orphaned)} orphaned"
            + (f" | {len(self.in_flight)} in flight" if self.in_flight
               else "")
            + (f" | {self.removed} removed" if self.removed else "")
        )


class RunCache:
    """Content-addressed pickle store for :class:`RunResult` objects."""

    def __init__(
        self,
        root: str | Path | None = None,
        schema: int = CACHE_SCHEMA_VERSION,
        fingerprint: str | None = None,
        instrument: Instrument = NULL_INSTRUMENT,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.schema = schema
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()
        self.instrument = instrument

    @property
    def generation(self) -> str:
        """Directory name of the current (schema, code) generation."""
        return f"v{self.schema}-{self.fingerprint[:12]}"

    def path_for(self, digest: str) -> Path:
        return self.root / self.generation / digest[:2] / f"{digest}.pkl"

    # -- read/write --------------------------------------------------------

    def _load_checked(self, path: Path, digest: str) -> bytes:
        """The verified result blob stored at ``path``, or raise.

        One validation path for :meth:`get` and :meth:`verify`: the
        stored schema and digest must match the key and the payload's
        SHA-256 checksum must verify.
        """
        with path.open("rb") as fh:
            payload = pickle.load(fh)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.schema
            or payload.get("digest") != digest
        ):
            raise ValueError("cache entry does not match its key")
        blob = payload["blob"]
        if hashlib.sha256(blob).hexdigest() != payload.get("checksum"):
            raise ValueError("cache entry failed checksum verification")
        return blob

    def get(self, digest: str) -> Any | None:
        """The cached result for ``digest``, or None on miss/invalid.

        A hit requires the stored schema and digest to match the key *and*
        the payload's SHA-256 checksum to verify — anything else (corrupt,
        truncated, bit-flipped, stale-schema) deletes the entry, counts an
        invalidation, and reads as a plain miss.
        """
        path = self.path_for(digest)
        try:
            blob = self._load_checked(path, digest)
            self.stats.hits += 1
            return pickle.loads(blob)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception as exc:
            # corrupt / truncated / stale-schema entry: remove and miss
            self.stats.invalidated += 1
            self.stats.misses += 1
            ins = self.instrument
            if ins.enabled:
                ins.instant(-1, "cache_corrupt", "fault", 0.0,
                            {"digest": digest, "error": str(exc)})
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, digest: str, result: Any) -> Path:
        """Atomically store ``result`` under ``digest``.

        The spill file is named ``<entry>.<pid>-<counter>.tmp`` — unique
        per writer, so two processes racing on the same digest each
        complete their own write-then-rename and the loser's replace
        simply overwrites the winner's identical entry.  A live racer's
        spill is recognized by :meth:`verify` (pid probe) instead of
        being miscounted as an orphan.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "schema": self.schema,
            "digest": digest,
            "checksum": hashlib.sha256(blob).hexdigest(),
            "blob": blob,
        }
        tmp = _spill_path(path)
        try:
            with open(tmp, "xb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[Path]:
        """Every entry of the current generation."""
        gen = self.root / self.generation
        return sorted(gen.rglob("*.pkl")) if gen.is_dir() else []

    def clear(self) -> int:
        """Delete the current generation's entries; returns the count."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def verify(self, fix: bool = False) -> CacheVerifyReport:
        """Sweep the store for damaged and orphaned files.

        Every entry of the current generation is re-validated through the
        same schema/digest/checksum path :meth:`get` uses; ``.tmp``
        leftovers from interrupted writes and entries stranded in stale
        generation directories are reported as orphans.  A spill whose
        pid-tagged writer is still alive is an in-flight write, not an
        orphan — it is reported separately and never removed.  With
        ``fix``,
        corrupt and orphaned files are deleted (reads would delete the
        corrupt ones lazily anyway — this just front-loads the cost) and
        counted in ``removed``.  Damage found is surfaced through the same
        ``fault``-category instrument hooks as lazy invalidation.
        """
        report = CacheVerifyReport(generation=self.generation)
        for path in self.entries():
            report.scanned += 1
            try:
                self._load_checked(path, path.stem)
                report.ok += 1
            except Exception as exc:
                report.corrupt.append(str(path))
                self.stats.invalidated += 1
                if self.instrument.enabled:
                    self.instrument.instant(
                        -1, "cache_corrupt", "fault", 0.0,
                        {"digest": path.stem, "error": str(exc)},
                    )
        if self.root.is_dir():
            for path in sorted(self.root.rglob("*.tmp")):
                if _spill_writer_alive(path):
                    report.in_flight.append(str(path))
                else:
                    report.orphaned.append(str(path))
            for gen_dir in sorted(self.root.iterdir()):
                if not gen_dir.is_dir() or gen_dir.name == self.generation:
                    continue
                if not gen_dir.name.startswith("v"):
                    continue
                report.orphaned.extend(
                    str(p) for p in sorted(gen_dir.rglob("*.pkl"))
                )
        if fix:
            for name in report.corrupt + report.orphaned:
                try:
                    Path(name).unlink()
                    report.removed += 1
                except OSError:
                    pass
        return report
