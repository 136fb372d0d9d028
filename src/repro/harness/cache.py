"""On-disk cache of simulated experiment points.

The simulator is deterministic: a :class:`~repro.harness.parallel.PointSpec`
fully determines its :class:`~repro.harness.runner.ExperimentResult`. The
cache therefore keys results by a content fingerprint of the spec —
the SHA-256 of its canonical form plus a digest of the simulator's own
sources — and figure regeneration after the first run costs only
unpickling.

Invalidation is structural: anything that changes the canonical form (a
workload parameter, a config override, the seed) or any simulator source
file changes the fingerprint, so stale entries are never *read*; they are
merely left on disk until the directory is cleared. The source digest
covers every ``.py`` file of the package except the harness, the obs
layer and the analysis tools, which cannot change a simulated result.

The cache directory resolves, in order: explicit ``directory`` argument,
``REPRO_CACHE_DIR``, ``$XDG_CACHE_HOME/repro-commtm``, and finally
``~/.cache/repro-commtm``. Corrupt or unreadable entries count as misses.
Writes are atomic (temp file + ``os.replace``), so a sweep interrupted
mid-write never poisons later runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from ..obs.hostprof import HARNESS_PROF
from .parallel import PointSpec

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-commtm"


#: Package subdirectories left out of the source digest.
_NOT_SIMULATOR = ("harness", "obs", "analysis")

#: Source digest of this process, computed by the first fingerprint.
_source_digest: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over the simulator's sources (path and content of every
    ``.py`` file under the package, minus ``_NOT_SIMULATOR``). Computed
    once per process, on first use rather than at import."""
    global _source_digest
    if _source_digest is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] in _NOT_SIMULATOR:
                continue
            digest.update(rel.as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes() + b"\0")
        _source_digest = digest.hexdigest()
    return _source_digest


def fingerprint(spec: PointSpec) -> str:
    """Content hash identifying a point across processes and sessions."""
    payload = f"{source_digest()}\n{spec.canonical()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-point cache under a single directory.

    ``hits``/``misses`` count ``get`` outcomes, ``stores`` counts ``put``
    writes — handy for tests and for the CLI's cache summary.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, spec: PointSpec) -> Path:
        return self.directory / f"{fingerprint(spec)}.pkl"

    def get(self, spec: PointSpec):
        """Cached result for ``spec``, or None. Never raises on a bad
        entry — a corrupt file is a miss."""
        t0 = HARNESS_PROF.start()
        path = self._path(spec)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return None
        finally:
            HARNESS_PROF.stop("cache_get", t0)
        self.hits += 1
        return result

    def put(self, spec: PointSpec, result) -> None:
        """Store ``result`` atomically; a failed write is non-fatal (the
        point simply stays uncached)."""
        t0 = HARNESS_PROF.start()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(spec)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.stem, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
        finally:
            HARNESS_PROF.stop("cache_put", t0)
        self.stores += 1

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))


__all__ = ["CACHE_DIR_ENV", "ResultCache", "default_cache_dir",
           "fingerprint"]
