"""Cache integrity: checksum footers, quarantine, verify/gc.

The content-addressed result cache names every entry by the sha256 of
its *spec*; nothing in that address proves the *bytes on disk* are the
bytes the worker produced. A torn write (power loss between ``write``
and ``rename`` on a non-atomic filesystem), a bit flip, or an operator
``truncate`` leaves a file that parses as garbage — or worse, parses as
valid JSON with a wrong value.

This module closes that gap:

* every cache file carries a **checksum footer** — a final line
  ``#sha256=<hex digest of the body>`` appended after the single-line
  JSON body. Verification is one hash over the body on read;
* :func:`read_verified` is the one reader of a cache file: a file that
  cannot be read or decoded, has no footer or a wrong one, or whose
  body does not parse is ``corrupt``;
* a corrupt file is **quarantined**: moved into ``<root>/quarantine/``
  — demoted to a cache miss, never fatal, and preserved for forensics
  instead of silently unlinked;
* all filesystem traffic goes through an injectable :class:`CacheFS`
  shim so the chaos harness (:mod:`repro.resilience.chaos`) can inject
  deterministic write/fsync failures into every path that tests must
  exercise.

:func:`verify_cache` and :func:`gc_cache` back the
``python -m repro cache verify|gc`` subcommands.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import ReproError

#: Marker introducing the checksum footer line. The body is single-line
#: canonical JSON, so the *last* occurrence of ``\n#sha256=`` splits
#: body from footer unambiguously.
FOOTER_MARK = "\n#sha256="

#: Subdirectory of a cache root that holds quarantined (corrupt) files.
QUARANTINE_DIR = "quarantine"


class CacheIntegrityError(ReproError):
    """A cache file failed its checksum or structural verification."""


def body_digest(body: str) -> str:
    """sha256 hex digest of a cache file body (footer input)."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def attach_footer(body: str) -> str:
    """The on-disk representation: body + checksum footer line."""
    return f"{body}{FOOTER_MARK}{body_digest(body)}\n"


def split_verified(text: str) -> tuple[Optional[str], str]:
    """Split a cache file into ``(body, status)``.

    ``status`` is ``"ok"`` (footer present and matching) or
    ``"corrupt"`` (footer missing or wrong — body is ``None``).
    """
    idx = text.rfind(FOOTER_MARK)
    if idx < 0:
        return None, "corrupt"
    body = text[:idx]
    footer = text[idx + len(FOOTER_MARK):].strip()
    if footer == body_digest(body):
        return body, "ok"
    return None, "corrupt"


def read_verified(path: os.PathLike | str, fs: Optional[CacheFS] = None) -> tuple[Any, str]:
    """``(payload, status)`` of one cache file — the only cache reader.

    ``status`` is ``"ok"`` (footer verified, body parsed into
    ``payload``), ``"missing"`` (no such file) or ``"corrupt"``
    (unreadable, undecodable, footer missing or wrong, or a body that
    does not parse); ``payload`` is None unless ``"ok"``.
    """
    try:
        text = (fs or CacheFS()).read_text(path)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, UnicodeDecodeError):
        return None, "corrupt"
    body, _ = split_verified(text)
    if body is not None:
        try:
            return json.loads(body), "ok"
        except ValueError:
            pass
    return None, "corrupt"


# --------------------------------------------------------------------------
# Filesystem shim
# --------------------------------------------------------------------------


class CacheFS:
    """The filesystem operations the cache performs, as an object.

    The default implementation is the real filesystem with durable
    writes (flush + fsync before rename, so a crash cannot publish a
    half-written file). The chaos harness substitutes a
    :class:`~repro.resilience.chaos.FaultyFS` that fails chosen
    operations deterministically — every error-handling branch in the
    cache is reachable from a test.
    """

    def read_text(self, path: os.PathLike | str) -> str:
        return Path(path).read_text(encoding="utf-8")

    def write_text(self, path: os.PathLike | str, text: str) -> None:
        """Write + flush + fsync (durable before any subsequent rename)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())

    def replace(self, src: os.PathLike | str, dst: os.PathLike | str) -> None:
        os.replace(src, dst)

    def mkdir(self, path: os.PathLike | str) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)

    def unlink(self, path: os.PathLike | str) -> None:
        with contextlib.suppress(OSError):
            Path(path).unlink()

    def rmtree(self, path: os.PathLike | str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def move(self, src: os.PathLike | str, dst: os.PathLike | str) -> None:
        os.replace(src, dst)


def quarantine_path(root: os.PathLike | str, path: os.PathLike | str) -> Path:
    """Where ``path`` lands when quarantined under cache ``root``, unless
    an earlier corpse already holds that name (see :func:`quarantine_file`)."""
    return Path(root) / QUARANTINE_DIR / Path(path).name


def quarantine_file(
    root: os.PathLike | str, path: os.PathLike | str, fs: Optional[CacheFS] = None
) -> Optional[Path]:
    """Move a corrupt cache file into the quarantine directory.

    The corpse keeps its file name unless an earlier corpse holds it;
    then it takes the first free ``<stem>.<n><suffix>``, so no corpse is
    overwritten and a directory at an entry path always has a free name
    to move to (``os.replace`` cannot move a directory onto a file).

    Returns the new location, or None when the move itself failed (the
    file is unlinked as a last resort — a corrupt entry must never stay
    where the cache would re-read it).
    """
    fs = fs or CacheFS()
    target = quarantine_path(root, path)
    stem, suffix = target.stem, target.suffix
    n = 1
    while os.path.lexists(target):
        target = target.with_name(f"{stem}.{n}{suffix}")
        n += 1
    try:
        fs.mkdir(target.parent)
        fs.move(path, target)
        return target
    except OSError:
        fs.unlink(path)
        return None


# --------------------------------------------------------------------------
# Whole-cache audit: verify and gc
# --------------------------------------------------------------------------


@dataclass
class CacheAudit:
    """Outcome of one :func:`verify_cache` walk."""

    root: str
    scanned: int = 0
    ok: int = 0
    #: Files that failed verification (repo-relative paths).
    corrupt: list[str] = field(default_factory=list)
    #: Where each corrupt file was moved (parallel to ``corrupt``).
    quarantined: list[str] = field(default_factory=list)
    #: Leftover ``*.tmp*`` files from interrupted writes.
    tmp_orphans: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def summary(self) -> str:
        parts = [f"{self.scanned} file(s) scanned", f"{self.ok} ok",
                 f"{len(self.corrupt)} corrupt"]
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.tmp_orphans:
            parts.append(f"{len(self.tmp_orphans)} orphan tmp file(s)")
        return ", ".join(parts)


def _is_tmp(path: Path) -> bool:
    """Debris of an interrupted write: a ``*.tmp*`` sibling file."""
    return ".tmp" in path.name


def _cache_files(root: Path) -> list[Path]:
    """Every entry file under ``root``, quarantine and tmp files excluded."""
    out = []
    for path in sorted(root.rglob("*.json")):
        if QUARANTINE_DIR in path.relative_to(root).parts:
            continue
        if _is_tmp(path):
            continue
        out.append(path)
    return out


def verify_cache(
    root: os.PathLike | str,
    *,
    quarantine: bool = True,
    fs: Optional[CacheFS] = None,
) -> CacheAudit:
    """Checksum-verify every file of a cache tree.

    Files that :func:`read_verified` finds corrupt are moved to
    quarantine when ``quarantine=True``, else left in place and only
    reported.
    """
    fs = fs or CacheFS()
    root = Path(root)
    audit = CacheAudit(root=str(root))
    if not root.exists():
        return audit
    for path in _cache_files(root):
        audit.scanned += 1
        if read_verified(path, fs)[1] == "ok":
            audit.ok += 1
        else:
            audit.corrupt.append(str(path))
            if quarantine:
                moved = quarantine_file(root, path, fs)
                if moved is not None:
                    audit.quarantined.append(str(moved))
    for path in sorted(root.rglob("*")):
        if path.is_file() and _is_tmp(path):
            audit.tmp_orphans.append(str(path))
    return audit


@dataclass
class GcStats:
    """Outcome of one :func:`gc_cache` pass."""

    root: str
    removed_tmp: int = 0
    removed_stale: int = 0
    removed_quarantined: int = 0
    bytes_freed: int = 0

    def summary(self) -> str:
        return (f"{self.removed_tmp} tmp, {self.removed_stale} stale-version, "
                f"{self.removed_quarantined} quarantined file(s) removed "
                f"({self.bytes_freed:,} bytes freed)")


def gc_cache(
    root: os.PathLike | str,
    *,
    current_version: int,
    purge_quarantine: bool = False,
    fs: Optional[CacheFS] = None,
) -> GcStats:
    """Garbage-collect a cache tree.

    Removes interrupted-write tmp files, entries whose recorded cache
    version is not ``current_version`` (they would be discarded on read
    anyway) and — with ``purge_quarantine`` — previously quarantined
    corpses, directories (a directory once found at an entry path)
    included. Corrupt or unreadable files are left for
    :func:`verify_cache`.
    """
    fs = fs or CacheFS()
    root = Path(root)
    stats = GcStats(root=str(root))
    if not root.exists():
        return stats

    def _size(path: Path) -> int:
        with contextlib.suppress(OSError):
            return path.stat().st_size
        return 0

    def _rm(path: Path) -> None:
        stats.bytes_freed += _size(path)
        fs.unlink(path)

    for path in sorted(root.rglob("*")):
        if path.is_file() and _is_tmp(path):
            _rm(path)
            stats.removed_tmp += 1
    for path in _cache_files(root):
        payload, status = read_verified(path, fs)
        if status == "ok" and (not isinstance(payload, dict)
                               or payload.get("version") != current_version):
            _rm(path)
            stats.removed_stale += 1
    if purge_quarantine:
        qdir = root / QUARANTINE_DIR
        if qdir.exists():
            for path in sorted(qdir.iterdir()):
                if path.is_dir() and not path.is_symlink():
                    stats.bytes_freed += sum(
                        _size(f) for f in path.rglob("*") if f.is_file())
                    fs.rmtree(path)
                else:
                    _rm(path)
                stats.removed_quarantined += 1
            with contextlib.suppress(OSError):
                qdir.rmdir()
    return stats
