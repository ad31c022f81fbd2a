"""Disk cache for command results.

Every calculator here is deterministic, so a result can be replayed from
disk whenever the command name, its parameters and the output format
version all agree.  Keys are content hashes of that triple; a bumped
:data:`degenloci.FORMAT_VERSION` therefore orphans old entries instead of
misreading them.  A corrupt or unreadable entry is treated as a miss, and
an entry that cannot be written is skipped.

The cache is opt-in: pass a directory on the command line or set the
``DEGENLOCI_CACHE_DIR`` environment variable.  Without a cache directory
no key is hashed, and ``hashlib`` (which loads OpenSSL) is never imported.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional

ENV_CACHE_DIR = "DEGENLOCI_CACHE_DIR"


class ResultCache:
    """Maps computation keys to JSON payloads under one directory.

    With ``directory`` None or empty every lookup misses and stores are
    dropped, so callers never need to branch on whether caching is active.
    An empty directory name means no cache, not the current directory.
    """

    def __init__(self, directory: Optional[os.PathLike | str]):
        self.directory = Path(directory) if directory not in (None, "") else None
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_environment(cls, override: Optional[str] = None) -> "ResultCache":
        """Build a cache from an explicit directory, falling back to the
        environment variable, falling back to disabled."""
        directory = override if override is not None else os.environ.get(ENV_CACHE_DIR)
        return cls(directory)

    def key(self, command: str, parameters: dict,
            format_version: int) -> Optional[str]:
        """Content hash identifying one deterministic computation, or None
        when the cache is off, so an uncached run never hashes."""
        if self.directory is None:
            return None
        import hashlib  # loads OpenSSL; only a cached run needs it

        canonical = json.dumps(
            {"command": command, "parameters": parameters,
             "format_version": format_version},
            sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def _path(self, key: Optional[str]) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def load(self, key: Optional[str], accept: Callable[[dict], bool]) -> Optional[dict]:
        """The entry stored under ``key`` if it is a JSON object that
        ``accept`` takes; anything else counts as a miss."""
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError, RecursionError):
            payload = None
        if not isinstance(payload, dict) or not accept(payload):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: Optional[str], payload: dict) -> None:
        path = self._path(key)
        if path is None:
            return
        # write-then-rename so a second process never sees a torn file; a
        # directory that cannot be written leaves the run uncached.  Keys
        # keep their order so a replayed result renders like a fresh one.
        # json.dump writes through the pure-Python encoder; dumps uses the
        # C encoder and gives the same bytes.
        temp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(temp_name, path)
        except OSError:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
