"""The sandboxed virtual filesystem (``sb_fs``).

"Our wrapped library simulates a file system inside a single directory.  The
library transparently maps a complete path name to the underlying files that
store the actual data, and applications can only read the files located in
their private directory.  The wrapped file handles enforce additional
restrictions, such as limitations on the disk space and the number of opened
files."

The reproduction keeps file contents in memory (per application instance),
normalises path names so escaping the private directory is impossible, and
enforces the disk-space and open-handle quotas set by the daemon or the
controller.  Exceeding the quotas makes I/O operations fail, exactly as in
the paper ("I/O operations fail (disk or network usage)").
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class SandboxFSError(Exception):
    """Raised when an operation violates the sandbox restrictions."""


@dataclass
class _FileData:
    content: bytearray = field(default_factory=bytearray)

    @property
    def size(self) -> int:
        return len(self.content)


class SandboxedFile:
    """An open file handle inside the sandboxed filesystem."""

    def __init__(self, fs: "SandboxedFS", path: str, data: _FileData, mode: str):
        self._fs = fs
        self.path = path
        self._data = data
        self.mode = mode
        self._position = len(data.content) if "a" in mode else 0
        self.closed = False

    # ------------------------------------------------------------------- I/O
    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if "r" not in self.mode and "+" not in self.mode:
            raise SandboxFSError(f"file not open for reading: {self.path}")
        content = bytes(self._data.content)
        if size is None or size < 0:
            chunk = content[self._position:]
        else:
            chunk = content[self._position:self._position + size]
        self._position += len(chunk)
        return chunk

    def write(self, data: bytes | str) -> int:
        self._check_open()
        if "r" in self.mode and "+" not in self.mode:
            raise SandboxFSError(f"file not open for writing: {self.path}")
        if isinstance(data, str):
            data = data.encode("utf-8")
        new_end = self._position + len(data)
        growth = max(0, new_end - self._data.size)
        self._fs._charge_space(growth)
        if new_end > self._data.size:
            self._data.content.extend(b"\x00" * (new_end - self._data.size))
        self._data.content[self._position:new_end] = data
        self._position = new_end
        return len(data)

    def seek(self, position: int) -> None:
        self._check_open()
        if position < 0:
            raise SandboxFSError("cannot seek before the start of the file")
        self._position = position

    def tell(self) -> int:
        return self._position

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._fs._release_handle(self)

    def __enter__(self) -> "SandboxedFile":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise SandboxFSError(f"file is closed: {self.path}")


class SandboxedFS:
    """An in-memory filesystem confined to one application instance.

    Parameters
    ----------
    max_bytes:
        Disk-space quota; writes beyond it raise :class:`SandboxFSError`.
    max_open_files:
        Maximum number of simultaneously open handles.
    """

    def __init__(self, max_bytes: Optional[int] = None, max_open_files: Optional[int] = None):
        self.max_bytes = max_bytes
        self.max_open_files = max_open_files
        self._files: Dict[str, _FileData] = {}
        self._open_handles: List[SandboxedFile] = []
        self.used_bytes = 0

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _normalise(path: str) -> str:
        """Map any path the application provides into the private directory."""
        cleaned = posixpath.normpath("/" + path.replace("\\", "/"))
        # normpath keeps a leading '/'; strip it so keys are relative, and the
        # '..' components collapse against the sandbox root rather than escape it.
        while cleaned.startswith("/"):
            cleaned = cleaned[1:]
        return cleaned or "."

    def _charge_space(self, growth: int) -> None:
        if growth <= 0:
            return
        if self.max_bytes is not None and self.used_bytes + growth > self.max_bytes:
            raise SandboxFSError(
                f"disk quota exceeded: {self.used_bytes + growth} > {self.max_bytes} bytes")
        self.used_bytes += growth

    def _release_handle(self, handle: SandboxedFile) -> None:
        if handle in self._open_handles:
            self._open_handles.remove(handle)

    # ------------------------------------------------------------------- API
    def open(self, path: str, mode: str = "r") -> SandboxedFile:
        """Open a file; creates it for write/append modes."""
        if not any(flag in mode for flag in "rwa"):
            raise SandboxFSError(f"unsupported open mode: {mode!r}")
        if self.max_open_files is not None and len(self._open_handles) >= self.max_open_files:
            raise SandboxFSError(f"too many open files (limit {self.max_open_files})")
        key = self._normalise(path)
        data = self._files.get(key)
        if data is None:
            if "r" in mode and "+" not in mode and "w" not in mode and "a" not in mode:
                raise SandboxFSError(f"no such file: {path}")
            data = _FileData()
            self._files[key] = data
        if "w" in mode:
            self.used_bytes -= data.size
            data.content = bytearray()
        handle = SandboxedFile(self, key, data, mode)
        self._open_handles.append(handle)
        return handle

    def exists(self, path: str) -> bool:
        return self._normalise(path) in self._files

    def remove(self, path: str) -> None:
        key = self._normalise(path)
        data = self._files.pop(key, None)
        if data is None:
            raise SandboxFSError(f"no such file: {path}")
        self.used_bytes -= data.size

    def listdir(self, prefix: str = "") -> List[str]:
        """List file names under ``prefix`` (flat namespace with '/' separators)."""
        key = self._normalise(prefix) if prefix else ""
        names = []
        for name in sorted(self._files):
            if not key or key == "." or name == key or name.startswith(key + "/"):
                names.append(name)
        return names

    def size(self, path: str) -> int:
        key = self._normalise(path)
        if key not in self._files:
            raise SandboxFSError(f"no such file: {path}")
        return self._files[key].size

    def write_all(self, path: str, data: bytes | str) -> int:
        """Convenience: replace a file's content."""
        with self.open(path, "w") as handle:
            return handle.write(data)

    def wipe(self) -> None:
        """Delete every file (used when the instance is undeployed)."""
        self._files.clear()
        self._open_handles.clear()
        self.used_bytes = 0
