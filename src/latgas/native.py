"""Build and load the package's small C kernels.

Each kernel is one ``Kernel`` record: a library name, one C source string,
a ``bind`` that wraps the library's functions in callables with the Python
twin's signature, and the twin itself.  The first use of ``.impl`` compiles
the source with the system C compiler (``gcc``, else ``cc``) into a shared
library, or loads it if it is cached.  The cache is per user
(``$XDG_CACHE_HOME/latgas``, else ``~/.cache/latgas``, else a private
temporary directory), under a name tagged with a hash of the source and the
flags, so an edited kernel is rebuilt and never mixed up with an old one.
Every kernel is built with the same flags; ``-ffp-contract=off`` keeps the
compiler from fusing multiplies and adds, so a kernel rounds as the numpy
reference written with the same operations does.  Without a compiler, or
when the build fails, ``.impl`` is the Python twin, which stays the
reference the tests compare the kernel against; ``.backend`` reports
``"c"`` or ``"python"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable


def _find_compiler():
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    path = os.path.join(base, "latgas")
    try:
        os.makedirs(path, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    path = os.path.join(tempfile.gettempdir(), f"latgas-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    # a shared temporary directory: load nothing another user could plant
    if os.stat(path).st_uid != os.getuid():
        raise OSError(f"{path} is owned by another user")
    return path


_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def load(name, source):
    """The compiled library ``name`` as a ``ctypes.CDLL``, building it if it
    is not cached yet; None when there is no compiler or the build fails."""
    tag = hashlib.blake2b("\0".join((source,) + _FLAGS).encode(),
                          digest_size=8).hexdigest()
    try:
        cache = _cache_dir()
        lib_path = os.path.join(cache, f"{name}-{tag}.so")
        if not os.path.exists(lib_path):
            cc = _find_compiler()
            if cc is None:
                return None
            # build under a private name, then rename: concurrent workers
            # each see either no library or a complete one
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                src = os.path.join(tmp, f"{name}.c")
                with open(src, "w") as fh:
                    fh.write(source)
                out = os.path.join(tmp, f"{name}.so")
                subprocess.run([cc, *_FLAGS, "-o", out, src],
                               check=True, capture_output=True, timeout=120)
                os.replace(out, lib_path)
        return ctypes.CDLL(lib_path)
    except (OSError, subprocess.SubprocessError):
        return None


@dataclass(eq=False)
class Kernel:
    """A C kernel and its Python twin.  ``bind(lib)`` declares the ctypes
    signatures of the loaded library and returns what ``python`` is: a
    callable, or a tuple of them, taking the same arguments."""

    name: str
    source: str
    bind: Callable[[ctypes.CDLL], Any]
    python: Any

    @cached_property
    def impl(self):
        """The compiled callables, or the Python twin when ``load`` gives
        None; resolved once, on first use."""
        lib = load(self.name, self.source)
        return self.python if lib is None else self.bind(lib)

    @property
    def backend(self):
        """Which one ``impl`` is: ``"c"`` or ``"python"``."""
        return "python" if self.impl is self.python else "c"
