"""Best-effort build of the optional compiled kernel backend.

The package is pure Python plus one optional CPython extension module
(``src/repro/pcm/kernels/_kernels.c``).  Installation must succeed on
hosts with no C toolchain or no Python headers, so the module is built
opportunistically: a missing compiler, a missing ``Python.h`` or a
failed compile just leaves the package pure Python, and the kernel
registry degrades to the reference backend at runtime (which can also
build the module on demand into the user cache the first time the
compiled backend is requested).
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

from setuptools import setup
from setuptools.command.build_py import build_py

KERNEL_SOURCE = (
    Path(__file__).parent / "src" / "repro" / "pcm" / "kernels" / "_kernels.c"
)


class build_py_with_kernels(build_py):
    """``build_py`` plus an optional compile of the kernel module."""

    def run(self):
        super().run()
        self._build_kernel_library()

    def _build_kernel_library(self):
        if not KERNEL_SOURCE.exists():
            return
        include = sysconfig.get_paths()["include"]
        if not os.path.isfile(os.path.join(include, "Python.h")):
            self.announce(
                f"Python.h not found in {include}; skipping the optional "
                "kernel module (the pure-Python backend is byte-identical)",
                level=2,
            )
            return
        # Same compiler resolution as the runtime on-demand build:
        # REPRO_KERNEL_CC (verbatim; pointing it at a non-compiler is the
        # supported no-toolchain simulation) or the first cc on PATH.
        cc = os.environ.get("REPRO_KERNEL_CC", "").strip() or None
        if cc is None:
            cc = (shutil.which("cc") or shutil.which("gcc")
                  or shutil.which("clang"))
        if cc is None:
            self.announce(
                "no C compiler found; skipping the optional kernel module "
                "(the pure-Python backend is byte-identical)", level=2,
            )
            return
        out_dir = Path(self.build_lib) / "repro" / "pcm" / "kernels"
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"_kernels{sysconfig.get_config_var('EXT_SUFFIX')}"
        command = [cc, "-O2", "-shared", "-fPIC", f"-I{include}",
                   "-o", str(target), str(KERNEL_SOURCE)]
        if sys.platform == "darwin":  # libpython symbols resolve at import
            command[1:1] = ["-undefined", "dynamic_lookup"]
        try:
            proc = subprocess.run(command, capture_output=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is None or proc.returncode != 0:
            self.announce(
                "optional kernel module build failed; the package stays "
                "pure Python", level=2,
            )
            try:
                target.unlink()
            except OSError:
                pass


setup(cmdclass={"build_py": build_py_with_kernels})
