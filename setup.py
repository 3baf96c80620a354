"""Build script for the optional compiled little-group kernel.

The package works without the extension (a vectorized NumPy fallback is
selected at import time), so a failed compile only costs speed.
"""
import numpy
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible; fall back to pure NumPy otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: compiled kernel skipped ({exc}); using NumPy fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); using NumPy fallback")


def kernel_extension(source):
    return Extension(
        "relqinfo._wigner_cy",
        [source],
        include_dirs=[numpy.get_include()],
        extra_compile_args=["-O3"],
    )


try:
    from Cython.Build import cythonize

    ext_modules = cythonize([kernel_extension("src/relqinfo/_wigner_cy.pyx")],
                            language_level=3)
except ImportError:  # no Cython: compile the tracked generated C file
    ext_modules = [kernel_extension("src/relqinfo/_wigner_cy.c")]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
