"""Computable core of relativistic quantum information.

Subpackages: qstate (density matrices and measures), channel (quantum
operations and causality), lorentz (kinematics and little groups),
wavepacket (massive spin-1/2 packets), photon (polarization POVMs and
Doppler effects), horizon (Unruh and black-hole calculators), cli
(scenario runner).

Importing the package loads none of them: relqinfo.photon and the other
names in __all__ import their module on first access.
"""
__version__ = "0.1.0"

__all__ = [
    "channel",
    "horizon",
    "kernels",
    "lorentz",
    "photon",
    "qstate",
    "wavepacket",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:  # a submodule not imported yet
        # __import__, unlike importlib.import_module, takes the path of the
        # import statement, which -X importtime reports; it binds the name
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
