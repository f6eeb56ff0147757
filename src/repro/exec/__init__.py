"""Pluggable execution backends for the experiment harness.

``ExperimentRunner.run_many`` delegates batch execution to an
:class:`~repro.exec.base.ExecutionBackend`, selected by the
``REPRO_BACKEND`` environment variable (or the ``backend`` constructor
argument / ``--backend`` CLI flag): ``serial``, ``process``, or
``auto`` — which measures the machine shape (:mod:`repro.exec.auto`)
and resolves to ``serial`` or ``process``. See :mod:`repro.exec.base`
for the interface contract and the per-backend rationale.
"""

from repro.exec.auto import BackendChoice, auto_pick
from repro.exec.base import (BACKEND_NAMES, ExecutionBackend, SerialBackend,
                             jittered_backoff)
from repro.exec.process import ProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "BackendChoice",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "auto_pick",
    "jittered_backoff",
    "make_backend",
]

_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate the concrete backend called ``name`` (``auto`` is not
    concrete — resolve it through :func:`auto_pick` first)."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; expected one of "
            f"{sorted(_BACKENDS)}") from None
