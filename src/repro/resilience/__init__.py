"""Crash-safe, self-healing persistence for the experiment harness.

Every durable artifact the harness writes — ``.espt`` traces, result-cache
JSON, grid manifests — can be hit by bit-flips, torn writes, or partial
sweeps. This package makes that corruption *detectable* (content
checksums, :mod:`repro.resilience.integrity`), *visible* (quarantine
directory, ``cache.corrupt`` metrics, ``corrupt`` run-log records) and
*recoverable* (regeneration, and resumable grid manifests via
:mod:`repro.resilience.manifest`). The task is the recovery unit: a
worker lost mid-simulation — killed, hung, or out of memory — re-runs
its task from the first event through the runner's one retry ladder. A
deterministic fault-injection harness (:mod:`repro.resilience.faults`,
``REPRO_FAULTS``) proves the recovery paths: a figure grid run under
injected worker kills, artifact corruption, torn writes and grid
interrupts must still produce results bit-identical to a clean serial
run.
"""

from repro.resilience.faults import (FaultPlan, GridInterrupt,
                                     get_fault_plan, set_fault_plan)
from repro.resilience.integrity import (IntegrityError, payload_digest,
                                        quarantine, unwrap_result,
                                        wrap_result)
from repro.resilience.manifest import (GridManifest, config_from_dict,
                                       config_to_dict)

__all__ = [
    "FaultPlan",
    "GridInterrupt",
    "GridManifest",
    "IntegrityError",
    "config_from_dict",
    "config_to_dict",
    "get_fault_plan",
    "payload_digest",
    "quarantine",
    "set_fault_plan",
    "unwrap_result",
    "wrap_result",
]
