"""Compute-backend registry: pure-stdlib kernels vs array-native kernels.

The scheduler pipeline ships two interchangeable kernel sets for its hot
stages (timeline sweeps + DCS construction, the auxiliary-graph build, and
the greedy Steiner expansion):

* ``"python"`` — the pure-stdlib implementations, including the compact
  CSR auxiliary-graph builder
  (:func:`repro.auxgraph.compact.build_compact_aux_graph`).  Always
  available; the bit-for-bit parity oracle for the numpy kernels (the
  test suite keeps a networkx construction as the oracle for the CSR
  builder in turn).
* ``"numpy"`` — batched array implementations
  (:mod:`repro.compute.numpy_backend`).  Optional: selected only when
  numpy imports, and constructed to mirror the stdlib path *byte for
  byte* — same schedules, same work counters, same ``config_hash``.

``"auto"`` (the default everywhere a ``compute=`` parameter appears)
prefers ``"numpy"`` when importable and falls back to ``"python"``; the
``REPRO_COMPUTE`` environment variable overrides the auto choice, which is
how CI pins an explicitly numpy-free leg.  The chosen backend is a
performance knob, never part of a plan's identity: it does not enter
:func:`repro.api.plan_config` or the manifest ``config_hash``.

Names are normalized like scheduler names — case-insensitive, with
hyphens/underscores/spaces interchangeable — so ``"NumPy"`` and ``"np"``
resolve to ``"numpy"``.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import SolverError

__all__ = [
    "COMPUTE_BACKENDS",
    "canonical_compute_name",
    "has_numpy",
    "resolve_compute",
]

#: accepted ``compute=`` spellings (canonical forms)
COMPUTE_BACKENDS = ("auto", "python", "numpy")

_ALIASES = {
    "np": "numpy",
    "vectorized": "numpy",
    "stdlib": "python",
    "pure": "python",
    "default": "auto",
}

#: environment variable overriding the ``"auto"`` resolution
COMPUTE_ENV_VAR = "REPRO_COMPUTE"

_HAS_NUMPY: Optional[bool] = None


def canonical_compute_name(name) -> str:
    """Resolve a compute-backend name or alias to its canonical form.

    ``None`` means ``"auto"``.  Spellings are case-insensitive and treat
    hyphens, underscores, and spaces interchangeably, mirroring
    :func:`repro.algorithms.base.canonical_scheduler_name`.  Raises
    :class:`~repro.errors.SolverError` listing the canonical names when
    nothing matches.
    """
    if name is None:
        return "auto"
    key = str(name).strip().lower()
    key = key.replace("_", "-").replace(" ", "-").replace("-", "")
    key = _ALIASES.get(key, key)
    if key in COMPUTE_BACKENDS:
        return key
    raise SolverError(
        f"unknown compute backend {name!r}; choose from "
        f"{', '.join(COMPUTE_BACKENDS)}"
    )


def has_numpy() -> bool:
    """True when numpy is importable (checked once, then cached)."""
    global _HAS_NUMPY
    if _HAS_NUMPY is None:
        try:
            import numpy  # noqa: F401

            _HAS_NUMPY = True
        except ImportError:
            _HAS_NUMPY = False
    return _HAS_NUMPY


def resolve_compute(name=None) -> str:
    """Resolve a compute spec to the backend that will actually run.

    ``None`` / ``"auto"`` consults the ``REPRO_COMPUTE`` environment
    variable first, then prefers ``"numpy"`` when importable and falls
    back to ``"python"``.  An explicit ``"numpy"`` request raises
    :class:`~repro.errors.SolverError` when numpy is missing (a silent
    fallback would misreport what was measured).
    """
    key = canonical_compute_name(name)
    if key == "auto":
        env = os.environ.get(COMPUTE_ENV_VAR, "").strip()
        if env:
            key = canonical_compute_name(env)
        if key == "auto":
            return "numpy" if has_numpy() else "python"
    if key == "numpy" and not has_numpy():
        raise SolverError(
            "compute='numpy' requested but numpy is not importable; "
            "install the optional extra (pip install repro[fast]) or use "
            "compute='auto'"
        )
    return key
