"""Simulation kernels by name: the engine loops and the detailed-path backends.

:data:`KERNELS` maps every ``ProcessorConfig.kernel`` name to its run
function; :func:`repro.core.engine.run_kernel` dispatches through it.
Besides the built-in ``naive``/``skip`` loops of
:mod:`repro.core.engine`, two backends host the hot per-cycle loop
differently:

* ``vectorized`` — scoreboard and issue-queue hot state re-hosted as
  numpy structure-of-arrays (:mod:`repro.backends.soa`) under the skip
  driver.
* ``specialized`` — a per-configuration generated Python step with
  geometry, widths, latencies and scheme dispatch baked in as literals
  (:mod:`repro.backends.codegen`), compiled once, cached
  content-addressed beside the result store, and driven by the skip
  driver.

The contract every entry keeps:

* ``run(processor, total, max_cycles, warmup_instructions)`` simulates
  until ``total`` instructions commit and returns
  :class:`~repro.common.stats.SimulationStats` with the same semantics
  as :func:`repro.core.engine.run_naive`. It fills
  ``processor.kernel_telemetry`` and raises
  :class:`~repro.common.errors.SimulationError` on forward-progress
  failure.
* **Bit identity**: every statistic the run reports is field-for-field
  equal to the ``naive`` kernel's on the same inputs. A kernel is an
  execution strategy, never simulated behaviour; the randomized
  differential net (``tests/test_kernel_equivalence.py``) and the
  discovery kernel-equivalence oracle enforce this.
* A backend may replace pipeline components on the processor instance
  it is handed (the vectorized backend swaps in a numpy-mirrored
  scoreboard and SoA issue-queue adapters; the specialized backend
  binds its generated ``step``), but only state private to that
  instance: checkpoints restored *before* ``Processor.run`` (sampled
  slices) and prewarm memoization touch the memory hierarchy and
  predictor only, which backends must not rehost.
* Kernel names validate through ``ProcessorConfig.kernel``, stay
  excluded from cache fingerprints (``_FINGERPRINT_EXCLUDE``), and this
  package is part of the source material of ``SIMULATOR_VERSION_TAG``,
  so editing a backend invalidates cached results.
"""

from __future__ import annotations

from repro.common.config import (
    KERNEL_NAIVE,
    KERNEL_SKIP,
    KERNEL_SPECIALIZED,
    KERNEL_VECTORIZED,
)
from repro.core.engine import run_naive, run_skipping

from repro.backends.specialized import run_specialized
from repro.backends.vectorized import run_vectorized

__all__ = ["KERNELS"]

#: Run function by kernel name, in ``VALID_KERNELS`` order.
KERNELS = {
    KERNEL_NAIVE: run_naive,
    KERNEL_SKIP: run_skipping,
    KERNEL_VECTORIZED: run_vectorized,
    KERNEL_SPECIALIZED: run_specialized,
}
