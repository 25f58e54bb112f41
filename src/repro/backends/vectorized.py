"""The ``vectorized`` backend: SoA batching under the skip driver.

Installation is per-``Processor``-instance and purely structural: the
scoreboard is *replaced* by a :class:`~repro.backends.soa.VectorScoreboard`
adopting its state (it has exactly two persistent holders — the
processor attribute and the scheme's ``bind_scoreboard`` slot — both
rebound here), and the scheme's hot containers get their classes swapped
to the SoA subclasses, which keeps every construction path and all
existing references intact. The drive loop is the proven event-driven
skipper of :mod:`repro.core.engine`; only the inner loops change host.

The MixBUFF FP side intentionally stays interpreted (its per-queue
chain selector is already small and branchy); its integer FIFO side and
the scoreboard still vectorize — a documented partial specialization.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.core import engine
from repro.issue.conventional import ConventionalIssueQueue
from repro.issue.fifo_side import FifoSide
from repro.issue.latfifo import LatencyPlacedFifoSide
from repro.issue.mixbuff import MixBuffScheme

__all__ = ["install_vector_state", "run_vectorized"]


def install_vector_state(processor) -> None:
    """Swap the processor's hot state onto the SoA hosts (idempotent)."""
    # Imported here so numpy loads only when a vectorized run starts, not
    # in every process that looks up a kernel in ``repro.backends.KERNELS``.
    from repro.backends.soa import (
        VectorConventionalIssueQueue,
        VectorFifoSide,
        VectorLatencyPlacedFifoSide,
        VectorScoreboard,
        numpy_available,
    )

    if not numpy_available():  # pragma: no cover - numpy ships in-image
        raise SimulationError(
            "the 'vectorized' kernel requires numpy, which is not installed"
        )
    if isinstance(processor.scoreboard, VectorScoreboard):
        return  # already installed (e.g. a retried run on one instance)
    vsb = VectorScoreboard.from_scoreboard(processor.scoreboard)
    processor.scoreboard = vsb
    scheme = processor.scheme
    if isinstance(scheme, ConventionalIssueQueue):
        scheme.__class__ = VectorConventionalIssueQueue
        scheme._init_vector_state(vsb)
    else:
        int_side = getattr(scheme, "int_side", None)
        if type(int_side) is FifoSide:
            int_side.__class__ = VectorFifoSide
        fp_side = getattr(scheme, "fp_side", None)
        if type(fp_side) is FifoSide and not isinstance(scheme, MixBuffScheme):
            fp_side.__class__ = VectorFifoSide
        elif type(fp_side) is LatencyPlacedFifoSide:
            fp_side.__class__ = VectorLatencyPlacedFifoSide
        # MixBUFF's FP buffers stay interpreted (partial specialization).
    if hasattr(scheme, "bind_scoreboard"):
        scheme.bind_scoreboard(vsb)


def run_vectorized(processor, total, max_cycles, warmup_instructions):
    """Install the SoA hosts on ``processor`` and run the skip loop."""
    install_vector_state(processor)
    return engine.run_skipping(processor, total, max_cycles, warmup_instructions)
