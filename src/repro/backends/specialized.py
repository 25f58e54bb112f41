"""The ``specialized`` backend: per-configuration compiled steps.

Profiles of the detailed path show CPython *call* overhead — the
``IssueContext`` checks, per-operand scoreboard accessors,
``StatCounters.add`` — dwarfing the actual work, so this backend
generates one flat per-cycle step per processor configuration
(:mod:`repro.backends.codegen`), compiles it once, caches it
content-addressed beside the result store
(:mod:`repro.backends.kernel_cache`), and drives it through the skip
kernel's loop. Warm runs skip codegen entirely: in-process via the
module memo, across processes via the on-disk cache.
"""

from __future__ import annotations

from repro.core import engine

from repro.backends import codegen, kernel_cache

__all__ = ["run_specialized"]


def run_specialized(processor, total, max_cycles, warmup_instructions):
    """Bind the generated step on ``processor`` and run the skip loop."""
    module = kernel_cache.load_kernel_module(codegen.kernel_spec(processor.config))
    processor.step = module.make_step(processor)
    return engine.run_skipping(processor, total, max_cycles, warmup_instructions)
