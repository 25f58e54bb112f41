"""In-flight instruction state.

The trace is immutable; everything the pipeline learns about an
instruction (renamed registers, ROB slot, issue/completion cycles, queue
placement) lives in an :class:`InFlight` wrapper created at dispatch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction

__all__ = ["InFlight"]


class InFlight:
    """One dispatched, not-yet-committed instruction."""

    __slots__ = (
        "inst",
        "op",
        "seq",
        "fu_type",
        "src_phys",
        "dest_phys",
        "prev_phys",
        "rob_index",
        "age",
        "dispatch_cycle",
        "issue_cycle",
        "complete_cycle",
        "queue_index",
        "chain_id",
        "delayed",
        "est_issue_cycle",
        "store_addr_known_cycle",
    )

    def __init__(
        self,
        inst: Instruction,
        src_phys: List[Tuple[bool, int]],
        dest_phys: Optional[Tuple[bool, int]],
        prev_phys: Optional[Tuple[bool, int]],
        rob_index: int,
        age: int,
        dispatch_cycle: int,
    ) -> None:
        self.inst = inst
        # Static facts of the wrapped instruction, copied once so the
        # per-cycle stages read plain slots (``inst`` is never replaced).
        self.op = inst.op
        self.seq = inst.seq
        self.fu_type = inst.op.fu_type
        self.src_phys = src_phys
        self.dest_phys = dest_phys
        self.prev_phys = prev_phys
        self.rob_index = rob_index
        self.age = age
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        # Multi-queue scheme bookkeeping.
        self.queue_index: Optional[int] = None
        self.chain_id: Optional[int] = None
        self.delayed = False
        self.est_issue_cycle: Optional[int] = None
        # For stores: cycle at which the address is known (set at issue).
        self.store_addr_known_cycle: Optional[int] = None

    @property
    def issue_srcs(self) -> List[Tuple[bool, int]]:
        """Operands that must be ready for the instruction to *issue*.

        Stores are split into address computation and data movement
        (Section 3.1): they issue once the address operands are ready
        — by trace convention ``srcs[0]`` is the data register and the
        rest are address operands — and read their data at commit, which
        in-order retirement guarantees is ready by then.
        """
        if self.op.is_store and len(self.src_phys) > 1:
            return self.src_phys[1:]
        return self.src_phys

    @property
    def issued(self) -> bool:
        return self.issue_cycle is not None

    @property
    def completed(self) -> bool:
        return self.complete_cycle is not None

    def __repr__(self) -> str:
        state = "done" if self.completed else ("issued" if self.issued else "waiting")
        return f"InFlight(#{self.seq} {self.op.value} {state})"
