"""Functional units: pooled (baseline) and distributed (Section 3.3).

Pipelined units (ALUs, multipliers) accept one instruction per cycle;
divides occupy their mul/div unit for the full latency. In the pooled
organization any instruction may use any unit of the right type. In the
distributed organization of Section 3.3 each *queue* owns specific units:

* one integer ALU per integer queue,
* one integer mul/div unit per pair of integer queues,
* one FP adder and one FP mul/div unit per pair of FP queues.

Loads, stores and branches execute on integer ALUs (address/target
computation), as in SimpleScalar.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import FunctionalUnitConfig
from repro.common.errors import ConfigurationError
from repro.isa.opcodes import FuType, OpClass

__all__ = ["FunctionalUnit", "FuPool", "PooledFuPool", "DistributedFuPool"]


class FunctionalUnit:
    """One execution unit."""

    __slots__ = ("fu_type", "index", "busy_until", "last_issue_cycle")

    def __init__(self, fu_type: FuType, index: int) -> None:
        self.fu_type = fu_type
        self.index = index
        self.busy_until = -1  # unpipelined occupancy (divides)
        self.last_issue_cycle = -1

    def can_accept(self, cycle: int) -> bool:
        """Can a new instruction start on this unit at ``cycle``?"""
        return cycle > self.busy_until and cycle > self.last_issue_cycle

    def accept(self, cycle: int, op: OpClass, latency: int) -> None:
        """Occupy the unit for ``op`` starting at ``cycle``."""
        self.last_issue_cycle = cycle
        if not op.pipelined:
            self.busy_until = cycle + latency - 1


class FuPool:
    """Interface: allocate a unit for an op at a cycle, maybe per-queue.

    Subclasses build ``_units`` (every unit, grouped by type) once at
    construction.
    """

    _units: Dict[FuType, List[FunctionalUnit]]

    def try_allocate(
        self, fu_type: FuType, op: OpClass, latency: int, cycle: int, queue_index: Optional[int]
    ) -> bool:
        raise NotImplementedError

    def units_of(self, fu_type: FuType) -> List[FunctionalUnit]:
        return self._units[fu_type]

    def can_allocate(
        self, fu_type: FuType, cycle: int, queue_index: Optional[int] = None
    ) -> bool:
        """Non-destructive probe: could an op of this type start now?

        Distributed selection logic is physically next to its own
        functional units, so letting it see their busy state costs no
        wiring — MixBUFF's per-queue selector uses this to avoid picking
        an instruction whose unit cannot accept it this cycle.
        """
        raise NotImplementedError

    def all_units(self) -> List[FunctionalUnit]:
        """Every unit in the pool, for generic sweeps."""
        return [unit for units in self._units.values() for unit in units]

    def next_activity_cycle(self, cycle: int) -> Optional[int]:
        """Skipping-kernel contract: next cycle a busy unit frees up.

        An unpipelined op (a divide) occupies its unit through
        ``busy_until``; an instruction whose operands are ready may be
        waiting solely on that unit, so the cycle after it frees is a
        wake event. ``last_issue_cycle`` needs no timer: it only blocks
        the issue cycle itself, and a cycle in which something issued is
        never quiescent.
        """
        upcoming = [
            unit.busy_until + 1
            for unit in self.all_units()
            if unit.busy_until + 1 >= cycle
        ]
        return min(upcoming) if upcoming else None


class PooledFuPool(FuPool):
    """Baseline organization: any unit of the right type."""

    def __init__(self, config: FunctionalUnitConfig) -> None:
        config.validate()
        self._units: Dict[FuType, List[FunctionalUnit]] = {
            FuType.INT_ALU: [FunctionalUnit(FuType.INT_ALU, i) for i in range(config.int_alu_count)],
            FuType.INT_MULDIV: [
                FunctionalUnit(FuType.INT_MULDIV, i) for i in range(config.int_muldiv_count)
            ],
            FuType.FP_ALU: [FunctionalUnit(FuType.FP_ALU, i) for i in range(config.fp_alu_count)],
            FuType.FP_MULDIV: [
                FunctionalUnit(FuType.FP_MULDIV, i) for i in range(config.fp_muldiv_count)
            ],
        }

    def try_allocate(self, fu_type, op, latency, cycle, queue_index=None) -> bool:
        for unit in self._units[fu_type]:
            if unit.can_accept(cycle):
                unit.accept(cycle, op, latency)
                return True
        return False

    def can_allocate(self, fu_type, cycle, queue_index=None) -> bool:
        return any(unit.can_accept(cycle) for unit in self._units[fu_type])


class DistributedFuPool(FuPool):
    """Section 3.3 organization: units bound to queues.

    ``int_queues`` and ``fp_queues`` give the queue counts; the binding
    is: integer queue *q* → its own ALU; integer queues *2k, 2k+1* →
    integer mul/div *k*; FP queues *2k, 2k+1* → FP adder *k* and FP
    mul/div *k*. FP-side ops must come from FP queues and integer-side
    ops from integer queues; allocation requires the queue index.
    """

    def __init__(self, int_queues: int, fp_queues: int, config: FunctionalUnitConfig) -> None:
        config.validate()
        if int_queues < 1 or fp_queues < 1:
            raise ConfigurationError("distributed FU pool needs queues on both sides")
        self.int_queues = int_queues
        self.fp_queues = fp_queues
        self._int_alu = [FunctionalUnit(FuType.INT_ALU, i) for i in range(int_queues)]
        self._int_muldiv = [
            FunctionalUnit(FuType.INT_MULDIV, i) for i in range((int_queues + 1) // 2)
        ]
        self._fp_alu = [FunctionalUnit(FuType.FP_ALU, i) for i in range((fp_queues + 1) // 2)]
        self._fp_muldiv = [
            FunctionalUnit(FuType.FP_MULDIV, i) for i in range((fp_queues + 1) // 2)
        ]
        self._units: Dict[FuType, List[FunctionalUnit]] = {
            FuType.INT_ALU: self._int_alu,
            FuType.INT_MULDIV: self._int_muldiv,
            FuType.FP_ALU: self._fp_alu,
            FuType.FP_MULDIV: self._fp_muldiv,
        }

    def _unit_for(self, fu_type: FuType, queue_index: int) -> FunctionalUnit:
        if fu_type is FuType.INT_ALU:
            return self._int_alu[queue_index]
        if fu_type is FuType.INT_MULDIV:
            return self._int_muldiv[queue_index // 2]
        if fu_type is FuType.FP_ALU:
            return self._fp_alu[queue_index // 2]
        return self._fp_muldiv[queue_index // 2]

    def try_allocate(self, fu_type, op, latency, cycle, queue_index=None) -> bool:
        if queue_index is None:
            raise ConfigurationError("distributed FU pool requires a queue index")
        unit = self._unit_for(fu_type, queue_index)
        if unit.can_accept(cycle):
            unit.accept(cycle, op, latency)
            return True
        return False

    def can_allocate(self, fu_type, cycle, queue_index=None) -> bool:
        if queue_index is None:
            raise ConfigurationError("distributed FU pool requires a queue index")
        return self._unit_for(fu_type, queue_index).can_accept(cycle)
