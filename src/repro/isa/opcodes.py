"""Operation classes of the simulated ISA.

The simulator is trace-driven, so it never interprets instruction
semantics; it only needs each instruction's *operation class* to know
which functional unit executes it and with what latency. The classes
mirror the SimpleScalar/Alpha classes the paper's framework uses.

Every static fact about a class is a plain member attribute, set once
when the enum is built: the per-cycle pipeline reads ``op.is_fp`` or
``uop.fu_type.mux_event`` as an attribute load, with no property call
and no enum-keyed dict lookup. Member ``.value`` strings are the
serialized form (trace spill files, fingerprints) and never change.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.common.config import FunctionalUnitConfig

__all__ = [
    "OpClass",
    "FuType",
    "fu_type_for",
    "latency_for",
    "latency_table",
    "is_pipelined",
]


class FuType(enum.Enum):
    """Functional-unit categories of Table 1.

    ``mux_event`` names the energy event counted when a result leaves a
    unit of this type through its output multiplexer.
    """

    INT_ALU = "int_alu"
    INT_MULDIV = "int_muldiv"
    FP_ALU = "fp_alu"
    FP_MULDIV = "fp_muldiv"

    def __init__(self, value: str) -> None:
        self.is_fp = value in ("fp_alu", "fp_muldiv")
        self.mux_event = {
            "int_alu": "mux_int_alu",
            "int_muldiv": "mux_int_mul",
            "fp_alu": "mux_fp_alu",
            "fp_muldiv": "mux_fp_mul",
        }[value]


# Memory ops and branches use an integer ALU for address / target
# computation.
_FU_FOR_OP = {
    "int_alu": FuType.INT_ALU,
    "int_mul": FuType.INT_MULDIV,
    "int_div": FuType.INT_MULDIV,
    "fp_alu": FuType.FP_ALU,
    "fp_mul": FuType.FP_MULDIV,
    "fp_div": FuType.FP_MULDIV,
    "load": FuType.INT_ALU,
    "store": FuType.INT_ALU,
    "fp_load": FuType.INT_ALU,
    "fp_store": FuType.INT_ALU,
    "branch": FuType.INT_ALU,
}


class OpClass(enum.Enum):
    """Operation class of a dynamic instruction.

    Attributes (fixed per member):

    * ``is_fp`` — the instruction lives in the FP side of the machine.
      FP loads/stores compute their address on the integer side (as in
      real machines) but their *destination* is an FP register; the
      paper steers instructions by the cluster of the queue that holds
      them, so loads/stores are classified by where they are dispatched:
      address computation is an integer operation, hence all loads,
      stores and branches are integer-side instructions here.
    * ``is_memory`` / ``is_load`` / ``is_store`` — loads and stores of
      either register class.
    * ``is_branch``.
    * ``writes_fp_register`` — the destination (if any) is an FP
      register.
    * ``pipelined`` — the functional unit accepts a new instruction every
      cycle; divides occupy their mul/div unit for the whole operation.
    * ``fu_type`` — the :class:`FuType` that executes the class.
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    FP_LOAD = "fp_load"
    FP_STORE = "fp_store"
    BRANCH = "branch"

    def __init__(self, value: str) -> None:
        self.is_fp = value in ("fp_alu", "fp_mul", "fp_div")
        self.is_load = value in ("load", "fp_load")
        self.is_store = value in ("store", "fp_store")
        self.is_memory = self.is_load or self.is_store
        self.is_branch = value == "branch"
        self.writes_fp_register = value in ("fp_alu", "fp_mul", "fp_div", "fp_load")
        self.pipelined = value not in ("int_div", "fp_div")
        self.fu_type = _FU_FOR_OP[value]


def fu_type_for(op: OpClass) -> FuType:
    """Functional-unit type that executes instructions of class ``op``."""
    return op.fu_type


def latency_table(fus: FunctionalUnitConfig) -> Dict[OpClass, int]:
    """Execution latency of every op class on the configured units.

    For loads this is the *address computation* latency only; the cache
    access is added by the memory system. Branches resolve in one ALU
    cycle. Stores take the address latency (data movement happens at
    commit and is off the critical path). Build it once per
    configuration; the pipeline reads it on every issue.
    """
    return {
        OpClass.INT_ALU: fus.int_alu_latency,
        OpClass.INT_MUL: fus.int_mul_latency,
        OpClass.INT_DIV: fus.int_div_latency,
        OpClass.FP_ALU: fus.fp_alu_latency,
        OpClass.FP_MUL: fus.fp_mul_latency,
        OpClass.FP_DIV: fus.fp_div_latency,
        OpClass.LOAD: fus.address_latency,
        OpClass.STORE: fus.address_latency,
        OpClass.FP_LOAD: fus.address_latency,
        OpClass.FP_STORE: fus.address_latency,
        OpClass.BRANCH: fus.int_alu_latency,
    }


def latency_for(op: OpClass, fus: FunctionalUnitConfig) -> int:
    """Execution latency of ``op`` on ``fus`` (see :func:`latency_table`)."""
    return latency_table(fus)[op]


def is_pipelined(op: OpClass) -> bool:
    """Whether the functional unit is pipelined for this class."""
    return op.pipelined
