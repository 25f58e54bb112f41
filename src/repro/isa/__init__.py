"""Instruction-set layer: op classes, latencies, dynamic instructions."""

from repro.isa.instructions import Instruction, RegisterRef, validate_instruction
from repro.isa.opcodes import (
    FuType,
    OpClass,
    fu_type_for,
    is_pipelined,
    latency_for,
    latency_table,
)

__all__ = [
    "FuType",
    "Instruction",
    "OpClass",
    "RegisterRef",
    "fu_type_for",
    "is_pipelined",
    "latency_for",
    "latency_table",
    "validate_instruction",
]
