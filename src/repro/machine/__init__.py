"""The M-Machine MAP chip simulator (§3): a LIW ISA with guarded-pointer
checks in the execution units, an assembler, multithreaded clusters and
the chip-level clock."""

from repro.machine.assembler import AssemblyError, DataItem, Program, assemble
from repro.machine.chip import ChipConfig, ChipStats, MAPChip, RunReason, RunResult
from repro.machine.cluster import Cluster
from repro.machine.counters import PerfCounters, merge_snapshots
from repro.machine.devices import BlockDevice, ConsoleDevice, map_device
from repro.machine.disasm import disassemble_bundle, disassemble_op, disassemble_words
from repro.machine.faults import FaultRecord, TrapFault
from repro.machine.multicomputer import Multicomputer, Partition
from repro.machine.network import MeshNetwork, MeshShape
from repro.machine.reference import ReferenceInterpreter, ReferenceResult
from repro.machine.verifier import InvariantViolation, SecurityMonitor
from repro.machine.isa import (
    BUNDLE_BYTES,
    NUM_REGS,
    OP_BYTES,
    Bundle,
    DecodeError,
    Opcode,
    Operation,
    Slot,
)
from repro.machine.registers import RegisterFile, float_to_word, word_to_float
from repro.machine.thread import Thread, ThreadState, ThreadStats


__all__ = [
    "AssemblyError",
    "BlockDevice",
    "ConsoleDevice",
    "map_device",
    "DataItem",
    "Program",
    "assemble",
    "disassemble_bundle",
    "disassemble_op",
    "disassemble_words",
    "InvariantViolation",
    "SecurityMonitor",
    "Multicomputer",
    "Partition",
    "MeshNetwork",
    "MeshShape",
    "ReferenceInterpreter",
    "ReferenceResult",
    "ChipConfig",
    "ChipStats",
    "MAPChip",
    "RunReason",
    "RunResult",
    "Cluster",
    "PerfCounters",
    "merge_snapshots",
    "FaultRecord",
    "TrapFault",
    "BUNDLE_BYTES",
    "NUM_REGS",
    "OP_BYTES",
    "Bundle",
    "DecodeError",
    "Opcode",
    "Operation",
    "Slot",
    "RegisterFile",
    "float_to_word",
    "word_to_float",
    "Thread",
    "ThreadState",
    "ThreadStats",
]
