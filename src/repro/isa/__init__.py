"""Mini-ISA executor — the Spike-tracer stand-in (paper section 5.1).

A functional RISC-V-flavoured interpreter with the paper's SPM
prefetch/write-back ISA extensions and built-in memory tracing:
programs actually compute, and their memory behaviour falls out as
:class:`repro.trace.record.TraceRecord` streams ready for the MAC.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    assembler=("AssemblyError", "assemble"),
    instructions=("ALL_OPCODES", "Instruction", "parse_register"),
    kernels=(
        "GATHER", "GUPS", "STENCIL_1D", "VECTOR_COPY", "run_gather", "run_gups",
        "run_stencil", "run_vector_copy",
    ),
    machine=("ExecutionError", "Hart", "Machine", "run_program"),
)

__all__ = [
    "ALL_OPCODES",
    "AssemblyError",
    "ExecutionError",
    "GATHER",
    "GUPS",
    "Hart",
    "Instruction",
    "Machine",
    "STENCIL_1D",
    "VECTOR_COPY",
    "assemble",
    "parse_register",
    "run_gather",
    "run_gups",
    "run_stencil",
    "run_program",
    "run_vector_copy",
]
