"""ReRAM accelerator substrate: crossbars, engines, timing, GPU baseline."""

from repro.hardware.accelerator import (
    AcceleratorConfig,
    MappingPlan,
    SolverTimingModel,
)
from repro.hardware.cost import (
    FEINBERG_CROSSBARS_PER_ENGINE,
    FEINBERG_CYCLES,
    crossbars_for_spec,
    crossbars_per_engine,
    cycles_for_spec,
    cycles_per_block_mvm,
    fixed_point_mvm_cycles,
)
from repro.hardware.crossbar import CrossbarMVM, bit_slice, integer_mvm
from repro.hardware.engine import BlockedEngine, ProcessingEngine, block_mvm_reference
from repro.hardware.gpu import GPUConfig, GPUSolverModel

__all__ = [
    "AcceleratorConfig",
    "MappingPlan",
    "SolverTimingModel",
    "FEINBERG_CROSSBARS_PER_ENGINE",
    "FEINBERG_CYCLES",
    "crossbars_for_spec",
    "crossbars_per_engine",
    "cycles_for_spec",
    "cycles_per_block_mvm",
    "fixed_point_mvm_cycles",
    "CrossbarMVM",
    "bit_slice",
    "integer_mvm",
    "BlockedEngine",
    "ProcessingEngine",
    "block_mvm_reference",
    "GPUConfig",
    "GPUSolverModel",
]
