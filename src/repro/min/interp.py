"""The Min interpreter in mini-C, in two variants (paper Fig. 9/10).

The paper generates two compilations of the interpreter body from one
source using a C++ template parameter: one storing registers in a
conventional array (run generically), one routing register accesses
through weval's register intrinsics (only ever run in specialized form).
We do the same with a Python-side template over the mini-C source.

``JMPNZ`` uses the two-backedge pattern: each arm updates the context and
continues separately, so the next pc stays constant on both paths.  This
is S3.3's structural form, the only one the specializer supports (see
``docs/ARCHITECTURE.md``, "The fixpoint engines").
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source, interpreter_image
from repro.ir import Module
from repro.ir.function import Function
from repro.min.isa import MinProgram, NUM_REGISTERS

PROGRAM_BASE = 0x1000

# Heap slots the tiering controller patches with the module-table index
# of the installed residual, one per interpreter variant.  Min has no
# guest-level dispatch through them (the VM's tier hook redirects calls
# at the host boundary instead), but giving each variant a slot keeps
# the install path identical to the dispatch-slot runtimes.
SPEC_SLOT_PLAIN = 0x10
SPEC_SLOT_STATE = 0x18


def interp_source(use_intrinsics: bool) -> str:
    """mini-C source for the Min interpreter.

    ``use_intrinsics=False``: registers live in a shadow-stack array
    (Fig. 9's plain interpreter).  ``use_intrinsics=True``: register
    accesses become ``weval_read_reg``/``weval_write_reg`` (Fig. 10).
    """
    if use_intrinsics:
        name = "min_interp_spec"
        decl = ""
        reg_read = "weval_read_reg(%s)"
        reg_write = "weval_write_reg(%s, %s);"
    else:
        name = "min_interp"
        decl = (f"u64 registers[{NUM_REGISTERS}];\n"
                f"  for (u64 ri = 0; ri < {NUM_REGISTERS}; ri++) "
                "{ registers[ri] = 0; }")
        reg_read = "registers[%s]"
        reg_write = "registers[%s] = %s;"

    def rd(expr: str) -> str:
        return reg_read % expr

    def wr(idx: str, value: str) -> str:
        return reg_write % (idx, value)

    return f"""
u64 {name}(u64 program, u64 proglen, u64 input) {{
  u64 accumulator = input;
  u64 pc = 0;
  {decl}
  weval_push_context(pc);
  while (1) {{
    u64 op = load64(program + pc * 8);
    pc = pc + 1;
    switch (op) {{
    case 0: {{ // LOAD_IMMEDIATE
      accumulator = load64(program + pc * 8);
      pc = pc + 1;
      break;
    }}
    case 1: {{ // STORE_REG
      u64 idx = load64(program + pc * 8);
      pc = pc + 1;
      {wr("idx", "accumulator")}
      break;
    }}
    case 2: {{ // LOAD_REG
      u64 idx = load64(program + pc * 8);
      pc = pc + 1;
      accumulator = {rd("idx")};
      break;
    }}
    case 3: {{ // ADD
      u64 idx1 = load64(program + pc * 8);
      u64 idx2 = load64(program + pc * 8 + 8);
      pc = pc + 2;
      accumulator = {rd("idx1")} + {rd("idx2")};
      break;
    }}
    case 4: {{ // SUB
      u64 idx1 = load64(program + pc * 8);
      u64 idx2 = load64(program + pc * 8 + 8);
      pc = pc + 2;
      accumulator = {rd("idx1")} - {rd("idx2")};
      break;
    }}
    case 5: {{ // MUL
      u64 idx1 = load64(program + pc * 8);
      u64 idx2 = load64(program + pc * 8 + 8);
      pc = pc + 2;
      accumulator = {rd("idx1")} * {rd("idx2")};
      break;
    }}
    case 6: {{ // ADD_IMMEDIATE
      accumulator = accumulator + load64(program + pc * 8);
      pc = pc + 1;
      break;
    }}
    case 7: {{ // JMPNZ: two-backedge form keeps the next pc constant
      u64 target = load64(program + pc * 8);
      pc = pc + 1;
      if (accumulator != 0) {{
        pc = target;
        weval_update_context(pc);
        continue;
      }}
      weval_update_context(pc);
      continue;
    }}
    case 8: {{ // JMP
      pc = load64(program + pc * 8);
      break;
    }}
    case 9: {{ // HALT
      return accumulator;
    }}
    default: {{
      abort();
    }}
    }}
    weval_update_context(pc);
  }}
  return 0;
}}
"""


def add_min_interpreters(module: Module, compile=compile_source) -> None:
    """Register both interpreter variants from their images;
    ``compile`` is the caller's ``compile_source`` global (see
    :func:`~repro.frontend.image.interpreter_image`)."""
    for use_intrinsics in (False, True):
        interpreter_image(interp_source(use_intrinsics),
                          compile).add_to_module(module)


def build_min_module(program: MinProgram,
                     memory_size: int = 1 << 20) -> Module:
    """A module containing both interpreter variants and the program's
    bytecode at :data:`PROGRAM_BASE` in the heap image."""
    module = Module(memory_size=memory_size)
    add_min_interpreters(module)
    for i, word in enumerate(program.words):
        module.write_init_u64(PROGRAM_BASE + i * 8, word)
    return module


def min_request(program: MinProgram, use_intrinsics: bool,
                name: Optional[str] = None) -> SpecializationRequest:
    """The specialization request for one Min interpreter variant — the
    unit the :class:`~repro.pipeline.engine.CompilationEngine` batches."""
    generic = "min_interp_spec" if use_intrinsics else "min_interp"
    return SpecializationRequest(
        generic,
        [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
         SpecializedConst(len(program.words)), Runtime()],
        specialized_name=name or f"{generic}.compiled")


def min_tier_entry(program: MinProgram, use_intrinsics: bool,
                   name: Optional[str] = None,
                   speculate_input: bool = False):
    """A :class:`~repro.pipeline.tiering.TierEntry` for one interpreter
    variant: tier 0 runs the plain ``min_interp`` (the only runnable
    generic), promotion specializes the requested variant.
    ``speculate_input=True`` marks the ``input`` parameter eligible for
    guarded value speculation."""
    from repro.pipeline.tiering import TierEntry
    slot = SPEC_SLOT_STATE if use_intrinsics else SPEC_SLOT_PLAIN
    return TierEntry(
        generic="min_interp",
        key=PROGRAM_BASE,
        request=min_request(program, use_intrinsics, name),
        result_addr=slot,
        speculate_args=(2,) if speculate_input else ())


def specialize_min(module: Module, program: MinProgram,
                   use_intrinsics: bool,
                   options: Optional[SpecializeOptions] = None,
                   name: Optional[str] = None) -> Function:
    """Run the first Futamura projection on a Min interpreter variant."""
    request = min_request(program, use_intrinsics, name)
    func = specialize(module, request, options)
    module.add_function(func)
    return func
