"""MiniLua runtime: heap layout, the mini-C interpreter, AOT pipeline.

Memory layout (all offsets in bytes):

* address 16 holds a pointer to the *proto table* (array of proto
  pointers indexed by function id; id 0 is the top-level chunk);
* each proto is an 8-word struct ``[code_ptr, code_words, consts_ptr,
  nconsts, nparams, nregs, spec, reserved]`` — exactly PUC-Lua's
  ``Proto`` plus the paper's two added fields (S7): ``spec`` holds the
  table index of the specialized function (0 = none);
* the Lua value stack (register frames) grows from ``stack_base``.

The interpreter (``lua_interp``) is annotated with context intrinsics
only — no state intrinsics — matching the paper's S7 port, so the
speedup measured here isolates interpreter-dispatch removal.

As a guest on :class:`~repro.pipeline.host.GuestRuntime` the runtime
supplies two methods — :meth:`LuaRuntime.tier_entries` (one entry per
prototype) and :meth:`LuaRuntime.enter` (call the chunk through
``lua_call``); AOT compilation and the run modes come from the base.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import (
    Runtime as RuntimeArg,
    SpecializationRequest,
    SpecializedConst,
)
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source, interpreter_image
from repro.ir import Module
from repro.ir.instructions import to_signed
from repro.luavm.bytecode import Proto
from repro.luavm.compiler import compile_lua
from repro.pipeline.host import GuestRuntime
from repro.pipeline.tiering import TierEntry
from repro.vm import VM

PROTO_TABLE_PTR_ADDR = 16
PROTO_STRUCT_WORDS = 8
SPEC_FIELD_OFFSET = 48  # byte offset of the ``spec`` field

LUA_INTERP_SRC = """
extern void lua_print(u64 value);

u64 lua_call(u64 proto, u64 frame) {
  u64 spec = load64(proto + 48);
  if (spec != 0) {
    return icall2(spec, proto, frame);
  }
  return lua_interp(proto, frame);
}

u64 lua_interp(u64 proto, u64 frame) {
  u64 code = load64(proto);
  u64 consts = load64(proto + 16);
  u64 pc = 0;
  weval_push_context(pc);
  while (1) {
    u64 op = load64(code + pc * 8);
    u64 a = load64(code + pc * 8 + 8);
    u64 b = load64(code + pc * 8 + 16);
    u64 c = load64(code + pc * 8 + 24);
    pc = pc + 4;
    switch (op) {
    case 0: { store64(frame + a * 8, load64(consts + b * 8)); break; }
    case 1: { store64(frame + a * 8, load64(frame + b * 8)); break; }
    case 2: {
      store64(frame + a * 8, load64(frame + b * 8) + load64(frame + c * 8));
      break;
    }
    case 3: {
      store64(frame + a * 8, load64(frame + b * 8) - load64(frame + c * 8));
      break;
    }
    case 4: {
      store64(frame + a * 8, load64(frame + b * 8) * load64(frame + c * 8));
      break;
    }
    case 5: {
      store64(frame + a * 8,
              sdiv(load64(frame + b * 8), load64(frame + c * 8)));
      break;
    }
    case 6: {
      store64(frame + a * 8,
              srem(load64(frame + b * 8), load64(frame + c * 8)));
      break;
    }
    case 7: {
      store64(frame + a * 8,
              slt(load64(frame + b * 8), load64(frame + c * 8)));
      break;
    }
    case 8: {
      store64(frame + a * 8,
              sle(load64(frame + b * 8), load64(frame + c * 8)));
      break;
    }
    case 9: {
      store64(frame + a * 8,
              load64(frame + b * 8) == load64(frame + c * 8));
      break;
    }
    case 10: {
      store64(frame + a * 8,
              load64(frame + b * 8) != load64(frame + c * 8));
      break;
    }
    case 11: { // JMP: unconditional, next pc is the constant target
      pc = a;
      weval_update_context(pc);
      continue;
    }
    case 12: { // JMPZ: two-backedge form (S3.3)
      if (load64(frame + a * 8) == 0) {
        pc = b;
        weval_update_context(pc);
        continue;
      }
      weval_update_context(pc);
      continue;
    }
    case 13: { // JMPNZ
      if (load64(frame + a * 8) != 0) {
        pc = b;
        weval_update_context(pc);
        continue;
      }
      weval_update_context(pc);
      continue;
    }
    case 14: { // CALL dest=a, fid=b, base=c
      u64 protos = load64(16);
      u64 callee = load64(protos + b * 8);
      u64 result = lua_call(callee, frame + c * 8);
      store64(frame + a * 8, result);
      break;
    }
    case 15: { return load64(frame + a * 8); }
    case 16: { store64(frame + a * 8, 0 - load64(frame + b * 8)); break; }
    case 17: { lua_print(load64(frame + a * 8)); break; }
    default: { abort(); }
    }
    weval_update_context(pc);
  }
  return 0;
}
"""


class LuaRuntime(GuestRuntime):
    """Compile a MiniLua chunk; run it interpreted, AOT-compiled or
    tiered (``run_interpreted`` / ``aot_compile`` + ``run_aot`` /
    ``run_tiered``, or ``run(mode)``).  Engine configuration is the
    ``options`` (here, or to :meth:`aot_compile`)."""

    def __init__(self, source: str, memory_size: int = 1 << 22,
                 options: Optional[SpecializeOptions] = None):
        self.source = source
        self.protos: List[Proto] = compile_lua(source)
        self.module = Module(memory_size=memory_size)
        self.printed: List[int] = []
        self.options = options

        interpreter_image(LUA_INTERP_SRC, compile_source).add_to_module(
            self.module, externs={"lua_print": self._host_print})

        self.proto_addrs: Dict[int, int] = {}
        self._layout_memory()
        self.stack_base = memory_size // 2

    # ------------------------------------------------------------------
    def _host_print(self, vm, value):
        self.printed.append(to_signed(value))
        return None

    def _layout_memory(self) -> None:
        module = self.module
        cursor = 0x1000
        regions: Dict[int, Dict[str, int]] = {}
        for proto in self.protos:
            code_ptr = cursor
            for i, word in enumerate(proto.code):
                module.write_init_u64(code_ptr + i * 8, word)
            cursor += len(proto.code) * 8
            consts_ptr = cursor
            for i, value in enumerate(proto.constants):
                module.write_init_u64(consts_ptr + i * 8, value)
            cursor += max(len(proto.constants), 1) * 8
            regions[proto.index] = {"code": code_ptr, "consts": consts_ptr}

        table_ptr = cursor
        cursor += len(self.protos) * 8
        module.write_init_u64(PROTO_TABLE_PTR_ADDR, table_ptr)
        self.proto_table_ptr = table_ptr

        for proto in self.protos:
            struct_ptr = cursor
            cursor += PROTO_STRUCT_WORDS * 8
            fields = [regions[proto.index]["code"], len(proto.code),
                      regions[proto.index]["consts"], len(proto.constants),
                      proto.num_params, proto.num_registers, 0, 0]
            for i, value in enumerate(fields):
                module.write_init_u64(struct_ptr + i * 8, value)
            module.write_init_u64(table_ptr + proto.index * 8, struct_ptr)
            self.proto_addrs[proto.index] = struct_ptr
        self.data_end = cursor

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def enter(self, vm: VM) -> VM:
        """Run the chunk on ``vm`` (calls go through the protos' ``spec``
        function pointers); main's return value is at ``vm.result``."""
        vm.result = vm.call("lua_call",
                            [self.proto_addrs[0], self.stack_base])
        return vm

    def _request_for(self, proto: Proto) -> SpecializationRequest:
        """The specialization request for one prototype (shared between
        the AOT batch and dynamic promotion — identical keys, so both
        flows hit the same artifact entries)."""
        struct_ptr = self.proto_addrs[proto.index]
        code_ptr = self.module.read_init_u64(struct_ptr)
        consts_ptr = self.module.read_init_u64(struct_ptr + 16)
        return SpecializationRequest(
            "lua_interp",
            [SpecializedConst(struct_ptr), RuntimeArg()],
            specialized_name=f"lua${proto.name}",
            extra_const_memory=[
                (PROTO_TABLE_PTR_ADDR, 8),
                (self.proto_table_ptr, len(self.protos) * 8),
                (struct_ptr, SPEC_FIELD_OFFSET),  # not the spec field
                (code_ptr, len(proto.code) * 8),
                (consts_ptr, max(len(proto.constants), 1) * 8),
            ])

    def tier_entries(self) -> list:
        """One :class:`~repro.pipeline.tiering.TierEntry` per prototype:
        tier 0 is ``lua_interp`` (watched at the ``lua_call`` fallback),
        the dispatch slot is the proto's ``spec`` field, and the frame
        pointer is eligible for guarded speculation."""
        return [TierEntry(
            generic="lua_interp",
            key=self.proto_addrs[proto.index],
            request=self._request_for(proto),
            result_addr=self.proto_addrs[proto.index] + SPEC_FIELD_OFFSET,
            speculate_args=(1,),
        ) for proto in self.protos]
