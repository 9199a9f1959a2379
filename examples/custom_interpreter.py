#!/usr/bin/env python3
"""Bring your own interpreter: weval a brand-new VM in ~60 lines.

The paper's pitch is that an *existing* interpreter needs only a handful
of annotations (Min took a first-year student four hours).  This example
writes a stack-based RPN calculator VM from scratch in mini-C, generated
in two variants from one template — exactly the paper's Fig. 10 trick:
a plain variant (run generically) and one whose operand stack goes
through weval's virtualized-stack intrinsics (only ever run specialized).

It then *serves* the calculator: two methods on the shared host glue
(``tier_entries()`` and ``enter(vm)``) buy the new interpreter AOT
compilation, the artifact cache and profile-guided tier-up — the
machinery the in-tree MiniJS/MiniLua/Min runtimes use.

Run:  python examples/custom_interpreter.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (  # noqa: E402
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.frontend import compile_source  # noqa: E402
from repro.ir import Module, print_function  # noqa: E402
from repro.pipeline import GuestRuntime, TierEntry  # noqa: E402
from repro.vm import VM  # noqa: E402


def calc_source(name: str, use_intrinsics: bool) -> str:
    """One template, two compilations (paper Fig. 10)."""
    if use_intrinsics:
        push = "weval_push(stackbuf + sp * 8, {v}); sp = sp + 1;"
        pop = "sp = sp - 1; u64 {v} = weval_pop(stackbuf + sp * 8);"
        peek = "u64 {v} = weval_read_stack(0, stackbuf + (sp - 1) * 8);"
    else:
        push = "store64(stackbuf + sp * 8, {v}); sp = sp + 1;"
        pop = "sp = sp - 1; u64 {v} = load64(stackbuf + sp * 8);"
        peek = "u64 {v} = load64(stackbuf + (sp - 1) * 8);"

    def PUSH(v):
        return push.format(v=v)

    def POP(v):
        return pop.format(v=v)

    # Opcodes: 0=PUSH imm, 1=ADD, 2=MUL, 3=DUP, 4=SWAP, 5=PUSH_ARG, 6=HALT.
    return f"""
u64 {name}(u64 program, u64 proglen, u64 arg) {{
  u64 stackbuf[64];
  u64 sp = 0;
  u64 pc = 0;
  weval_push_context(pc);
  while (1) {{
    u64 op = load64(program + pc * 8);
    pc = pc + 1;
    switch (op) {{
    case 0: {{
      {PUSH("load64(program + pc * 8)")}
      pc = pc + 1;
      break;
    }}
    case 1: {{
      {POP("b")}
      {POP("a")}
      {PUSH("a + b")}
      break;
    }}
    case 2: {{
      {POP("b")}
      {POP("a")}
      {PUSH("a * b")}
      break;
    }}
    case 3: {{
      {peek.format(v="v")}
      {PUSH("v")}
      break;
    }}
    case 4: {{
      {POP("b")}
      {POP("a")}
      {PUSH("b")}
      {PUSH("a")}
      break;
    }}
    case 5: {{
      {PUSH("arg")}
      break;
    }}
    case 6: {{
      {POP("r")}
      return r;
    }}
    default: {{ abort(); }}
    }}
    weval_update_context(pc);
  }}
  return 0;
}}
"""


BASE = 0x4000
SLOT = 0x100    # the host's dispatch slot: table index of the residual


class CalcService(GuestRuntime):
    """The calculator as a guest runtime: all it has to say is what can
    tier up and how a request enters."""

    def __init__(self, module, request, proglen):
        self.module, self.request, self.proglen = module, request, proglen
        self.arg = 0

    def tier_entries(self):
        return [TierEntry(generic="calc", key=BASE, request=self.request,
                          result_addr=SLOT)]

    def enter(self, vm):
        args = [BASE, self.proglen, self.arg]
        spec = vm.load_u64(SLOT)
        vm.result = (vm.call_table(spec, args) if spec
                     else vm.call("calc", args))
        return vm


def main():
    # (arg + 2) * (arg + 3), in RPN.
    program = [5, 0, 2, 1, 5, 0, 3, 1, 2, 6]
    module = Module(memory_size=1 << 16)
    compile_source(calc_source("calc", False)).add_to_module(module)
    compile_source(calc_source("calc_s", True)).add_to_module(module)
    for i, word in enumerate(program):
        module.write_init_u64(BASE + i * 8, word)

    vm = VM(module)
    expected = vm.call("calc", [BASE, len(program), 7])
    print(f"interpreted: {expected} (fuel {vm.stats.fuel})")

    request = SpecializationRequest(
        "calc_s",
        [SpecializedMemory(BASE, len(program) * 8),
         SpecializedConst(len(program)), Runtime()],
        specialized_name="calc_compiled")
    func = specialize(module, request)
    module.add_function(func)

    vm2 = VM(module)
    got = vm2.call("calc_compiled", [BASE, len(program), 7])
    print(f"compiled:    {got} (fuel {vm2.stats.fuel}, "
          f"{vm.stats.fuel / vm2.stats.fuel:.1f}x)")
    assert got == expected == (7 + 2) * (7 + 3)

    print("\nThe entire compiled function (stack fully virtualized):")
    print(print_function(func))

    # Serve it: same module, same request, the shared host glue.  The
    # third request crosses the threshold and is promoted at its call
    # boundary; from then on requests run the compiled code.
    service = CalcService(module, request, len(program))
    print("\nServed under profile-guided tier-up (threshold 3):")
    vm = service.run("tiered", threshold=3)         # request 0
    for arg in range(1, 5):
        service.arg, before = arg, vm.stats.fuel
        got = service.enter(vm).result
        print(f"  calc({arg}) = {got:2}  fuel {vm.stats.fuel - before:3}"
              f"  tiers {service.controller.tier_counts()}")
        assert got == (arg + 2) * (arg + 3)


if __name__ == "__main__":
    main()
