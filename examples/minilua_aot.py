#!/usr/bin/env python3
"""AOT-compiling MiniLua (the S7 three-hour-port story).

Compiles a Lua program to register bytecode, runs it under the generic
interpreter, then specializes the interpreter per function prototype
(context annotations only — no state intrinsics, as in the paper's port)
and runs again.

Run:  python examples/minilua_aot.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.luavm import LuaRuntime  # noqa: E402
from repro.luavm.bytecode import disassemble  # noqa: E402

SOURCE = """
function collatz(n)
  local steps = 0
  while n ~= 1 do
    if n % 2 == 0 then
      n = n / 2
    else
      n = 3 * n + 1
    end
    steps = steps + 1
  end
  return steps
end

function longest(limit)
  local best = 0
  for i = 1, limit do
    local s = collatz(i)
    if s > best then best = s end
  end
  return best
end

print(longest(60))
"""


def main():
    rt = LuaRuntime(SOURCE)
    print("bytecode for collatz:")
    print(disassemble(rt.protos[2]))
    print()

    vm = rt.run_interpreted()
    out = list(rt.printed)
    print(f"interpreted: printed={out} fuel={vm.stats.fuel}")
    rt.printed.clear()

    rt.aot_compile()
    print("specialized:",
          [p.function_name for p in rt.compiler.processed])
    vm2 = rt.run_aot()
    print(f"AOT:         printed={rt.printed} fuel={vm2.stats.fuel} "
          f"({vm.stats.fuel / vm2.stats.fuel:.2f}x)")
    assert out == rt.printed

    # The py backend compiles the residuals and the lua_call trampoline
    # they call by name, so guest calls link compiled to compiled: only
    # wall clock moves, prints and fuel are the IR VM's.
    rt_py = LuaRuntime(SOURCE)
    vm3 = rt_py.run_aot(backend="py")
    print(f"AOT (py):    printed={rt_py.printed} fuel={vm3.stats.fuel} "
          f"direct links={vm3.links.links_made}")
    assert rt_py.printed == out and vm3.stats.fuel == vm2.stats.fuel
    assert vm3.links.links_made > 0


if __name__ == "__main__":
    main()
