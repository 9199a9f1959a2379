"""Tests for the MiniLua case study (S7)."""

import pytest

from repro.core.specialize import SpecializeOptions
from repro.luavm import LuaCompileError, LuaRuntime, compile_lua
from repro.luavm.bytecode import Op, disassemble
from repro.vm import VM, VMTrap

from tests.helpers import corpus_program


def run_lua(source, aot=False):
    rt = LuaRuntime(source)
    if aot:
        rt.aot_compile()
        rt.run_aot()
    else:
        rt.run_interpreted()
    return rt.printed


class TestCompiler:
    def test_proto_structure(self):
        protos = compile_lua("function f(a, b) return a + b end\n"
                             "print(f(1, 2))")
        assert [p.name for p in protos] == ["main", "f"]
        assert protos[1].num_params == 2
        assert "ADD" in disassemble(protos[1])

    def test_undeclared_variable(self):
        with pytest.raises(LuaCompileError, match="undeclared"):
            compile_lua("print(nope)")

    def test_assignment_to_undeclared(self):
        with pytest.raises(LuaCompileError, match="undeclared"):
            compile_lua("x = 1")

    def test_unknown_function(self):
        with pytest.raises(LuaCompileError, match="unknown function"):
            compile_lua("print(zig(1))")

    def test_break_outside_loop(self):
        with pytest.raises(LuaCompileError, match="break"):
            compile_lua("break")

    def test_arity_is_structural(self):
        protos = compile_lua("""
function g(x) return x end
print(g(1))
""")
        call = [protos[0].code[i:i + 4]
                for i in range(0, len(protos[0].code), 4)
                if protos[0].code[i] == Op.CALL]
        assert call  # a CALL was emitted


@pytest.mark.parametrize("aot", [False, True])
class TestSemantics:
    def test_arithmetic_and_precedence(self, aot):
        assert run_lua("print(2 + 3 * 4 - 1)", aot) == [13]
        assert run_lua("print((2 + 3) * 4)", aot) == [20]
        assert run_lua("print(7 % 3)", aot) == [1]
        assert run_lua("print(-(5) + 2)", aot) == [-3]

    def test_comparisons_and_logic(self, aot):
        assert run_lua("print(1 < 2 and 3 or 4)", aot) == [3]
        assert run_lua("print(2 < 1 and 3 or 4)", aot) == [4]
        assert run_lua("print(not 0)", aot) == [1]

    def test_if_elseif_else(self, aot):
        src = """
function cls(x)
  if x < 10 then return 1
  elseif x < 20 then return 2
  else return 3 end
end
print(cls(5))
print(cls(15))
print(cls(25))
"""
        assert run_lua(src, aot) == [1, 2, 3]

    def test_while_and_break(self, aot):
        src = """
local i = 0
local total = 0
while true do
  i = i + 1
  if i > 10 then break end
  total = total + i
end
print(total)
"""
        assert run_lua(src, aot) == [55]

    def test_numeric_for_with_step(self, aot):
        src = """
local total = 0
for i = 1, 10, 2 do
  total = total + i
end
print(total)
"""
        assert run_lua(src, aot) == [1 + 3 + 5 + 7 + 9]

    def test_recursion(self, aot):
        src = """
function fact(n)
  if n < 2 then return 1 end
  return n * fact(n - 1)
end
print(fact(8))
"""
        assert run_lua(src, aot) == [40320]

    def test_mutual_recursion(self, aot):
        src = """
function isEven(n)
  if n == 0 then return 1 end
  return isOdd(n - 1)
end
function isOdd(n)
  if n == 0 then return 0 end
  return isEven(n - 1)
end
print(isEven(10))
print(isEven(7))
"""
        assert run_lua(src, aot) == [1, 0]

    def test_signed_division(self, aot):
        assert run_lua("print((0 - 7) / 2)", aot) == [-3]
        assert run_lua("print((0 - 7) % 2)", aot) == [-1]


class TestAotPipeline:
    def test_aot_matches_interp_and_speeds_up(self):
        src = """
function work(n)
  local acc = 0
  for i = 1, n do
    acc = acc + i * i - i
  end
  return acc
end
print(work(500))
"""
        rt = LuaRuntime(src)
        vm_interp = rt.run_interpreted()
        expected = list(rt.printed)
        rt.printed.clear()
        rt.aot_compile()
        vm_aot = rt.run_aot()
        assert rt.printed == expected
        assert vm_aot.stats.fuel < vm_interp.stats.fuel / 2

    def test_spec_pointers_patched(self):
        rt = LuaRuntime("print(1 + 1)")
        rt.aot_compile()
        vm = rt.compiler.resume()
        from repro.luavm.runtime import SPEC_FIELD_OFFSET
        for proto in rt.protos:
            spec = vm.load_u64(rt.proto_addrs[proto.index] +
                               SPEC_FIELD_OFFSET)
            assert spec != 0
            assert rt.module.table[spec].startswith("lua$")

    def test_calls_route_through_specialized_code(self):
        rt = LuaRuntime("""
function leaf(x) return x + 1 end
print(leaf(41))
""")
        rt.aot_compile()
        vm = rt.run_aot()
        assert rt.printed == [42]
        assert vm.stats.indirect_calls >= 2  # main + leaf via spec ptrs


class TestHelperSeam:
    """``lua_call`` is a helper (``repro.pipeline.engine``): the py
    backend compiles it with the batch, so a guest call runs compiled →
    compiled → compiled and never enters the IR VM.  The oracle is the
    IR VM running the same residuals (AOT on ``backend="vm"``), and the
    generic interpreter for prints."""

    @pytest.mark.parametrize("name, links", [("fib", 3), ("nested", 2),
                                             ("sumloop", 1)])
    def test_py_aot_is_the_vm_and_never_enters_it(self, name, links,
                                                  monkeypatch):
        source = corpus_program(f"lua/{name}.lua")
        reference = LuaRuntime(source)
        reference.run_interpreted()
        on_vm = LuaRuntime(source)
        on_vm.aot_compile()
        vm_run = on_vm.run_aot()
        runtime = LuaRuntime(source, options=SpecializeOptions(backend="py"))
        runtime.aot_compile()
        runtime.run_aot()
        del runtime.printed[:]
        evals = []
        real_eval = VM._eval

        def counting_eval(vm, func, args):
            evals.append(func.name)
            return real_eval(vm, func, args)

        monkeypatch.setattr(VM, "_eval", counting_eval)
        py_run = runtime.run_aot()
        assert runtime.printed == on_vm.printed == reference.printed
        for field in ("fuel", "calls", "indirect_calls"):
            assert getattr(py_run.stats, field) == \
                getattr(vm_run.stats, field), field
        assert evals == []
        assert py_run.links.links_made == links
        assert runtime.compiler.engine.stats.helpers == 1
        assert "lua_call" in runtime.compiler.backend_functions

    def test_runaway_recursion_traps_identically(self):
        """Lua recursion now lives on the Python stack alone: the guest
        depth limit still fires first, with the interpreter's text."""
        source = "function f(n) return f(n + 1) end print(f(0))"

        def trap(run):
            runtime = LuaRuntime(source,
                                 options=SpecializeOptions(backend="py"))
            with pytest.raises(VMTrap) as caught:
                run(runtime)
            return str(caught.value)

        messages = {trap(lambda rt: rt.run_interpreted()),
                    trap(lambda rt: rt.run_aot("vm")),
                    trap(lambda rt: rt.run_aot("py"))}
        assert messages == {"call stack exhausted in lua_call"}
