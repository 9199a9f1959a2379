"""Unit tests for the mini-C frontend: parsing, lowering, semantics."""

import pytest

from repro.frontend import CompileError, compile_source
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_source
from repro.ir.instructions import wrap_i64

from tests.helpers import run


class TestLexer:
    def test_tokens(self):
        toks = tokenize("u64 f() { return 0x10 + 2.5e1; }")
        kinds = [t.kind for t in toks]
        assert kinds[-1] == "eof"
        assert any(t.kind == "int" and t.value == 16 for t in toks)
        assert any(t.kind == "float" and t.value == 25.0 for t in toks)

    def test_comments_skipped(self):
        toks = tokenize("// line\nu64 /* block\n over lines */ x")
        assert [t.text for t in toks[:-1]] == ["u64", "x"]

    def test_greedy_operators(self):
        toks = tokenize("a <<= b")  # not an operator; lexes as << then =
        assert [t.text for t in toks[:-1]] == ["a", "<<", "=", "b"]

    def test_bad_char(self):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("u64 f@()")

    def test_unterminated_comment(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize("/* nope")

    def test_positions(self):
        toks = tokenize("a /* x\n y */ b2 // c")
        assert [(t.text, t.line, t.col) for t in toks] == \
            [("a", 1, 1), ("b2", 2, 7), ("", 2, 10)]

    def test_numbers(self):
        toks = tokenize("0X1f 7 1. .5 1e3 2.5E-1 1_0")
        assert [(t.kind, t.value) for t in toks[:-3]] == \
            [("int", 31), ("int", 7), ("float", 1.0), ("float", 0.5),
             ("float", 1000.0), ("float", 0.25)]
        assert [t.text for t in toks[-3:-1]] == ["1", "_0"]

    @pytest.mark.parametrize("source, message, line, col", [
        ("x = 1e+;", "malformed float exponent", 1, 5),
        ("a\n  /* nope", "unterminated block comment", 2, 3),
        ("u64 f() {\n  return 1.2.x; }", "unexpected character '.'", 2, 13),
        # Numeric but neither decimal nor alphabetic: no identifier
        # starts with it (inside one it is isalnum(), as before).
        ("a = ½x;", "unexpected character '½'", 1, 5),
        ("Ⅷ", "unexpected character 'Ⅷ'", 1, 1),
    ])
    def test_error_positions(self, source, message, line, col):
        with pytest.raises(CompileError) as info:
            tokenize(source)
        assert (str(info.value), info.value.line, info.value.col) == \
            (f"{line}:{col}: {message}", line, col)


class TestParser:
    def test_program_shape(self):
        prog = parse_source("""
        extern u64 host(u64 a);
        u64 f(u64 x) { return host(x); }
        void g() { }
        """)
        assert len(prog.functions) == 2
        assert len(prog.externs) == 1
        assert prog.functions[0].result == "u64"
        assert prog.functions[1].result == "void"

    def test_missing_semicolon(self):
        with pytest.raises(CompileError, match="';'"):
            parse_source("u64 f() { return 1 }")

    def test_bad_statement(self):
        with pytest.raises(CompileError):
            parse_source("u64 f() { 1 + 2; }")


class TestExpressions:
    def test_precedence(self):
        assert run("u64 f() { return 2 + 3 * 4; }", "f") == 14
        assert run("u64 f() { return (2 + 3) * 4; }", "f") == 20
        assert run("u64 f() { return 1 << 3 + 1; }", "f") == 16
        assert run("u64 f() { return 7 & 3 | 8; }", "f") == 11
        # Left-associative at every level, tighter levels bind first.
        assert run("u64 f() { return 100 - 10 - 1; }", "f") == 89
        assert run("u64 f() { return 64 / 4 / 2 * 3; }", "f") == 24
        assert run("u64 f() { return 1 || 0 && 0; }", "f") == 1
        assert run("u64 f() { return 2 + 3 < 4 * 2 == 1; }", "f") == 1

    def test_unsigned_semantics_by_default(self):
        # u64 is C uint64_t: unsigned compare and divide.
        assert run("u64 f() { return 0 - 1 < 1; }", "f") == 0
        assert run("u64 f() { return (0 - 8) / 2; }", "f") == \
            (wrap_i64(-8)) // 2

    def test_signed_builtins(self):
        assert run("u64 f() { return slt(0 - 1, 1); }", "f") == 1
        assert run("u64 f() { return sdiv(0 - 8, 2); }", "f") == wrap_i64(-4)

    def test_logical_short_circuit(self):
        src = """
        extern u64 boom(u64 x);
        u64 f(u64 x) { return x && boom(x); }
        u64 g(u64 x) { return x || boom(x); }
        """
        calls = []

        def boom(vm, x):
            calls.append(x)
            return 1

        assert run(src, "f", [0], externs={"boom": boom}) == 0
        assert calls == []
        assert run(src, "g", [5], externs={"boom": boom}) == 1
        assert calls == []

    def test_logical_normalizes_to_bool(self):
        assert run("u64 f() { return 7 && 9; }", "f") == 1
        assert run("u64 f() { return 0 || 4; }", "f") == 1

    def test_ternary(self):
        src = "u64 f(u64 x) { return x > 10 ? x * 2 : x + 1; }"
        assert run(src, "f", [20]) == 40
        assert run(src, "f", [3]) == 4

    def test_ternary_is_lazy(self):
        src = """
        extern u64 boom(u64 x);
        u64 f(u64 x) { return x ? 1 : boom(x); }
        """
        assert run(src, "f", [1], externs={"boom": lambda vm, x: 1 // 0}) == 1

    def test_unary(self):
        assert run("u64 f() { return !0 + !5; }", "f") == 1
        assert run("u64 f() { return ~0; }", "f") == wrap_i64(-1)
        assert run("u64 f() { return -(1); }", "f") == wrap_i64(-1)
        assert run("f64 f() { return -(1.5); }", "f") == -1.5

    def test_type_mismatch_rejected(self):
        with pytest.raises(CompileError, match="mismatch"):
            compile_source("u64 f(f64 x) { return x + 1; }")

    def test_float_modulo_rejected(self):
        with pytest.raises(CompileError, match="not valid"):
            compile_source("f64 f(f64 x) { return x % 2.0; }")


class TestControlFlow:
    def test_nested_if_else(self):
        src = """
        u64 f(u64 x) {
          if (x < 10) { return 1; }
          else if (x < 20) { return 2; }
          else { return 3; }
        }
        """
        assert [run(src, "f", [v]) for v in (5, 15, 25)] == [1, 2, 3]

    def test_while_break_continue(self):
        src = """
        u64 f(u64 n) {
          u64 total = 0;
          u64 i = 0;
          while (1) {
            i++;
            if (i > n) { break; }
            if (i % 2 == 0) { continue; }
            total += i;
          }
          return total;
        }
        """
        assert run(src, "f", [10]) == 1 + 3 + 5 + 7 + 9

    def test_for_with_decl(self):
        src = """
        u64 f(u64 n) {
          u64 acc = 1;
          for (u64 i = 1; i <= n; i++) { acc *= i; }
          return acc;
        }
        """
        assert run(src, "f", [6]) == 720

    def test_for_continue_hits_step(self):
        src = """
        u64 f(u64 n) {
          u64 acc = 0;
          for (u64 i = 0; i < n; i++) {
            if (i == 2) { continue; }
            acc += i;
          }
          return acc;
        }
        """
        assert run(src, "f", [5]) == 0 + 1 + 3 + 4

    def test_switch_dense_and_fallthrough(self):
        src = """
        u64 f(u64 x) {
          u64 r = 0;
          switch (x) {
          case 0: r = 10; break;
          case 1:
          case 2: r = 20; break;
          case 3: r = 30;
          case 4: r += 1; break;
          default: r = 99;
          }
          return r;
        }
        """
        assert [run(src, "f", [v]) for v in range(6)] == \
            [10, 20, 20, 31, 1, 99]

    def test_switch_sparse(self):
        src = """
        u64 f(u64 x) {
          switch (x) {
          case 10: return 1;
          case 5000: return 2;
          case 100000: return 3;
          default: return 0;
          }
        }
        """
        assert run(src, "f", [5000]) == 2
        assert run(src, "f", [7]) == 0

    def test_break_in_switch_inside_loop(self):
        src = """
        u64 f(u64 n) {
          u64 acc = 0;
          for (u64 i = 0; i < n; i++) {
            switch (i % 3) {
            case 0: acc += 100; break;
            default: acc += 1; break;
            }
          }
          return acc;
        }
        """
        assert run(src, "f", [6]) == 100 + 1 + 1 + 100 + 1 + 1

    def test_shadowing_scopes(self):
        src = """
        u64 f() {
          u64 x = 1;
          { u64 x = 2; x = x + 1; }
          return x;
        }
        """
        assert run(src, "f") == 1

    def test_loop_carried_ssa(self):
        # Exercises Braun incomplete-params on loop headers.
        src = """
        u64 f(u64 n) {
          u64 a = 0;
          u64 b = 1;
          for (u64 i = 0; i < n; i++) {
            u64 t = a + b;
            a = b;
            b = t;
          }
          return a;
        }
        """
        assert run(src, "f", [10]) == 55  # fib(10)


class TestArraysAndShadowStack:
    def test_local_array(self):
        src = """
        u64 f() {
          u64 buf[8];
          for (u64 i = 0; i < 8; i++) { buf[i] = i * 3; }
          u64 acc = 0;
          for (u64 i = 0; i < 8; i++) { acc += buf[i]; }
          return acc;
        }
        """
        assert run(src, "f") == sum(i * 3 for i in range(8))

    def test_f64_array(self):
        src = """
        f64 f() {
          f64 xs[4];
          xs[0] = 1.5;
          xs[1] = 2.5;
          return xs[0] + xs[1];
        }
        """
        assert run(src, "f") == 4.0

    def test_recursion_gets_fresh_frames(self):
        src = """
        u64 f(u64 n) {
          u64 buf[4];
          buf[0] = n;
          if (n == 0) { return 0; }
          u64 sub = f(n - 1);
          return buf[0] + sub;
        }
        """
        assert run(src, "f", [5]) == 5 + 4 + 3 + 2 + 1

    def test_shadow_stack_restored(self):
        src = """
        u64 g() { u64 buf[16]; buf[0] = 1; return buf[0]; }
        u64 f() {
          u64 a = g();
          u64 b = g();
          return a + b;
        }
        """
        from tests.helpers import build_module
        from repro.vm import VM
        module = build_module(src)
        vm = VM(module)
        assert vm.call("f", []) == 2
        assert vm.globals["__sp"] == module.memory_size  # fully popped

    def test_compound_index_assign(self):
        src = """
        u64 f() {
          u64 buf[2];
          buf[0] = 10;
          buf[0] += 5;
          return buf[0];
        }
        """
        assert run(src, "f") == 15


class TestDiagnostics:
    def test_undeclared_variable(self):
        with pytest.raises(CompileError, match="undeclared variable"):
            compile_source("u64 f() { return nope; }")

    def test_undeclared_function(self):
        with pytest.raises(CompileError, match="undeclared function"):
            compile_source("u64 f() { return nope(); }")

    def test_redeclaration(self):
        with pytest.raises(CompileError, match="redeclaration"):
            compile_source("u64 f() { u64 x = 1; u64 x = 2; return x; }")

    def test_missing_return(self):
        with pytest.raises(CompileError, match="end of non-void"):
            compile_source("u64 f(u64 x) { x = 1; }")

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break outside"):
            compile_source("void f() { break; }")

    def test_void_returns_value(self):
        with pytest.raises(CompileError, match="void function"):
            compile_source("void f() { return 1; }")

    def test_duplicate_case(self):
        with pytest.raises(CompileError, match="duplicate case"):
            compile_source(
                "u64 f(u64 x) { switch (x) { case 1: case 1: break; } "
                "return 0; }")

    def test_unknown_intrinsic(self):
        """A data-dependent branch is specialized in its structural form
        only: the paper's value-specializing intrinsic is not one."""
        with pytest.raises(CompileError, match=r"unknown weval intrinsic "
                           r"'weval_specialized_value'"):
            compile_source(
                "u64 f(u64 x) { return weval_specialized_value(x, 0, 9); }")

    def test_extern_not_provided(self):
        from repro.ir import Module
        prog = compile_source("extern u64 h(); u64 f() { return h(); }")
        with pytest.raises(CompileError, match="not provided"):
            prog.add_to_module(Module(memory_size=64))
