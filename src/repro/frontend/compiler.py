"""Lowering of mini-C ASTs to SSA IR.

SSA construction follows Braun et al. (CC 2013): variables are resolved
to SSA values on the fly, with block parameters created lazily at join
points and in unsealed (loop header) blocks.  Redundant block parameters
are left for the optimizer's param-pruning pass.

Local arrays live on a *shadow stack*: a module global ``__sp`` holds the
stack pointer (growing downward); functions that declare arrays carve a
frame in their prologue and restore ``__sp`` at every return.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.cache import check_frozen
from repro.core.intrinsics import INTRINSICS, register_weval_imports
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import CompileError
from repro.frontend.parser import parse_source
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Block, Function, Signature
from repro.ir.instructions import BlockCall, BrIf, BrTable, Jump, Ret, Trap, wrap_i64
from repro.ir.module import HostFunc, Module
from repro.ir.types import F64, I64, Type
from repro.ir.verifier import verify_enabled_by_env

SHADOW_SP = "__sp"

_TYPE_MAP = {"u64": I64, "f64": F64}

# Builtins that lower 1:1 to IR opcodes: name -> (opcode, arg types, result).
_MEMORY_BUILTINS = {
    "load64": ("load64", (I64,), I64),
    "load32u": ("load32_u", (I64,), I64),
    "load32s": ("load32_s", (I64,), I64),
    "load16u": ("load16_u", (I64,), I64),
    "load16s": ("load16_s", (I64,), I64),
    "load8u": ("load8_u", (I64,), I64),
    "load8s": ("load8_s", (I64,), I64),
    "loadf64": ("loadf64", (I64,), F64),
    "store64": ("store64", (I64, I64), None),
    "store32": ("store32", (I64, I64), None),
    "store16": ("store16", (I64, I64), None),
    "store8": ("store8", (I64, I64), None),
    "storef64": ("storef64", (I64, F64), None),
    "itof": ("itof", (I64,), F64),
    "ftoi": ("ftoi", (F64,), I64),
    "fbits": ("bits_ftoi", (F64,), I64),
    "ffrombits": ("bits_itof", (I64,), F64),
    "fsqrt": ("fsqrt", (F64,), F64),
    "ffloor": ("ffloor", (F64,), F64),
    "fabs": ("fabs", (F64,), F64),
}

# Signed-integer builtins (u64 defaults to C-unsigned semantics).
_SIGNED_BUILTINS = {
    "sdiv": "idiv_s",
    "srem": "irem_s",
    "slt": "ilt_s",
    "sle": "ile_s",
    "sgt": "igt_s",
    "sge": "ige_s",
    "sshr": "ishr_s",
}

_INT_BINOPS = {
    "+": "iadd", "-": "isub", "*": "imul", "/": "idiv_u", "%": "irem_u",
    "&": "iand", "|": "ior", "^": "ixor", "<<": "ishl", ">>": "ishr_u",
    "==": "ieq", "!=": "ine", "<": "ilt_u", "<=": "ile_u",
    ">": "igt_u", ">=": "ige_u",
}
_FLOAT_BINOPS = {
    "+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
    "==": "feq", "!=": "fne", "<": "flt", "<=": "fle",
    ">": "fgt", ">=": "fge",
}
_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


@dataclasses.dataclass
class VarInfo:
    """One declared variable (unique per declaration, scopes may shadow)."""

    uid: int
    name: str
    ty: Type
    is_array: bool = False
    elem_ty: Optional[Type] = None


@dataclasses.dataclass
class CompiledProgram:
    """The output of :func:`compile_source`."""

    functions: Dict[str, Function]
    externs: Dict[str, Signature]
    weval_imports: List[str]
    uses_shadow_stack: bool
    source: str

    def add_to_module(self, module: Module,
                      externs: Optional[Dict[str, object]] = None) -> None:
        """Add compiled functions to ``module``.

        ``externs`` maps extern names to host callables; every extern the
        program declares must either be provided here or already exist on
        the module.  weval intrinsic imports are registered automatically.
        Frozen functions (an interpreter image's) are registered by
        reference; under ``REPRO_OPT_VERIFY=1`` each is first checked
        against the fingerprint recorded when it was built.
        """
        externs = externs or {}
        register_weval_imports(module)
        if self.uses_shadow_stack and SHADOW_SP not in module.globals:
            module.add_global(SHADOW_SP, module.memory_size)
        for name, sig in self.externs.items():
            if module.has_function(name):
                continue
            if name not in externs:
                raise CompileError(
                    f"extern {name!r} not provided and not in module")
            module.add_import(HostFunc(name, sig, externs[name]))
        verify = verify_enabled_by_env()
        for func in self.functions.values():
            if verify and func.fingerprint is not None:
                check_frozen(func)
            module.add_function(func)


class _FuncLowerer:
    """Lowers one mini-C function to an SSA :class:`Function`."""

    def __init__(self, program_ctx: "_ProgramContext", node: ast.FuncDef):
        self.ctx = program_ctx
        self.node = node
        params = tuple(_TYPE_MAP[t] for t, _ in node.params)
        results = (() if node.result == "void"
                   else (_TYPE_MAP[node.result],))
        self.fb = FunctionBuilder(node.name, Signature(params, results))
        self.func = self.fb.func

        # Braun SSA state.
        self.current_def: Dict[int, Dict[int, int]] = {}
        self.sealed: set = set()
        self.incomplete: Dict[int, List[Tuple[VarInfo, int]]] = {}
        self.preds: Dict[int, List[int]] = {self.fb.entry.id: []}
        self.edges: Dict[Tuple[int, int], List[BlockCall]] = {}

        # Scoping.
        self.scopes: List[Dict[str, VarInfo]] = [{}]
        self._var_uid = 0

        # Loop / switch targets: list of (break_block, continue_block|None).
        self.break_targets: List[Block] = []
        self.continue_targets: List[Block] = []

        # Shadow stack.
        self.array_offsets: Dict[int, int] = {}  # id(DeclStmt) -> offset
        self.frame_size = 0
        self.saved_sp: Optional[int] = None

        self.sealed.add(self.fb.entry.id)

    # ------------------------------------------------------------------
    # Scope / variable helpers.
    # ------------------------------------------------------------------
    def declare(self, name: str, ty: Type, node: ast.Node,
                is_array: bool = False,
                elem_ty: Optional[Type] = None) -> VarInfo:
        scope = self.scopes[-1]
        if name in scope:
            raise CompileError(f"redeclaration of {name!r}",
                               node.line, node.col)
        self._var_uid += 1
        var = VarInfo(self._var_uid, name, ty, is_array, elem_ty)
        scope[name] = var
        self.current_def[var.uid] = {}
        return var

    def lookup(self, name: str, node: ast.Node) -> VarInfo:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise CompileError(f"use of undeclared variable {name!r}",
                           node.line, node.col)

    # ------------------------------------------------------------------
    # Braun SSA construction.
    # ------------------------------------------------------------------
    def write_variable(self, var: VarInfo, block_id: int, value: int) -> None:
        self.current_def[var.uid][block_id] = value

    def read_variable(self, var: VarInfo, block_id: int) -> int:
        defs = self.current_def[var.uid]
        if block_id in defs:
            return defs[block_id]
        return self._read_recursive(var, block_id)

    def _read_recursive(self, var: VarInfo, block_id: int) -> int:
        block = self.func.blocks[block_id]
        if block_id not in self.sealed:
            param = self.func.add_block_param(block, var.ty)
            self.incomplete.setdefault(block_id, []).append((var, param))
            value = param
        else:
            preds = self.preds.get(block_id, [])
            if len(preds) == 1:
                value = self.read_variable(var, preds[0])
            elif not preds:
                raise CompileError(
                    f"variable {var.name!r} may be used before definition",
                    self.node.line, self.node.col)
            else:
                param = self.func.add_block_param(block, var.ty)
                self.write_variable(var, block_id, param)
                self._add_param_args(var, block_id)
                value = param
        self.write_variable(var, block_id, value)
        return value

    def _add_param_args(self, var: VarInfo, block_id: int) -> None:
        for pred in self.preds[block_id]:
            value = self.read_variable(var, pred)
            for call in self.edges[(pred, block_id)]:
                call.args = call.args + (value,)

    def seal_block(self, block: Block) -> None:
        if block.id in self.sealed:
            return
        # Mark sealed *before* filling in the pending parameters: recursive
        # reads triggered while filling must not enqueue new incomplete
        # params on this block (they would be lost).
        self.sealed.add(block.id)
        for var, _param in self.incomplete.pop(block.id, []):
            self._add_param_args(var, block.id)

    # ------------------------------------------------------------------
    # CFG helpers (terminators that record predecessor edges).
    # ------------------------------------------------------------------
    def new_block(self) -> Block:
        block = self.fb.new_block()
        self.preds[block.id] = []
        return block

    def _record_edge(self, src: Block, call: BlockCall) -> None:
        self.preds.setdefault(call.block, []).append(src.id)
        self.edges.setdefault((src.id, call.block), []).append(call)

    def terminate_jump(self, target: Block) -> None:
        src = self.fb.current
        call = BlockCall(target.id, ())
        src.terminator = Jump(call)
        self._record_edge(src, call)

    def terminate_br_if(self, cond: int, if_true: Block,
                        if_false: Block) -> None:
        src = self.fb.current
        tcall = BlockCall(if_true.id, ())
        fcall = BlockCall(if_false.id, ())
        src.terminator = BrIf(cond, tcall, fcall)
        self._record_edge(src, tcall)
        self._record_edge(src, fcall)

    def terminate_br_table(self, index: int, cases: List[Block],
                           default: Block) -> None:
        src = self.fb.current
        case_calls = [BlockCall(b.id, ()) for b in cases]
        dcall = BlockCall(default.id, ())
        src.terminator = BrTable(index, case_calls, dcall)
        for call in case_calls:
            self._record_edge(src, call)
        self._record_edge(src, dcall)

    def terminate_return(self, value: Optional[int]) -> None:
        if self.frame_size and self.saved_sp is not None:
            self.fb.global_set(SHADOW_SP, self.saved_sp)
        self.fb.current.terminator = Ret(
            (value,) if value is not None else ())

    # ------------------------------------------------------------------
    # Top-level lowering.
    # ------------------------------------------------------------------
    def lower(self) -> Function:
        # Bind parameters as variables.
        for (ty_name, name), (value, _ty) in zip(self.node.params,
                                                 self.fb.entry.params):
            var = self.declare(name, _TYPE_MAP[ty_name], self.node)
            self.write_variable(var, self.fb.entry.id, value)

        # Pre-scan for arrays to size the frame.
        self._scan_arrays(self.node.body)
        if self.frame_size:
            old_sp = self.fb.global_get(SHADOW_SP)
            size = self.fb.iconst(self.frame_size)
            new_sp = self.fb.emit("isub", (old_sp, size))
            self.fb.global_set(SHADOW_SP, new_sp)
            self.saved_sp = old_sp
            self._frame_base = new_sp

        completed = self.lower_stmts(self.node.body)
        if completed:
            if self.node.result == "void":
                self.terminate_return(None)
            else:
                raise CompileError(
                    f"control reaches end of non-void function "
                    f"{self.node.name!r}", self.node.line, self.node.col)
        return self.func

    def _scan_arrays(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.DeclStmt) and stmt.array_size is not None:
                self.array_offsets[id(stmt)] = self.frame_size
                self.frame_size += stmt.array_size * 8
            elif isinstance(stmt, ast.IfStmt):
                self._scan_arrays(stmt.then_body)
                self._scan_arrays(stmt.else_body)
            elif isinstance(stmt, ast.WhileStmt):
                self._scan_arrays(stmt.body)
            elif isinstance(stmt, ast.ForStmt):
                if stmt.init is not None:
                    self._scan_arrays([stmt.init])
                self._scan_arrays(stmt.body)
            elif isinstance(stmt, ast.SwitchStmt):
                for case in stmt.cases:
                    self._scan_arrays(case.body)

    # ------------------------------------------------------------------
    # Statements.  Each lowering returns True if control can fall through.
    # ------------------------------------------------------------------
    def lower_stmts(self, stmts: List[ast.Stmt]) -> bool:
        self.scopes.append({})
        completed = True
        for stmt in stmts:
            if not completed:
                break  # unreachable code is dropped
            completed = self.lower_stmt(stmt)
        self.scopes.pop()
        return completed

    def lower_stmt(self, stmt: ast.Stmt) -> bool:
        if isinstance(stmt, ast.BlockStmt):
            return self.lower_stmts(stmt.body)
        if isinstance(stmt, ast.DeclStmt):
            return self._lower_decl(stmt)
        if isinstance(stmt, ast.AssignStmt):
            return self._lower_assign(stmt)
        if isinstance(stmt, ast.IncDecStmt):
            return self._lower_incdec(stmt)
        if isinstance(stmt, ast.StoreStmt):
            return self._lower_store(stmt)
        if isinstance(stmt, ast.ExprStmt):
            return self._lower_expr_stmt(stmt)
        if isinstance(stmt, ast.IfStmt):
            return self._lower_if(stmt)
        if isinstance(stmt, ast.WhileStmt):
            return self._lower_while(stmt)
        if isinstance(stmt, ast.ForStmt):
            return self._lower_for(stmt)
        if isinstance(stmt, ast.SwitchStmt):
            return self._lower_switch(stmt)
        if isinstance(stmt, ast.BreakStmt):
            if not self.break_targets:
                raise CompileError("break outside loop/switch",
                                   stmt.line, stmt.col)
            self.terminate_jump(self.break_targets[-1])
            return False
        if isinstance(stmt, ast.ContinueStmt):
            if not self.continue_targets:
                raise CompileError("continue outside loop",
                                   stmt.line, stmt.col)
            self.terminate_jump(self.continue_targets[-1])
            return False
        if isinstance(stmt, ast.ReturnStmt):
            return self._lower_return(stmt)
        raise CompileError(f"unhandled statement {type(stmt).__name__}",
                           stmt.line, stmt.col)

    def _lower_decl(self, stmt: ast.DeclStmt) -> bool:
        ty = _TYPE_MAP[stmt.type]
        if stmt.array_size is not None:
            var = self.declare(stmt.name, I64, stmt, is_array=True,
                               elem_ty=ty)
            offset = self.array_offsets[id(stmt)]
            base = self._frame_base
            if offset:
                off = self.fb.iconst(offset)
                base = self.fb.emit("iadd", (base, off))
            self.write_variable(var, self.fb.current.id, base)
            return True
        var = self.declare(stmt.name, ty, stmt)
        if stmt.init is not None:
            value, vty = self.lower_expr(stmt.init)
            self._check_type(vty, ty, stmt)
        else:
            value = (self.fb.iconst(0) if ty == I64 else self.fb.fconst(0.0))
        self.write_variable(var, self.fb.current.id, value)
        return True

    def _lower_assign(self, stmt: ast.AssignStmt) -> bool:
        var = self.lookup(stmt.name, stmt)
        if var.is_array:
            raise CompileError(f"cannot assign to array {stmt.name!r}",
                               stmt.line, stmt.col)
        value, vty = self.lower_expr(stmt.value)
        if stmt.op != "=":
            base_op = stmt.op[:-1]
            current = self.read_variable(var, self.fb.current.id)
            value = self._binop(base_op, current, var.ty, value, vty, stmt)[0]
            vty = var.ty
        self._check_type(vty, var.ty, stmt)
        self.write_variable(var, self.fb.current.id, value)
        return True

    def _lower_incdec(self, stmt: ast.IncDecStmt) -> bool:
        var = self.lookup(stmt.name, stmt)
        if var.ty != I64 or var.is_array:
            raise CompileError("++/-- require a u64 scalar",
                               stmt.line, stmt.col)
        current = self.read_variable(var, self.fb.current.id)
        one = self.fb.iconst(1)
        op = "iadd" if stmt.op == "++" else "isub"
        self.write_variable(var, self.fb.current.id,
                            self.fb.emit(op, (current, one)))
        return True

    def _addr_and_elem(self, base_expr: ast.Expr, index_expr: ast.Expr,
                       node: ast.Node) -> Tuple[int, int, Type]:
        """Compute (address value, static offset, element type) for an
        ``base[index]`` access."""
        elem_ty = I64
        if isinstance(base_expr, ast.VarRef):
            var = self.lookup(base_expr.name, base_expr)
            if var.is_array and var.elem_ty is not None:
                elem_ty = var.elem_ty
        base, bty = self.lower_expr(base_expr)
        self._check_type(bty, I64, node)
        if isinstance(index_expr, ast.IntLit):
            return base, index_expr.value * 8, elem_ty
        index, ity = self.lower_expr(index_expr)
        self._check_type(ity, I64, node)
        three = self.fb.iconst(3)
        scaled = self.fb.emit("ishl", (index, three))
        addr = self.fb.emit("iadd", (base, scaled))
        return addr, 0, elem_ty

    def _lower_store(self, stmt: ast.StoreStmt) -> bool:
        addr, offset, elem_ty = self._addr_and_elem(stmt.base, stmt.index,
                                                    stmt)
        value, vty = self.lower_expr(stmt.value)
        if stmt.op != "=":
            base_op = stmt.op[:-1]
            load_op = "load64" if elem_ty == I64 else "loadf64"
            current = self.fb.emit(load_op, (addr,), imm=offset)
            value = self._binop(base_op, current, elem_ty, value, vty,
                                stmt)[0]
            vty = elem_ty
        self._check_type(vty, elem_ty, stmt)
        store_op = "store64" if elem_ty == I64 else "storef64"
        self.fb.emit(store_op, (addr, value), imm=offset)
        return True

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> bool:
        call = stmt.expr
        assert isinstance(call, ast.Call)
        if call.callee in ("abort", "unreachable"):
            self.fb.current.terminator = Trap(f"{call.callee}() called")
            return False
        self.lower_call(call, want_result=False)
        return True

    def _lower_return(self, stmt: ast.ReturnStmt) -> bool:
        if self.node.result == "void":
            if stmt.value is not None:
                raise CompileError("void function returns a value",
                                   stmt.line, stmt.col)
            self.terminate_return(None)
            return False
        if stmt.value is None:
            raise CompileError("non-void function must return a value",
                               stmt.line, stmt.col)
        value, vty = self.lower_expr(stmt.value)
        self._check_type(vty, _TYPE_MAP[self.node.result], stmt)
        self.terminate_return(value)
        return False

    def _lower_if(self, stmt: ast.IfStmt) -> bool:
        cond = self._lower_condition(stmt.cond)
        then_block = self.new_block()
        else_block = self.new_block() if stmt.else_body else None
        join = self.new_block()
        self.terminate_br_if(cond, then_block,
                             else_block if else_block else join)
        self.seal_block(then_block)
        self.fb.switch_to(then_block)
        then_done = self.lower_stmts(stmt.then_body)
        if then_done:
            self.terminate_jump(join)
        else_done = True
        if else_block is not None:
            self.seal_block(else_block)
            self.fb.switch_to(else_block)
            else_done = self.lower_stmts(stmt.else_body)
            if else_done:
                self.terminate_jump(join)
        self.seal_block(join)
        if not self.preds[join.id]:
            # Both arms terminated: the join is unreachable.
            join.terminator = Trap("unreachable join")
            self.fb.switch_to(join)
            return False
        self.fb.switch_to(join)
        return True

    def _lower_while(self, stmt: ast.WhileStmt) -> bool:
        header = self.new_block()
        self.terminate_jump(header)
        self.fb.switch_to(header)
        cond = self._lower_condition(stmt.cond)
        cond_tail = self.fb.current  # condition may span blocks (&&/||)
        body = self.new_block()
        exit_block = self.new_block()
        self.fb.switch_to(cond_tail)
        self.terminate_br_if(cond, body, exit_block)
        self.seal_block(body)
        self.fb.switch_to(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(header)
        body_done = self.lower_stmts(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if body_done:
            self.terminate_jump(header)
        self.seal_block(header)
        self.seal_block(exit_block)
        self.fb.switch_to(exit_block)
        return True

    def _lower_for(self, stmt: ast.ForStmt) -> bool:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.new_block()
        self.terminate_jump(header)
        self.fb.switch_to(header)
        if stmt.cond is not None:
            cond = self._lower_condition(stmt.cond)
        else:
            cond = self.fb.iconst(1)
        body = self.new_block()
        exit_block = self.new_block()
        step_block = self.new_block()
        self.terminate_br_if(cond, body, exit_block)
        self.seal_block(body)
        self.fb.switch_to(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        body_done = self.lower_stmts(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if body_done:
            self.terminate_jump(step_block)
        self.seal_block(step_block)
        if self.preds[step_block.id]:
            self.fb.switch_to(step_block)
            if stmt.step is not None:
                self.lower_stmt(stmt.step)
            self.terminate_jump(header)
        else:
            step_block.terminator = Trap("unreachable for-step")
        self.seal_block(header)
        self.seal_block(exit_block)
        self.fb.switch_to(exit_block)
        self.scopes.pop()
        return True

    def _lower_switch(self, stmt: ast.SwitchStmt) -> bool:
        selector, sty = self.lower_expr(stmt.selector)
        self._check_type(sty, I64, stmt)
        join = self.new_block()
        case_blocks = [self.new_block() for _ in stmt.cases]
        default_block = join
        value_map: Dict[int, Block] = {}
        for case, block in zip(stmt.cases, case_blocks):
            if case.is_default:
                default_block = block
            for value in case.values:
                if value in value_map:
                    raise CompileError(f"duplicate case {value}",
                                       stmt.line, stmt.col)
                value_map[value] = block

        self._emit_switch_dispatch(selector, value_map, default_block)

        for block in case_blocks:
            self.seal_block(block)

        self.break_targets.append(join)
        any_complete = False
        for i, (case, block) in enumerate(zip(stmt.cases, case_blocks)):
            self.fb.switch_to(block)
            done = self.lower_stmts(case.body)
            if done:
                # C fallthrough into the next case, or out to the join.
                if i + 1 < len(case_blocks):
                    self.terminate_jump(case_blocks[i + 1])
                else:
                    self.terminate_jump(join)
                    any_complete = True
        self.break_targets.pop()
        self.seal_block(join)
        if not self.preds[join.id]:
            join.terminator = Trap("unreachable switch join")
            self.fb.switch_to(join)
            return False
        self.fb.switch_to(join)
        return True

    def _emit_switch_dispatch(self, selector: int,
                              value_map: Dict[int, Block],
                              default_block: Block) -> None:
        if not value_map:
            self.terminate_jump(default_block)
            return
        lo = min(value_map)
        hi = max(value_map)
        if 0 <= hi - lo < 1024:
            index = selector
            if lo != 0:
                low_const = self.fb.iconst(lo)
                index = self.fb.emit("isub", (selector, low_const))
            cases = [value_map.get(lo + i, default_block)
                     for i in range(hi - lo + 1)]
            self.terminate_br_table(index, cases, default_block)
            return
        # Sparse: chain of equality tests.
        for value, block in sorted(value_map.items()):
            const = self.fb.iconst(value)
            cond = self.fb.emit("ieq", (selector, const))
            next_test = self.new_block()
            self.terminate_br_if(cond, block, next_test)
            self.seal_block(next_test)
            self.fb.switch_to(next_test)
        self.terminate_jump(default_block)

    # ------------------------------------------------------------------
    # Expressions.  Each returns (value id, Type).
    # ------------------------------------------------------------------
    def _check_type(self, actual: Type, expected: Type,
                    node: ast.Node) -> None:
        if actual != expected:
            raise CompileError(
                f"type mismatch: expected {expected}, got {actual}",
                node.line, node.col)

    def _lower_condition(self, expr: ast.Expr) -> int:
        value, ty = self.lower_expr(expr)
        self._check_type(ty, I64, expr)
        return value

    def lower_expr(self, expr: ast.Expr) -> Tuple[int, Type]:
        if isinstance(expr, ast.IntLit):
            return self.fb.iconst(wrap_i64(expr.value)), I64
        if isinstance(expr, ast.FloatLit):
            return self.fb.fconst(expr.value), F64
        if isinstance(expr, ast.VarRef):
            var = self.lookup(expr.name, expr)
            return self.read_variable(var, self.fb.current.id), var.ty
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._lower_logical(expr)
            left, lty = self.lower_expr(expr.left)
            right, rty = self.lower_expr(expr.right)
            return self._binop(expr.op, left, lty, right, rty, expr)
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Call):
            result = self.lower_call(expr, want_result=True)
            if result is None:
                raise CompileError(
                    f"void call {expr.callee!r} used as a value",
                    expr.line, expr.col)
            return result
        if isinstance(expr, ast.Index):
            addr, offset, elem_ty = self._addr_and_elem(expr.base,
                                                        expr.index, expr)
            op = "load64" if elem_ty == I64 else "loadf64"
            return self.fb.emit(op, (addr,), imm=offset), elem_ty
        raise CompileError(f"unhandled expression {type(expr).__name__}",
                           expr.line, expr.col)

    def _lower_unary(self, expr: ast.Unary) -> Tuple[int, Type]:
        value, ty = self.lower_expr(expr.operand)
        if expr.op == "-":
            if ty == F64:
                return self.fb.emit("fneg", (value,)), F64
            zero = self.fb.iconst(0)
            return self.fb.emit("isub", (zero, value)), I64
        if expr.op == "!":
            self._check_type(ty, I64, expr)
            zero = self.fb.iconst(0)
            return self.fb.emit("ieq", (value, zero)), I64
        if expr.op == "~":
            self._check_type(ty, I64, expr)
            ones = self.fb.iconst(wrap_i64(-1))
            return self.fb.emit("ixor", (value, ones)), I64
        raise CompileError(f"unhandled unary {expr.op!r}",
                           expr.line, expr.col)

    def _binop(self, op: str, left: int, lty: Type, right: int, rty: Type,
               node: ast.Node) -> Tuple[int, Type]:
        if lty != rty:
            raise CompileError(
                f"operand type mismatch for {op!r}: {lty} vs {rty} "
                f"(use itof/ftoi for conversions)", node.line, node.col)
        if lty == I64:
            opcode = _INT_BINOPS.get(op)
            if opcode is None:
                raise CompileError(f"operator {op!r} not valid on u64",
                                   node.line, node.col)
            return self.fb.emit(opcode, (left, right)), I64
        opcode = _FLOAT_BINOPS.get(op)
        if opcode is None:
            raise CompileError(f"operator {op!r} not valid on f64",
                               node.line, node.col)
        result_ty = I64 if op in _CMP_OPS else F64
        return self.fb.emit(opcode, (left, right)), result_ty

    def _lower_logical(self, expr: ast.Binary) -> Tuple[int, Type]:
        left = self._lower_condition(expr.left)
        rhs_block = self.new_block()
        join = self.new_block()
        param = self.func.add_block_param(join, I64)
        src = self.fb.current
        zero = self.fb.iconst(0)
        one = self.fb.iconst(1)
        short_value = zero if expr.op == "&&" else one
        tcall = BlockCall(rhs_block.id, ())
        fcall = BlockCall(join.id, (short_value,))
        if expr.op == "&&":
            src.terminator = BrIf(left, tcall, fcall)
        else:
            src.terminator = BrIf(left, fcall, tcall)
        self._record_edge(src, tcall)
        self._record_edge(src, fcall)
        self.seal_block(rhs_block)
        self.fb.switch_to(rhs_block)
        right = self._lower_condition(expr.right)
        rzero = self.fb.iconst(0)
        norm = self.fb.emit("ine", (right, rzero))
        src = self.fb.current
        call = BlockCall(join.id, (norm,))
        src.terminator = Jump(call)
        self._record_edge(src, call)
        self.seal_block(join)
        self.fb.switch_to(join)
        return param, I64

    def _lower_ternary(self, expr: ast.Ternary) -> Tuple[int, Type]:
        cond = self._lower_condition(expr.cond)
        then_block = self.new_block()
        else_block = self.new_block()
        join = self.new_block()
        self.terminate_br_if(cond, then_block, else_block)
        self.seal_block(then_block)
        self.seal_block(else_block)

        self.fb.switch_to(then_block)
        tvalue, tty = self.lower_expr(expr.if_true)
        tsrc = self.fb.current
        self.fb.switch_to(else_block)
        fvalue, fty = self.lower_expr(expr.if_false)
        fsrc = self.fb.current
        self._check_type(fty, tty, expr)

        param = self.func.add_block_param(join, tty)
        tcall = BlockCall(join.id, (tvalue,))
        tsrc.terminator = Jump(tcall)
        self._record_edge(tsrc, tcall)
        fcall = BlockCall(join.id, (fvalue,))
        fsrc.terminator = Jump(fcall)
        self._record_edge(fsrc, fcall)
        self.seal_block(join)
        self.fb.switch_to(join)
        return param, tty

    # ------------------------------------------------------------------
    # Calls.
    # ------------------------------------------------------------------
    def lower_call(self, expr: ast.Call,
                   want_result: bool) -> Optional[Tuple[int, Type]]:
        name = expr.callee

        # Direct-opcode builtins.
        if name in _MEMORY_BUILTINS:
            opcode, arg_types, result = _MEMORY_BUILTINS[name]
            args = self._lower_args(expr, arg_types)
            value = self.fb.emit(opcode, args, imm=0
                                 if opcode.startswith(("load", "store"))
                                 else None)
            if result is None:
                return None
            return value, result
        if name in _SIGNED_BUILTINS:
            opcode = _SIGNED_BUILTINS[name]
            args = self._lower_args(expr, (I64, I64))
            return self.fb.emit(opcode, args), I64
        if name == "select":
            args = self._lower_args_poly(expr)
            return args
        if name.startswith("icall"):
            return self._lower_icall(expr)

        # weval intrinsics (mini-C name weval_foo -> import weval.foo).
        if name.startswith("weval_"):
            return self._lower_intrinsic(expr)

        # User-defined or extern functions.
        sig = self.ctx.signature_of(name, expr)
        if len(expr.args) != len(sig.params):
            raise CompileError(
                f"{name!r} expects {len(sig.params)} args, got "
                f"{len(expr.args)}", expr.line, expr.col)
        args = []
        for arg_expr, ty in zip(expr.args, sig.params):
            value, vty = self.lower_expr(arg_expr)
            self._check_type(vty, ty, arg_expr)
            args.append(value)
        result_type = sig.results[0] if sig.results else None
        value = self.fb.call(name, args, result_type=result_type)
        if result_type is None:
            return None
        return value, result_type

    def _lower_args(self, expr: ast.Call, arg_types) -> List[int]:
        if len(expr.args) != len(arg_types):
            raise CompileError(
                f"{expr.callee!r} expects {len(arg_types)} args, got "
                f"{len(expr.args)}", expr.line, expr.col)
        args = []
        for arg_expr, ty in zip(expr.args, arg_types):
            value, vty = self.lower_expr(arg_expr)
            self._check_type(vty, ty, arg_expr)
            args.append(value)
        return args

    def _lower_args_poly(self, expr: ast.Call) -> Tuple[int, Type]:
        if len(expr.args) != 3:
            raise CompileError("select expects 3 args", expr.line, expr.col)
        cond = self._lower_condition(expr.args[0])
        tvalue, tty = self.lower_expr(expr.args[1])
        fvalue, fty = self.lower_expr(expr.args[2])
        self._check_type(fty, tty, expr)
        return self.fb.emit("select", (cond, tvalue, fvalue)), tty

    def _lower_icall(self, expr: ast.Call) -> Tuple[int, Type]:
        suffix = expr.callee[len("icall"):]
        if not suffix.isdigit():
            raise CompileError(f"unknown builtin {expr.callee!r}",
                               expr.line, expr.col)
        arity = int(suffix)
        if len(expr.args) != arity + 1:
            raise CompileError(
                f"{expr.callee} expects {arity + 1} args (index + "
                f"{arity} params)", expr.line, expr.col)
        values = []
        for arg_expr in expr.args:
            value, vty = self.lower_expr(arg_expr)
            self._check_type(vty, I64, arg_expr)
            values.append(value)
        sig = Signature(tuple([I64] * arity), (I64,))
        result = self.fb.call_indirect(sig, values[0], values[1:])
        return result, I64

    def _lower_intrinsic(self, expr: ast.Call) -> Optional[Tuple[int, Type]]:
        import_name = "weval." + expr.callee[len("weval_"):]
        intr = INTRINSICS.get(import_name)
        if intr is None:
            raise CompileError(f"unknown weval intrinsic {expr.callee!r}",
                               expr.line, expr.col)
        self.ctx.used_intrinsics.add(import_name)
        args = self._lower_args(expr, intr.sig.params)
        result_type = intr.sig.results[0] if intr.sig.results else None
        value = self.fb.call(import_name, args, result_type=result_type)
        if result_type is None:
            return None
        return value, result_type


class _ProgramContext:
    """Shared state across function lowerings: signatures and intrinsics."""

    def __init__(self, program: ast.Program):
        self.signatures: Dict[str, Signature] = {}
        self.externs: Dict[str, Signature] = {}
        self.used_intrinsics: set = set()
        for ext in program.externs:
            sig = Signature(
                tuple(_TYPE_MAP[t] for t, _ in ext.params),
                () if ext.result == "void" else (_TYPE_MAP[ext.result],))
            self.externs[ext.name] = sig
            self.signatures[ext.name] = sig
        for func in program.functions:
            if func.name in self.signatures:
                raise CompileError(f"duplicate definition of {func.name!r}",
                                   func.line, func.col)
            self.signatures[func.name] = Signature(
                tuple(_TYPE_MAP[t] for t, _ in func.params),
                () if func.result == "void"
                else (_TYPE_MAP[func.result],))

    def signature_of(self, name: str, node: ast.Node) -> Signature:
        sig = self.signatures.get(name)
        if sig is None:
            raise CompileError(
                f"call to undeclared function {name!r} (declare host "
                f"functions with 'extern')", node.line, node.col)
        return sig


def compile_source(source: str) -> CompiledProgram:
    """Compile mini-C source text to IR functions.

    Returns a :class:`CompiledProgram`; call ``add_to_module`` to place
    the functions (plus required imports and the shadow-stack global)
    into a :class:`~repro.ir.module.Module`.
    """
    program = parse_source(source)
    ctx = _ProgramContext(program)
    functions: Dict[str, Function] = {}
    uses_shadow_stack = False
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100000))
    try:
        for node in program.functions:
            lowerer = _FuncLowerer(ctx, node)
            functions[node.name] = lowerer.lower()
            if lowerer.frame_size:
                uses_shadow_stack = True
    finally:
        sys.setrecursionlimit(old_limit)
    return CompiledProgram(
        functions=functions,
        externs=ctx.externs,
        weval_imports=sorted(ctx.used_intrinsics),
        uses_shadow_stack=uses_shadow_stack,
        source=source,
    )
