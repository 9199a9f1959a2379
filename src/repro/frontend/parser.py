"""Recursive-descent parser for mini-C."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import CompileError
from repro.frontend.lexer import Token, tokenize

# Binary operator precedence, loosest first.  ``&&``/``||`` and ``?:`` are
# handled separately for short-circuit lowering.
PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_BINARY_LEVEL = {op: level for level, ops in enumerate(PRECEDENCE)
                 for op in ops}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers.
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = self.pos + offset
        tokens = self.tokens
        return tokens[index] if index < len(tokens) else tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise CompileError(f"expected {want!r}, found {tok.text!r}",
                               tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> CompileError:
        tok = self.peek()
        return CompileError(message, tok.line, tok.col)

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        functions: List[ast.FuncDef] = []
        externs: List[ast.ExternDecl] = []
        while not self.at("eof"):
            if self.at("keyword", "extern"):
                externs.append(self.parse_extern())
            else:
                functions.append(self.parse_function())
        return ast.Program(functions, externs)

    def parse_type(self, allow_void: bool = False) -> str:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("u64", "f64"):
            self.next()
            return tok.text
        if allow_void and tok.kind == "keyword" and tok.text == "void":
            self.next()
            return "void"
        raise self.error(f"expected a type, found {tok.text!r}")

    def parse_param_list(self) -> List[Tuple[str, str]]:
        self.expect("op", "(")
        params: List[Tuple[str, str]] = []
        if not self.at("op", ")"):
            while True:
                ty = self.parse_type()
                name = self.expect("ident").text
                params.append((ty, name))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return params

    def parse_extern(self) -> ast.ExternDecl:
        tok = self.expect("keyword", "extern")
        result = self.parse_type(allow_void=True)
        name = self.expect("ident").text
        params = self.parse_param_list()
        self.expect("op", ";")
        return ast.ExternDecl(tok.line, tok.col, name, result, params)

    def parse_function(self) -> ast.FuncDef:
        tok = self.peek()
        result = self.parse_type(allow_void=True)
        name = self.expect("ident").text
        params = self.parse_param_list()
        body = self.parse_block()
        return ast.FuncDef(tok.line, tok.col, name, result, params, body)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def parse_block(self) -> List[ast.Stmt]:
        self.expect("op", "{")
        stmts: List[ast.Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.parse_statement())
        self.expect("op", "}")
        return stmts

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text in ("u64", "f64"):
                return self.parse_declaration()
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "switch":
                return self.parse_switch()
            if tok.text == "break":
                self.next()
                self.expect("op", ";")
                return ast.BreakStmt(tok.line, tok.col)
            if tok.text == "continue":
                self.next()
                self.expect("op", ";")
                return ast.ContinueStmt(tok.line, tok.col)
            if tok.text == "return":
                self.next()
                value = None
                if not self.at("op", ";"):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.ReturnStmt(tok.line, tok.col, value)
        if self.at("op", "{"):
            body = self.parse_block()
            return ast.BlockStmt(tok.line, tok.col, body)
        return self.parse_simple_statement(require_semicolon=True)

    def parse_declaration(self) -> ast.Stmt:
        tok = self.peek()
        ty = self.parse_type()
        name = self.expect("ident").text
        if self.accept("op", "["):
            size_tok = self.expect("int")
            self.expect("op", "]")
            self.expect("op", ";")
            return ast.DeclStmt(tok.line, tok.col, ty, name, None,
                                array_size=int(size_tok.value))
        init = None
        if self.accept("op", "="):
            init = self.parse_expression()
        self.expect("op", ";")
        return ast.DeclStmt(tok.line, tok.col, ty, name, init)

    def parse_simple_statement(self, require_semicolon: bool) -> ast.Stmt:
        """Assignment, increment/decrement, indexed store, or a bare call."""
        tok = self.peek()
        stmt = self._parse_simple_inner(tok)
        if require_semicolon:
            self.expect("op", ";")
        return stmt

    def _parse_simple_inner(self, tok: Token) -> ast.Stmt:
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "op" and nxt.text in ASSIGN_OPS:
                name = self.next().text
                op = self.next().text
                value = self.parse_expression()
                return ast.AssignStmt(tok.line, tok.col, name, op, value)
            if nxt.kind == "op" and nxt.text in ("++", "--"):
                name = self.next().text
                op = self.next().text
                return ast.IncDecStmt(tok.line, tok.col, name, op)
        # General expression; may become an indexed store or a call stmt.
        expr = self.parse_expression()
        if isinstance(expr, ast.Index) and self.peek().kind == "op" \
                and self.peek().text in ASSIGN_OPS:
            op = self.next().text
            value = self.parse_expression()
            return ast.StoreStmt(tok.line, tok.col, expr.base, expr.index,
                                 op, value)
        if isinstance(expr, ast.Call):
            return ast.ExprStmt(tok.line, tok.col, expr)
        raise CompileError("expression statement must be a call, assignment, "
                           "or indexed store", tok.line, tok.col)

    def parse_if(self) -> ast.Stmt:
        tok = self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then_body = self.parse_block()
        else_body: List[ast.Stmt] = []
        if self.accept("keyword", "else"):
            if self.at("keyword", "if"):
                else_body = [self.parse_if()]
            else:
                else_body = self.parse_block()
        return ast.IfStmt(tok.line, tok.col, cond, then_body, else_body)

    def parse_while(self) -> ast.Stmt:
        tok = self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_block()
        return ast.WhileStmt(tok.line, tok.col, cond, body)

    def parse_for(self) -> ast.Stmt:
        tok = self.expect("keyword", "for")
        self.expect("op", "(")
        init = None
        if not self.at("op", ";"):
            if self.at("keyword", "u64") or self.at("keyword", "f64"):
                init = self.parse_declaration()
            else:
                init = self.parse_simple_statement(require_semicolon=True)
        else:
            self.expect("op", ";")
        cond = None
        if not self.at("op", ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step = None
        if not self.at("op", ")"):
            step = self.parse_simple_statement(require_semicolon=False)
        self.expect("op", ")")
        body = self.parse_block()
        return ast.ForStmt(tok.line, tok.col, init, cond, step, body)

    def parse_switch(self) -> ast.Stmt:
        tok = self.expect("keyword", "switch")
        self.expect("op", "(")
        selector = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        cases: List[ast.SwitchCase] = []
        while not self.at("op", "}"):
            values: List[int] = []
            is_default = False
            # One or more labels.
            while True:
                if self.accept("keyword", "case"):
                    val_tok = self.expect("int")
                    values.append(int(val_tok.value))
                    self.expect("op", ":")
                elif self.accept("keyword", "default"):
                    is_default = True
                    self.expect("op", ":")
                else:
                    break
            if not values and not is_default:
                raise self.error("expected 'case' or 'default' label")
            body: List[ast.Stmt] = []
            while not (self.at("op", "}") or self.at("keyword", "case")
                       or self.at("keyword", "default")):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(values, is_default, body))
        self.expect("op", "}")
        return ast.SwitchStmt(tok.line, tok.col, selector, cases)

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.accept("op", "?"):
            tok = self.peek()
            if_true = self.parse_expression()
            self.expect("op", ":")
            if_false = self.parse_ternary()
            return ast.Ternary(tok.line, tok.col, cond, if_true, if_false)
        return cond

    def parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: one call per operand, not one per
        precedence level.  Every binary operator is left-associative."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            level = _BINARY_LEVEL.get(tok.text) if tok.kind == "op" else None
            if level is None or level < min_level:
                return left
            self.next()
            right = self.parse_binary(level + 1)
            left = ast.Binary(tok.line, tok.col, tok.text, left, right)

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "!", "~"):
            self.next()
            operand = self.parse_unary()
            return ast.Unary(tok.line, tok.col, tok.text, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.at("op", "["):
                tok = self.next()
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(tok.line, tok.col, expr, index)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ast.IntLit(tok.line, tok.col, int(tok.value))
        if tok.kind == "float":
            self.next()
            return ast.FloatLit(tok.line, tok.col, float(tok.value))
        if tok.kind == "ident":
            self.next()
            if self.at("op", "("):
                self.next()
                args: List[ast.Expr] = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return ast.Call(tok.line, tok.col, tok.text, args)
            return ast.VarRef(tok.line, tok.col, tok.text)
        if self.accept("op", "("):
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {tok.text!r} in expression")


def parse_source(source: str) -> ast.Program:
    return Parser(source).parse_program()
