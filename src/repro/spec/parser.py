"""Lexer and parser for MiniPVS theories.

Syntax sketch (keywords are upper-case; identifiers are case-sensitive)::

    THEORY AES
      TYPE Byte = NAT UPTO 255
      TYPE State = ARRAY 16 OF Byte
      CONST Sbox : ARRAY 256 OF Byte = [99, 124, ...]
      FUN XTime (B : Byte) : Byte =
          IF B * 2 <= 255 THEN B * 2 ELSE XOR (B * 2 - 256, 27) ENDIF
      REC FUN Acc (N : NAT) : NAT MEASURE N =
          IF N = 0 THEN 0 ELSE Acc (N - 1) + 1 ENDIF
    END AES

Builtins applied like functions: ``XOR``, ``BITAND``, ``BITOR``, ``SHL``,
``SHR``.  Boolean connectives ``AND``/``OR``/``NOT`` are operators.
"""

from __future__ import annotations

from typing import List, Tuple

from . import ast as s

__all__ = ["parse_theory", "SpecParseError"]

_KEYWORDS = frozenset(
    """THEORY END TYPE CONST FUN REC MEASURE NAT BOOL UPTO ARRAY OF IF THEN
    ELSE ENDIF LET IN BUILD TRUE FALSE AND OR NOT DIV MOD XOR""".split())

_SYMBOLS = ["<=", ">=", "/=", "=", "<", ">", "(", ")", "[", "]", ",", ":",
            ".", "+", "-", "*"]

_REL_OPS = {"=", "/=", "<", "<=", ">", ">="}

_BUILTIN_FUNCTIONS = frozenset(["XOR", "BITAND", "BITOR", "SHL", "SHR"])


class SpecParseError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _tokenize(source: str):
    tokens = []
    i, line, n = 0, 1, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            if word in _KEYWORDS and word not in _BUILTIN_FUNCTIONS:
                tokens.append(("kw", word, line))
            elif word in _BUILTIN_FUNCTIONS:
                tokens.append(("id", word, line))
            else:
                tokens.append(("id", word, line))
            continue
        if ch.isdigit():
            start = i
            while i < n and (source[i].isdigit() or source[i] == "_"):
                i += 1
            if i < n and source[i] == "#":  # based literal 16#FF#
                base = int(source[start:i])
                i += 1
                dstart = i
                while i < n and (source[i].isalnum() or source[i] == "_"):
                    i += 1
                if i >= n or source[i] != "#":
                    raise SpecParseError("unterminated based literal", line)
                value = int(source[dstart:i].replace("_", ""), base)
                i += 1
                tokens.append(("int", value, line))
            else:
                tokens.append(("int", int(source[start:i].replace("_", "")),
                               line))
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(("sym", sym, line))
                i += len(sym)
                break
        else:
            raise SpecParseError(f"unexpected character {ch!r}", line)
    tokens.append(("eof", None, line))
    return tokens


class _P:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def check(self, kind, value=None):
        tok = self.peek()
        return tok[0] == kind and (value is None or tok[1] == value)

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        tok = self.peek()
        if not (tok[0] == kind and (value is None or tok[1] == value)):
            want = value if value is not None else kind
            raise SpecParseError(f"expected {want!r}, found {tok[1]!r}",
                                 tok[2])
        return self.advance()

    # -- theory ---------------------------------------------------------

    def theory(self) -> s.Theory:
        self.expect("kw", "THEORY")
        name = self.expect("id")[1]
        decls = []
        while not self.check("kw", "END"):
            decls.append(self.decl())
        self.expect("kw", "END")
        end_name = self.expect("id")[1]
        if end_name != name:
            raise SpecParseError(
                f"theory '{name}' ends with '{end_name}'", self.peek()[2])
        self.expect("eof")
        return s.Theory(name=name, decls=tuple(decls))

    def decl(self) -> s.SDecl:
        if self.accept("kw", "TYPE"):
            name = self.expect("id")[1]
            self.expect("sym", "=")
            return s.TypeDef(name=name, definition=self.type_expr())
        if self.accept("kw", "CONST"):
            name = self.expect("id")[1]
            self.expect("sym", ":")
            ctype = self.type_expr()
            self.expect("sym", "=")
            return s.ConstDef(name=name, type=ctype, value=self.expr())
        recursive = bool(self.accept("kw", "REC"))
        self.expect("kw", "FUN")
        name = self.expect("id")[1]
        self.expect("sym", "(")
        params: List[Tuple[str, s.SType]] = []
        while True:
            names = [self.expect("id")[1]]
            while self.accept("sym", ","):
                names.append(self.expect("id")[1])
            self.expect("sym", ":")
            ptype = self.type_expr()
            for pname in names:
                params.append((pname, ptype))
            if not self.accept("sym", ","):
                break
        self.expect("sym", ")")
        self.expect("sym", ":")
        rtype = self.type_expr()
        measure = None
        if self.accept("kw", "MEASURE"):
            # Measures are numeric; parse below the relational level so the
            # following '=' starts the function body.
            measure = self.arith()
        self.expect("sym", "=")
        body = self.expr()
        return s.FunDef(name=name, params=tuple(params), return_type=rtype,
                        body=body, recursive=recursive, measure=measure)

    def type_expr(self) -> s.SType:
        if self.accept("kw", "NAT"):
            if self.accept("kw", "UPTO"):
                hi = self.expect("int")[1]
                return s.SubrangeType(hi=hi)
            return s.NatType()
        if self.accept("kw", "BOOL"):
            return s.BoolType()
        if self.accept("kw", "ARRAY"):
            size = self.expect("int")[1]
            self.expect("kw", "OF")
            return s.ArrayTypeS(size=size, elem=self.type_expr())
        name = self.expect("id")[1]
        return s.NamedType(name=name)

    # -- expressions ------------------------------------------------------

    def expr(self) -> s.SExpr:
        return self.or_expr()

    def or_expr(self) -> s.SExpr:
        left = self.and_expr()
        while self.accept("kw", "OR"):
            left = s.Bin(op="OR", left=left, right=self.and_expr())
        return left

    def and_expr(self) -> s.SExpr:
        left = self.not_expr()
        while self.accept("kw", "AND"):
            left = s.Bin(op="AND", left=left, right=self.not_expr())
        return left

    def not_expr(self) -> s.SExpr:
        if self.accept("kw", "NOT"):
            return s.Call(fn="NOT", args=(self.not_expr(),))
        return self.relation()

    def relation(self) -> s.SExpr:
        left = self.arith()
        tok = self.peek()
        if tok[0] == "sym" and tok[1] in _REL_OPS:
            op = self.advance()[1]
            return s.Bin(op=op, left=left, right=self.arith())
        return left

    def arith(self) -> s.SExpr:
        if self.check("sym", "-"):
            self.advance()
            left: s.SExpr = s.Bin(op="-", left=s.Num(value=0),
                                  right=self.term())
        else:
            left = self.term()
        while self.peek()[0] == "sym" and self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            left = s.Bin(op=op, left=left, right=self.term())
        return left

    def term(self) -> s.SExpr:
        left = self.postfix()
        while True:
            if self.check("sym", "*"):
                self.advance()
                op = "*"
            elif self.check("kw", "DIV"):
                self.advance()
                op = "DIV"
            elif self.check("kw", "MOD"):
                self.advance()
                op = "MOD"
            else:
                return left
            left = s.Bin(op=op, left=left, right=self.postfix())

    def postfix(self) -> s.SExpr:
        expr = self.primary()
        while True:
            if self.accept("sym", "["):
                index = self.expr()
                self.expect("sym", "]")
                expr = s.Index(array=expr, index=index)
            else:
                return expr

    def primary(self) -> s.SExpr:
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return s.Num(value=tok[1])
        if self.accept("kw", "TRUE"):
            return s.BoolConst(value=True)
        if self.accept("kw", "FALSE"):
            return s.BoolConst(value=False)
        if self.accept("kw", "IF"):
            cond = self.expr()
            self.expect("kw", "THEN")
            then = self.expr()
            self.expect("kw", "ELSE")
            orelse = self.expr()
            self.expect("kw", "ENDIF")
            return s.IfExpr(cond=cond, then=then, orelse=orelse)
        if self.accept("kw", "LET"):
            var = self.expect("id")[1]
            self.expect("sym", "=")
            value = self.expr()
            self.expect("kw", "IN")
            return s.Let(var=var, value=value, body=self.expr())
        if self.accept("kw", "BUILD"):
            var = self.expect("id")[1]
            self.expect("sym", ":")
            size = self.expect("int")[1]
            self.expect("sym", ".")
            return s.Build(var=var, size=size, body=self.expr())
        if tok[0] == "id":
            name = self.advance()[1]
            if self.check("sym", "("):
                return self._call(name)
            return s.Var(name=name)
        if self.accept("sym", "("):
            inner = self.expr()
            self.expect("sym", ")")
            return inner
        if self.accept("sym", "["):
            values = [self._table_entry()]
            while self.accept("sym", ","):
                values.append(self._table_entry())
            self.expect("sym", "]")
            return s.TableLit(values=tuple(values))
        raise SpecParseError(f"unexpected token {tok[1]!r}", tok[2])

    def _table_entry(self) -> int:
        tok = self.expect("int")
        return tok[1]

    def _call(self, name: str) -> s.Call:
        self.expect("sym", "(")
        args = [self.expr()]
        while self.accept("sym", ","):
            args.append(self.expr())
        self.expect("sym", ")")
        return s.Call(fn=name, args=tuple(args))


def parse_theory(source: str) -> s.Theory:
    return _P(_tokenize(source)).theory()
