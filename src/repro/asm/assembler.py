"""Two-pass assembler for the implemented ORBIS32 subset.

Supported syntax (one statement per line)::

    # comment            ; comment styles: '#' and ';'
    label:               ; labels, optionally followed by a statement
    .org 0x100           ; set the current assembly address
    .text / .data        ; switch section (text at 0x0, data at 0x10000)
    .align 4             ; align to a power-of-two byte boundary
    .word 1, 2, sym+4    ; emit literal words (expressions allowed)
    .space 64            ; reserve zero-filled bytes
    .equ NAME, expr      ; define an absolute symbol
    l.addi  r3,r3,-1     ; instructions, operands comma-separated
    l.lwz   r4,8(r2)     ; load/store displacement syntax
    l.movhi r5,hi(table) ; hi()/lo() relocation operators
    l.bf    loop         ; branch/jump targets as labels or expressions

Expressions support ``+ - * ( )``, decimal/hex/binary literals, ``'c'``
character literals, symbols, and ``hi()/lo()``.
"""

import re

from repro.asm.program import DATA_BASE, Program, TEXT_BASE
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, spec_for
from repro.isa.registers import REG_COUNT, parse_register


class AssemblerError(ValueError):
    """Assembly failure, annotated with the source line number."""

    def __init__(self, message, line_number=None, line_text=None):
        location = f" (line {line_number}: {line_text!r})" if line_number else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(.*)\(\s*([A-Za-z]\w*)\s*\)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)"
    r"|(?P<char>'(?:\\.|[^'\\])')"
    r"|(?P<name>[A-Za-z_.$][\w.$]*)"
    r"|(?P<op>[-+*()]))"
)
#: A plain integer literal, the common operand: evaluated by ``int`` alone.
#: Decimals with a leading zero ("08") are left to the tokenizer, which
#: reports them.
_INT_LITERAL_RE = re.compile(
    r"-?(?:0[xX][0-9a-fA-F]+|0[bB][01]+|[1-9][0-9]*|0+)"
)
#: Canonical register names; aliases and other spellings take
#: :func:`~repro.isa.registers.parse_register`.
_REGISTER_INDEX = {f"r{index}": index for index in range(REG_COUNT)}


class _ExpressionEvaluator:
    """Tiny recursive-descent evaluator for operand expressions."""

    def __init__(self, text, symbols):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.symbols = symbols

    @staticmethod
    def _tokenize(text):
        tokens = []
        index = 0
        while index < len(text):
            match = _TOKEN_RE.match(text, index)
            if not match:
                remainder = text[index:].strip()
                if not remainder:
                    break
                raise AssemblerError(f"cannot tokenize expression at {remainder!r}")
            index = match.end()
            if match.lastgroup == "num":
                literal = match.group("num")
                try:
                    tokens.append(("num", int(literal, 0)))
                except ValueError:
                    raise AssemblerError(
                        f"invalid integer literal {literal!r}"
                    ) from None
            elif match.lastgroup == "char":
                literal = match.group("char")[1:-1]
                value = ord(literal[-1]) if literal.startswith("\\") else ord(literal)
                tokens.append(("num", value))
            elif match.lastgroup == "name":
                tokens.append(("name", match.group("name")))
            else:
                tokens.append(("op", match.group("op")))
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _next(self):
        token = self._peek()
        self.pos += 1
        return token

    def evaluate(self):
        value = self._expr()
        if self.pos != len(self.tokens):
            raise AssemblerError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return value

    def _expr(self):
        value = self._term()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._unary()
        while self._peek() == ("op", "*"):
            self._next()
            value = value * self._unary()
        return value

    def _unary(self):
        kind, token = self._peek()
        if (kind, token) == ("op", "-"):
            self._next()
            return -self._unary()
        if (kind, token) == ("op", "+"):
            self._next()
            return self._unary()
        return self._atom()

    def _atom(self):
        kind, token = self._next()
        if kind == "num":
            return token
        if kind == "op" and token == "(":
            value = self._expr()
            if self._next() != ("op", ")"):
                raise AssemblerError("unbalanced parentheses in expression")
            return value
        if kind == "name":
            lowered = token.lower()
            if lowered in ("hi", "lo") and self._peek() == ("op", "("):
                self._next()
                inner = self._expr()
                if self._next() != ("op", ")"):
                    raise AssemblerError(f"unbalanced parentheses after {token}()")
                # hi()/lo() pair with the l.movhi + l.ori idiom (l.ori
                # zero-extends), so hi() is the plain upper half-word.
                if lowered == "hi":
                    return (inner >> 16) & 0xFFFF
                return inner & 0xFFFF
            if token not in self.symbols:
                raise AssemblerError(f"undefined symbol {token!r}")
            return self.symbols[token]
        raise AssemblerError(f"unexpected token in expression: {token!r}")


def _evaluate(text, symbols):
    if _INT_LITERAL_RE.fullmatch(text):
        return int(text, 0)
    return _ExpressionEvaluator(text, symbols).evaluate()


def _split_operands(text):
    """Split an operand string on top-level commas."""
    if "(" not in text and ")" not in text:
        operands = [operand.strip() for operand in text.split(",")]
        if not operands[-1]:
            operands.pop()
        return operands
    operands = []
    depth = 0
    current = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


class _Statement:
    """One parsed source statement, retained between the two passes."""

    def __init__(self, line_number, text, labels, mnemonic, operands):
        self.line_number = line_number
        self.text = text
        self.labels = labels
        self.mnemonic = mnemonic
        self.operands = operands
        self.address = None


def _parse_lines(source):
    statements = []
    pending_labels = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = raw.partition("#")[0].partition(";")[0].strip()
        while ":" in line:
            match = _LABEL_RE.match(line)
            if not match:
                break
            pending_labels.append(match.group(1))
            line = line[match.end():].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        statements.append(
            _Statement(
                line_number, raw.strip(), pending_labels,
                mnemonic, _split_operands(operand_text),
            )
        )
        pending_labels = []
    if pending_labels:
        # trailing labels refer to the end of the program
        statements.append(_Statement(0, "", pending_labels, None, []))
    return statements


def _sole_operand(statement):
    if len(statement.operands) != 1:
        raise AssemblerError(f"{statement.mnemonic} needs one operand")
    return statement.operands[0]


def _statement_size(statement, symbols):
    """Size in bytes occupied by a statement (pass 1)."""
    mnemonic = statement.mnemonic
    if mnemonic is None:
        return 0
    if mnemonic == ".word":
        return 4 * max(len(statement.operands), 1)
    if mnemonic == ".space":
        return _evaluate(_sole_operand(statement), symbols)
    if mnemonic.startswith("."):
        return 0
    return 4


def assemble(source, name="program", entry_symbol=None):
    """Assemble OR1K source text into a :class:`Program`.

    Parameters
    ----------
    source:
        Assembly text.
    name:
        Program name carried into reports.
    entry_symbol:
        Optional symbol to use as the entry point (default: start of text).
    """
    statements = _parse_lines(source)
    symbols = {}

    # -- pass 1: assign addresses -----------------------------------------
    address = TEXT_BASE
    section_addresses = {".text": TEXT_BASE, ".data": DATA_BASE}
    current_section = ".text"
    for statement in statements:
        mnemonic = statement.mnemonic
        try:
            if mnemonic == ".org":
                address = _evaluate(_sole_operand(statement), symbols)
            elif mnemonic in (".text", ".data"):
                section_addresses[current_section] = address
                current_section = mnemonic
                address = section_addresses[current_section]
            elif mnemonic == ".align":
                alignment = _evaluate(_sole_operand(statement), symbols)
                if alignment <= 0 or alignment & (alignment - 1):
                    raise AssemblerError(f".align needs a power of two, got {alignment}")
                address = (address + alignment - 1) & ~(alignment - 1)
            elif mnemonic == ".equ":
                if len(statement.operands) != 2:
                    raise AssemblerError(".equ needs NAME, VALUE")
                symbols[statement.operands[0]] = _evaluate(
                    statement.operands[1], symbols
                )
            for label in statement.labels:
                if label in symbols:
                    raise AssemblerError(f"duplicate label {label!r}")
                symbols[label] = address
            statement.address = address
            address += _statement_size(statement, symbols)
        except AssemblerError as err:
            raise AssemblerError(
                str(err), statement.line_number, statement.text
            ) from None

    # -- pass 2: encode -----------------------------------------------------
    program = Program(name=name)
    for statement in statements:
        mnemonic = statement.mnemonic
        if mnemonic is None or mnemonic in (".org", ".text", ".data",
                                            ".align", ".equ", ".global"):
            continue
        try:
            if mnemonic == ".word":
                for offset, operand in enumerate(statement.operands):
                    value = _evaluate(operand, symbols) & 0xFFFFFFFF
                    program.add_word(statement.address + 4 * offset, value)
            elif mnemonic == ".space":
                size = _evaluate(_sole_operand(statement), symbols)
                for offset in range(0, size, 4):
                    program.add_word(statement.address + offset, 0)
            elif mnemonic.startswith("."):
                raise AssemblerError(f"unknown directive {mnemonic!r}")
            else:
                instruction = _parse_instruction(
                    mnemonic, statement.operands, statement.address, symbols
                )
                program.add_word(
                    statement.address, encode(instruction), instruction
                )
        except ValueError as err:
            # AssemblerError, or an encoder/image range check (EncodingError,
            # a word assembled twice)
            raise AssemblerError(
                str(err), statement.line_number, statement.text
            ) from None

    program.symbols = symbols
    if entry_symbol is not None:
        program.entry = program.symbol(entry_symbol)
    elif "start" in symbols:
        program.entry = symbols["start"]
    elif "_start" in symbols:
        program.entry = symbols["_start"]
    return program


def _parse_instruction(mnemonic, operands, address, symbols):
    try:
        spec = spec_for(mnemonic)
    except KeyError as err:
        raise AssemblerError(str(err)) from None
    fmt = spec.fmt

    def expect(count):
        if len(operands) != count:
            raise AssemblerError(
                f"{mnemonic} expects {count} operand(s), got {len(operands)}"
            )

    def value(text):
        return _evaluate(text, symbols)

    def pc_relative(text):
        target = value(text)
        delta = target - address
        if delta % 4 != 0:
            raise AssemblerError(f"branch target not word aligned: {text}")
        return delta // 4

    if fmt in (Format.J, Format.BRANCH):
        expect(1)
        return Instruction(mnemonic, imm=pc_relative(operands[0]))
    if fmt == Format.JR:
        expect(1)
        return Instruction(mnemonic, rb=_reg(operands[0]))
    if fmt == Format.NOP:
        if len(operands) not in (0, 1):
            raise AssemblerError("l.nop takes at most one operand")
        imm = value(operands[0]) if operands else 0
        return Instruction(mnemonic, imm=imm)
    if fmt == Format.MOVHI:
        expect(2)
        return Instruction(mnemonic, rd=_reg(operands[0]), imm=value(operands[1]))
    if fmt == Format.LOAD:
        expect(2)
        imm, base = _parse_displacement(operands[1], symbols)
        return Instruction(mnemonic, rd=_reg(operands[0]), ra=base, imm=imm)
    if fmt == Format.STORE:
        expect(2)
        imm, base = _parse_displacement(operands[0], symbols)
        return Instruction(mnemonic, ra=base, rb=_reg(operands[1]), imm=imm)
    if fmt in (Format.ALU_IMM, Format.SHIFT_IMM):
        expect(3)
        return Instruction(
            mnemonic, rd=_reg(operands[0]), ra=_reg(operands[1]),
            imm=value(operands[2]),
        )
    if fmt == Format.SETFLAG_IMM:
        expect(2)
        return Instruction(mnemonic, ra=_reg(operands[0]), imm=value(operands[1]))
    if fmt == Format.SETFLAG_REG:
        expect(2)
        return Instruction(mnemonic, ra=_reg(operands[0]), rb=_reg(operands[1]))
    if fmt == Format.ALU_REG:
        if spec.reads_rb:
            expect(3)
            return Instruction(
                mnemonic, rd=_reg(operands[0]), ra=_reg(operands[1]),
                rb=_reg(operands[2]),
            )
        expect(2)
        return Instruction(mnemonic, rd=_reg(operands[0]), ra=_reg(operands[1]))
    raise AssertionError(f"unhandled format {fmt}")


def _reg(text):
    index = _REGISTER_INDEX.get(text)
    if index is not None:
        return index
    try:
        return parse_register(text)
    except ValueError as err:
        raise AssemblerError(str(err)) from None


def _parse_displacement(text, symbols):
    """Parse a ``disp(rN)`` memory operand into (immediate, base register)."""
    match = _MEM_OPERAND_RE.match(text.strip())
    if not match:
        raise AssemblerError(f"expected displacement operand disp(reg), got {text!r}")
    disp_text = match.group(1).strip() or "0"
    base = _reg(match.group(2))
    return _evaluate(disp_text, symbols), base
