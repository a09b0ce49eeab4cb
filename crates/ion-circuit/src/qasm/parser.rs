//! Recursive-descent parser for the OpenQASM 2.0 subset.
//!
//! The parser is hardened against untrusted input: it recovers at statement
//! boundaries and reports *every* problem it finds (capped by
//! [`ParseLimits::max_diagnostics`]) instead of stopping at the first, every
//! diagnostic carries a line/column span plus a source excerpt, and explicit
//! resource limits bound register width, gate count and expression nesting so
//! adversarial input (`qreg q[999999999];`, kilobyte-deep parentheses) is
//! rejected with an error instead of exhausting memory or the stack.

// lint: no-panic

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use crate::{Circuit, Gate, QubitId};

use super::lexer::{lex, Token, TokenKind};

/// Resource limits applied while parsing untrusted OpenQASM source.
///
/// The defaults are far above anything in QASMBench while keeping worst-case
/// memory and stack use small; tighten them for stricter ingestion tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum total qubits across all `qreg` declarations.
    pub max_qubits: usize,
    /// Maximum number of gates the parsed circuit may contain (Toffoli
    /// decomposition and whole-register broadcasts count post-expansion).
    pub max_gates: usize,
    /// Maximum nesting depth of parameter expressions (parentheses and unary
    /// minus chains).
    pub max_expr_depth: usize,
    /// Maximum number of diagnostics collected before parsing aborts.
    pub max_diagnostics: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_qubits: 4096,
            max_gates: 4_000_000,
            max_expr_depth: 32,
            max_diagnostics: 64,
        }
    }
}

/// What a single [`Diagnostic`] is about.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosticKind {
    /// The source ended unexpectedly.
    UnexpectedEof,
    /// An unexpected token was found.
    Unexpected {
        /// What was found (rendered).
        found: String,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A gate refers to an undeclared register.
    UnknownRegister {
        /// Register name.
        name: String,
    },
    /// A quantum register name was declared twice.
    DuplicateRegister {
        /// Register name.
        name: String,
    },
    /// A gate name is not supported by this subset parser.
    UnsupportedGate {
        /// Gate name.
        name: String,
    },
    /// A qubit index exceeds its register size.
    IndexOutOfRange {
        /// Register name.
        name: String,
        /// Offending index.
        index: usize,
        /// Declared register size.
        size: usize,
    },
    /// No quantum register was declared before the first gate.
    NoQuantumRegister,
    /// A `qreg` declaration with zero qubits.
    EmptyRegister {
        /// Register name.
        name: String,
    },
    /// A `qreg` declaration (or the running total) exceeds
    /// [`ParseLimits::max_qubits`].
    RegisterTooWide {
        /// Total qubits the declarations ask for (saturating).
        requested: usize,
        /// The configured limit.
        max_qubits: usize,
    },
    /// The circuit exceeds [`ParseLimits::max_gates`].
    TooManyGates {
        /// The configured limit.
        max_gates: usize,
    },
    /// A parameter expression nests deeper than
    /// [`ParseLimits::max_expr_depth`].
    ExpressionTooDeep {
        /// The configured limit.
        max_depth: usize,
    },
    /// A register size or qubit index literal is not a non-negative integer.
    NonIntegerLiteral {
        /// The literal's value.
        value: f64,
    },
    /// A parameter expression evaluated to an infinity or NaN (for example
    /// `rz(1/0)`); downstream timing and fidelity models require finite
    /// angles.
    NonFiniteParameter {
        /// The evaluated value.
        value: f64,
    },
    /// A string literal was not closed before end of input.
    UnterminatedString,
    /// A character outside the OpenQASM grammar.
    InvalidCharacter {
        /// The offending character.
        ch: char,
    },
    /// A numeric literal that does not parse as a finite number.
    MalformedNumber {
        /// The literal's source text.
        text: String,
    },
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::UnexpectedEof => write!(f, "unexpected end of QASM source"),
            DiagnosticKind::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found '{found}'")
            }
            DiagnosticKind::UnknownRegister { name } => write!(f, "unknown register '{name}'"),
            DiagnosticKind::DuplicateRegister { name } => {
                write!(f, "register '{name}' declared twice")
            }
            DiagnosticKind::UnsupportedGate { name } => write!(f, "unsupported gate '{name}'"),
            DiagnosticKind::IndexOutOfRange { name, index, size } => write!(
                f,
                "index {index} out of range for register '{name}' of size {size}"
            ),
            DiagnosticKind::NoQuantumRegister => write!(f, "no quantum register declared"),
            DiagnosticKind::EmptyRegister { name } => {
                write!(f, "register '{name}' must have at least one qubit")
            }
            DiagnosticKind::RegisterTooWide {
                requested,
                max_qubits,
            } => write!(
                f,
                "register declarations request {requested} qubits, exceeding the limit of {max_qubits}"
            ),
            DiagnosticKind::TooManyGates { max_gates } => {
                write!(f, "circuit exceeds the gate limit of {max_gates}")
            }
            DiagnosticKind::ExpressionTooDeep { max_depth } => {
                write!(f, "parameter expression nests deeper than {max_depth} levels")
            }
            DiagnosticKind::NonIntegerLiteral { value } => {
                write!(f, "'{value}' is not a non-negative integer")
            }
            DiagnosticKind::NonFiniteParameter { value } => {
                write!(f, "parameter expression evaluates to non-finite '{value}'")
            }
            DiagnosticKind::UnterminatedString => write!(f, "unterminated string literal"),
            DiagnosticKind::InvalidCharacter { ch } => {
                write!(f, "invalid character '{}'", ch.escape_default())
            }
            DiagnosticKind::MalformedNumber { text } => {
                write!(f, "malformed numeric literal '{text}'")
            }
        }
    }
}

/// One problem found in the source, with its position and source excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: DiagnosticKind,
    /// 1-based source line (0 when the position is the end of input).
    pub line: usize,
    /// 1-based source column (0 when the position is the end of input).
    pub col: usize,
    /// The trimmed source line the diagnostic points at (may be empty).
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "error: {}", self.kind)?;
        } else {
            write!(
                f,
                "error at line {}, col {}: {}",
                self.line, self.col, self.kind
            )?;
        }
        if !self.snippet.is_empty() {
            write!(f, "\n  {} | {}", self.line, self.snippet)?;
        }
        Ok(())
    }
}

/// Errors produced while parsing OpenQASM source: one or more diagnostics,
/// each with a line/column span and a source-line excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    diagnostics: Vec<Diagnostic>,
}

impl QasmError {
    /// Every problem found, in source order. Never empty.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The first problem found.
    pub fn first(&self) -> &Diagnostic {
        &self.diagnostics[0]
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.len() > 1 {
            writeln!(f, "{} errors in QASM source:", self.diagnostics.len())?;
        }
        for (i, diag) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{diag}")?;
        }
        Ok(())
    }
}

impl Error for QasmError {}

/// Parses OpenQASM 2.0 source into a [`Circuit`] under [default
/// limits](ParseLimits::default).
///
/// Multiple quantum registers are flattened into one contiguous register in
/// declaration order. Classical registers, `if` conditions and custom `gate`
/// definitions are skipped (custom gate *bodies* are ignored; *calls* to
/// unknown gates are an error so silent mis-parses cannot occur).
///
/// # Errors
///
/// Returns a [`QasmError`] collecting every problem found (the parser
/// recovers at statement boundaries rather than stopping at the first
/// error). This function never panics, for any input.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    parse_with_limits(source, &ParseLimits::default())
}

/// [`parse`] with caller-chosen [`ParseLimits`].
pub fn parse_with_limits(source: &str, limits: &ParseLimits) -> Result<Circuit, QasmError> {
    // Every lexer diagnostic is collected before the first statement parses:
    // they count towards `max_diagnostics`, which aborts parsing when hit.
    let mut tokens = Vec::new();
    let mut diagnostics = Vec::new();
    lex(source, &mut tokens, &mut diagnostics);
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
        limits,
        diagnostics,
        qregs: Vec::new(),
        total_qubits: 0,
        gates: Vec::new(),
        operands: Vec::new(),
        params: Vec::new(),
    };
    match parser.parse() {
        Ok(()) => Ok(Circuit::from_parts(
            "qasm",
            parser.total_qubits,
            parser.gates,
        )),
        Err(()) => {
            let mut diagnostics = parser.diagnostics;
            diagnostics.sort_by_key(|d| (d.line, d.col));
            attach_snippets(&mut diagnostics, source);
            Err(QasmError { diagnostics })
        }
    }
}

/// Fills each diagnostic's `snippet` with its trimmed source line.
fn attach_snippets(diagnostics: &mut [Diagnostic], source: &str) {
    let lines: Vec<&str> = source.lines().collect();
    for diag in diagnostics {
        if diag.line >= 1 && diag.line <= lines.len() {
            diag.snippet = lines[diag.line - 1].trim_end().to_string();
        }
    }
}

/// One gate operand: a single qubit (`q[i]`) or a whole register (`q`),
/// which broadcasts the gate over the register's qubits.
#[derive(Clone, Copy)]
enum Operand {
    One(QubitId),
    Reg { offset: usize, size: usize },
}

impl Operand {
    fn len(self) -> usize {
        match self {
            Operand::One(_) => 1,
            Operand::Reg { size, .. } => size,
        }
    }

    /// The qubit this operand contributes to broadcast step `i` (a
    /// single-qubit operand repeats; registers are never empty).
    fn pick(self, i: usize) -> QubitId {
        match self {
            Operand::One(q) => q,
            Operand::Reg { offset, size } => QubitId::new(offset + i.min(size.saturating_sub(1))),
        }
    }

    /// Every qubit the operand names, in register order.
    fn qubits(self) -> impl Iterator<Item = QubitId> {
        (0..self.len()).map(move |i| self.pick(i))
    }
}

struct Parser<'a, 's> {
    tokens: &'s [Token<'a>],
    pos: usize,
    limits: &'s ParseLimits,
    diagnostics: Vec<Diagnostic>,
    /// `(name, offset, size)` of each `qreg`, sorted by name.
    qregs: Vec<(&'a str, usize, usize)>,
    total_qubits: usize,
    gates: Vec<Gate>,
    /// The current statement's operands and parameters (reused buffers).
    operands: Vec<Operand>,
    params: Vec<f64>,
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn peek_is(&self, kind: TokenKind<'_>) -> bool {
        self.peek().is_some_and(|t| t.kind == kind)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        self.pos += usize::from(t.is_some());
        t
    }

    fn diag_at(&self, kind: DiagnosticKind, line: usize, col: usize) -> Diagnostic {
        Diagnostic {
            kind,
            line,
            col,
            snippet: String::new(),
        }
    }

    /// End-of-input diagnostic, positioned at the last token if any, else
    /// unknown (0, 0).
    fn eof_diag(&self) -> Diagnostic {
        let (line, col) = self.tokens.last().map_or((0, 0), |t| (t.line, t.col));
        self.diag_at(DiagnosticKind::UnexpectedEof, line, col)
    }

    fn unexpected(&self, token: Token<'_>, expected: &'static str) -> Diagnostic {
        self.diag_at(
            DiagnosticKind::Unexpected {
                found: token.kind.to_string(),
                expected,
            },
            token.line,
            token.col,
        )
    }

    /// Consumes the next token, which must be of `kind`.
    fn expect_kind(
        &mut self,
        kind: TokenKind<'_>,
        expected: &'static str,
    ) -> Result<(), Diagnostic> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(()),
            Some(t) => Err(self.unexpected(t, expected)),
            None => Err(self.eof_diag()),
        }
    }

    fn report(&mut self, diag: Diagnostic) {
        if self.diagnostics.len() < self.limits.max_diagnostics {
            self.diagnostics.push(diag);
        }
    }

    /// Whether the diagnostic budget is exhausted (parsing aborts then: an
    /// input bad enough to hit the cap yields no useful extra information,
    /// and aborting bounds work on adversarial floods).
    fn capped(&self) -> bool {
        self.diagnostics.len() >= self.limits.max_diagnostics
    }

    fn skip_to_semicolon(&mut self) {
        while let Some(t) = self.next() {
            if t.kind == TokenKind::Semicolon {
                break;
            }
        }
    }

    /// Error recovery: resynchronise at the next statement boundary. If the
    /// token just consumed already was a semicolon (the error was *at* the
    /// boundary), nothing more is skipped.
    fn recover_to_statement(&mut self) {
        let at_boundary = self.pos > 0
            && matches!(
                self.tokens.get(self.pos - 1),
                Some(t) if t.kind == TokenKind::Semicolon
            );
        if !at_boundary {
            self.skip_to_semicolon();
        }
    }

    fn skip_block_or_statement(&mut self) {
        // Skip either `{ ... }` (gate definition body) or a `;`-terminated statement.
        let mut depth = 0usize;
        while let Some(t) = self.next() {
            match t.kind {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semicolon if depth == 0 => return,
                _ => {}
            }
        }
    }

    fn parse(&mut self) -> Result<(), ()> {
        while let Some(token) = self.peek() {
            if self.capped() {
                return Err(());
            }
            if let Err(diag) = self.parse_statement(token) {
                self.report(diag);
                self.recover_to_statement();
            }
            if self.gates.len() > self.limits.max_gates {
                let max_gates = self.limits.max_gates;
                let diag = self.diag_at(
                    DiagnosticKind::TooManyGates { max_gates },
                    token.line,
                    token.col,
                );
                self.report(diag);
                return Err(());
            }
        }
        if self.total_qubits == 0 {
            // Only worth reporting when no earlier diagnostic (e.g. a
            // rejected `qreg`) already explains why no register exists.
            if self.diagnostics.is_empty() {
                let diag = self.diag_at(DiagnosticKind::NoQuantumRegister, 0, 0);
                self.report(diag);
            }
            return Err(());
        }
        if self.diagnostics.is_empty() {
            Ok(())
        } else {
            Err(())
        }
    }

    fn parse_statement(&mut self, token: Token<'a>) -> Result<(), Diagnostic> {
        let word = match token.kind {
            TokenKind::Ident(word) => word,
            TokenKind::Semicolon => {
                self.next();
                return Ok(());
            }
            _ => {
                self.next();
                return Err(self.unexpected(token, "statement"));
            }
        };
        match word {
            // `if (c==0) gate ...;` drops the condition and keeps nothing
            // (conditioned gates are rare in the benchmarks and do not change
            // shuttle scheduling structure).
            "OPENQASM" | "include" | "creg" | "if" => {
                self.skip_to_semicolon();
                Ok(())
            }
            "gate" | "opaque" => {
                self.skip_block_or_statement();
                Ok(())
            }
            "qreg" => {
                self.next();
                self.parse_qreg(token.line)
            }
            "measure" => {
                // measure q[i] -> c[i]; | measure q -> c;
                self.next();
                let target = self.parse_argument()?;
                // Skip everything up to the semicolon (the classical target).
                self.skip_to_semicolon();
                self.gates.extend(target.qubits().map(Gate::Measure));
                Ok(())
            }
            "barrier" => {
                self.next();
                self.parse_operands()?;
                let qubits = self.operands.iter().flat_map(|op| op.qubits());
                self.gates.push(Gate::Barrier(qubits.collect()));
                Ok(())
            }
            _ => {
                self.next();
                self.parse_gate(word, token.line, token.col)
            }
        }
    }

    /// Consumes a number token and checks it denotes a non-negative integer
    /// (register sizes and qubit indices). Values beyond `usize` saturate;
    /// callers apply their own range checks and limit diagnostics.
    fn expect_index(&mut self) -> Result<usize, Diagnostic> {
        let token = self.next().ok_or_else(|| self.eof_diag())?;
        let TokenKind::Number(value) = token.kind else {
            return Err(self.unexpected(token, "non-negative integer"));
        };
        if value.is_finite() && value.fract() == 0.0 && value >= 0.0 {
            // `as` saturates at usize::MAX for values beyond the type.
            Ok(value as usize)
        } else {
            Err(self.diag_at(
                DiagnosticKind::NonIntegerLiteral { value },
                token.line,
                token.col,
            ))
        }
    }

    fn parse_qreg(&mut self, line: usize) -> Result<(), Diagnostic> {
        let (name, name_col) = match self.next() {
            Some(Token {
                kind: TokenKind::Ident(name),
                col,
                ..
            }) => (name, col),
            Some(t) => return Err(self.unexpected(t, "identifier")),
            None => return Err(self.eof_diag()),
        };
        self.expect_kind(TokenKind::LBracket, "[")?;
        let size = self.expect_index()?;
        self.expect_kind(TokenKind::RBracket, "]")?;
        self.expect_kind(TokenKind::Semicolon, ";")?;
        if size == 0 {
            let name = name.to_string();
            return Err(self.diag_at(DiagnosticKind::EmptyRegister { name }, line, name_col));
        }
        let requested = self.total_qubits.saturating_add(size);
        if requested > self.limits.max_qubits {
            let max_qubits = self.limits.max_qubits;
            let kind = DiagnosticKind::RegisterTooWide {
                requested,
                max_qubits,
            };
            return Err(self.diag_at(kind, line, name_col));
        }
        match self.qregs.binary_search_by(|r| r.0.cmp(name)) {
            Ok(_) => {
                let name = name.to_string();
                Err(self.diag_at(DiagnosticKind::DuplicateRegister { name }, line, name_col))
            }
            Err(slot) => {
                self.qregs.insert(slot, (name, self.total_qubits, size));
                self.total_qubits += size;
                Ok(())
            }
        }
    }

    /// Parses `arg (, arg)* ;` into the reused `operands` buffer.
    fn parse_operands(&mut self) -> Result<(), Diagnostic> {
        self.operands.clear();
        loop {
            let operand = self.parse_argument()?;
            self.operands.push(operand);
            match self.next() {
                Some(t) if t.kind == TokenKind::Comma => continue,
                Some(t) if t.kind == TokenKind::Semicolon => return Ok(()),
                Some(t) => return Err(self.unexpected(t, ", or ;")),
                None => return Err(self.eof_diag()),
            }
        }
    }

    fn parse_gate(&mut self, name: &str, line: usize, col: usize) -> Result<(), Diagnostic> {
        // Optional parameter list.
        self.params.clear();
        if self.peek_is(TokenKind::LParen) {
            self.next();
            self.parse_params()?;
        }
        // Finite literals can still combine into infinities or NaN (`1/0`,
        // `1e308+1e308`); reject them here so every parsed circuit carries
        // only finite angles and survives an exact `to_qasm` round trip.
        if let Some(&value) = self.params.iter().find(|p| !p.is_finite()) {
            return Err(self.diag_at(DiagnosticKind::NonFiniteParameter { value }, line, col));
        }
        // Operands: comma-separated arguments, each `reg` or `reg[i]`.
        self.parse_operands()?;
        // Broadcast over whole-register operands (all operands must then have
        // the same length; single-qubit operands are repeated).
        let broadcast = self.operands.iter().map(|op| op.len()).max().unwrap_or(1);
        for i in 0..broadcast {
            if name == "ccx" {
                // Decompose Toffolis here so downstream schedulers only ever
                // see one- and two-qubit gates.
                let (a, b, c) = (
                    self.operand(0, i, line, col)?,
                    self.operand(1, i, line, col)?,
                    self.operand(2, i, line, col)?,
                );
                self.gates.extend(toffoli_decomposition(a, b, c));
            } else {
                let gate = self.build_gate(name, i, line, col)?;
                self.gates.push(gate);
            }
        }
        Ok(())
    }

    /// Operand `idx`'s qubit at broadcast step `i`.
    fn operand(
        &self,
        idx: usize,
        i: usize,
        line: usize,
        col: usize,
    ) -> Result<QubitId, Diagnostic> {
        match self.operands.get(idx) {
            Some(op) => Ok(op.pick(i)),
            None => {
                let found = "end of operands".to_string();
                let kind = DiagnosticKind::Unexpected {
                    found,
                    expected: "qubit operand",
                };
                Err(self.diag_at(kind, line, col))
            }
        }
    }

    fn build_gate(
        &self,
        name: &str,
        i: usize,
        line: usize,
        col: usize,
    ) -> Result<Gate, Diagnostic> {
        let op = |idx: usize| self.operand(idx, i, line, col);
        let p = |idx: usize| self.params.get(idx).copied().unwrap_or(0.0);
        let gate = match name {
            "h" => Gate::H(op(0)?),
            "x" => Gate::X(op(0)?),
            "y" => Gate::Y(op(0)?),
            "z" => Gate::Z(op(0)?),
            "s" => Gate::S(op(0)?),
            "sdg" => Gate::Sdg(op(0)?),
            "t" => Gate::T(op(0)?),
            "tdg" => Gate::Tdg(op(0)?),
            "id" => Gate::Rz {
                qubit: op(0)?,
                theta: 0.0,
            },
            "rx" => Gate::Rx {
                qubit: op(0)?,
                theta: p(0),
            },
            "ry" => Gate::Ry {
                qubit: op(0)?,
                theta: p(0),
            },
            "rz" | "u1" | "p" => Gate::Rz {
                qubit: op(0)?,
                theta: p(0),
            },
            "u2" => Gate::U {
                qubit: op(0)?,
                theta: PI / 2.0,
                phi: p(0),
                lambda: p(1),
            },
            "u3" | "u" => Gate::U {
                qubit: op(0)?,
                theta: p(0),
                phi: p(1),
                lambda: p(2),
            },
            "cx" | "CX" => Gate::Cx(op(0)?, op(1)?),
            "cz" => Gate::Cz(op(0)?, op(1)?),
            "cp" | "cu1" => Gate::Cp {
                control: op(0)?,
                target: op(1)?,
                theta: p(0),
            },
            "rzz" => Gate::Rzz {
                a: op(0)?,
                b: op(1)?,
                theta: p(0),
            },
            "swap" => Gate::Swap(op(0)?, op(1)?),
            "ms" | "rxx" => Gate::Ms(op(0)?, op(1)?),
            other => {
                return Err(self.diag_at(
                    DiagnosticKind::UnsupportedGate {
                        name: other.to_string(),
                    },
                    line,
                    col,
                ));
            }
        };
        Ok(gate)
    }

    /// Parses a comma-separated list of constant expressions terminated by
    /// `)` into the reused `params` buffer (the opening `(` has already been
    /// consumed).
    fn parse_params(&mut self) -> Result<(), Diagnostic> {
        if self.peek_is(TokenKind::RParen) {
            self.next();
            return Ok(());
        }
        loop {
            let value = self.parse_expr(0)?;
            self.params.push(value);
            match self.next() {
                Some(t) if t.kind == TokenKind::RParen => return Ok(()),
                Some(t) if t.kind == TokenKind::Comma => continue,
                Some(t) => return Err(self.unexpected(t, ", or )")),
                None => return Err(self.eof_diag()),
            }
        }
    }

    /// `expr := term (('+'|'-') term)*` with left-to-right association.
    fn parse_expr(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let mut value = self.parse_term(depth)?;
        while let Some(op @ ('+' | '-')) = self.peek_op() {
            self.next();
            let rhs = self.parse_term(depth)?;
            value = if op == '+' { value + rhs } else { value - rhs };
        }
        Ok(value)
    }

    /// `term := unary (('*'|'/') unary)*` with left-to-right association.
    fn parse_term(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let mut value = self.parse_unary(depth)?;
        while let Some(op @ ('*' | '/')) = self.peek_op() {
            self.next();
            let rhs = self.parse_unary(depth)?;
            value = if op == '*' { value * rhs } else { value / rhs };
        }
        Ok(value)
    }

    fn peek_op(&self) -> Option<char> {
        match self.peek()?.kind {
            TokenKind::Op(op) => Some(op),
            _ => None,
        }
    }

    /// `unary := '-' unary | atom`, `atom := number | 'pi' | '(' expr ')'`.
    /// `depth` counts recursion (unary minus chains and parentheses) and is
    /// bounded by [`ParseLimits::max_expr_depth`] so adversarial nesting
    /// cannot overflow the stack.
    fn parse_unary(&mut self, depth: usize) -> Result<f64, Diagnostic> {
        let token = self.next().ok_or_else(|| self.eof_diag())?;
        if depth >= self.limits.max_expr_depth {
            let max_depth = self.limits.max_expr_depth;
            let kind = DiagnosticKind::ExpressionTooDeep { max_depth };
            return Err(self.diag_at(kind, token.line, token.col));
        }
        match token.kind {
            TokenKind::Op('-') => Ok(-self.parse_unary(depth + 1)?),
            TokenKind::Number(n) => Ok(n),
            TokenKind::Ident("pi") => Ok(PI),
            TokenKind::LParen => {
                let value = self.parse_expr(depth + 1)?;
                self.expect_kind(TokenKind::RParen, ")")?;
                Ok(value)
            }
            _ => Err(self.unexpected(token, "parameter expression")),
        }
    }

    /// Parses `reg` or `reg[i]`, resolving the register by binary search.
    fn parse_argument(&mut self) -> Result<Operand, Diagnostic> {
        let (name, line, col) = match self.next() {
            Some(Token {
                kind: TokenKind::Ident(name),
                line,
                col,
            }) => (name, line, col),
            Some(t) => return Err(self.unexpected(t, "register name")),
            None => return Err(self.eof_diag()),
        };
        let Ok(slot) = self.qregs.binary_search_by(|r| r.0.cmp(name)) else {
            let name = name.to_string();
            return Err(self.diag_at(DiagnosticKind::UnknownRegister { name }, line, col));
        };
        let (_, offset, size) = self.qregs[slot];
        if !self.peek_is(TokenKind::LBracket) {
            return Ok(Operand::Reg { offset, size });
        }
        self.next();
        let index = self.expect_index()?;
        self.expect_kind(TokenKind::RBracket, "]")?;
        if index >= size {
            let name = name.to_string();
            let kind = DiagnosticKind::IndexOutOfRange { name, index, size };
            return Err(self.diag_at(kind, line, col));
        }
        Ok(Operand::One(QubitId::new(offset + index)))
    }
}

/// Standard six-CNOT Toffoli decomposition (same network as
/// [`Circuit::ccx`](crate::Circuit::ccx)).
fn toffoli_decomposition(a: QubitId, b: QubitId, c: QubitId) -> [Gate; 15] {
    [
        Gate::H(c),
        Gate::Cx(b, c),
        Gate::Tdg(c),
        Gate::Cx(a, c),
        Gate::T(c),
        Gate::Cx(b, c),
        Gate::Tdg(c),
        Gate::Cx(a, c),
        Gate::T(b),
        Gate::T(c),
        Gate::H(c),
        Gate::Cx(a, b),
        Gate::T(a),
        Gate::Tdg(b),
        Gate::Cx(a, b),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn first_kind(src: &str) -> DiagnosticKind {
        parse(src).unwrap_err().first().kind.clone()
    }

    #[test]
    fn parses_registers_and_gates() {
        let src =
            format!("{HEADER}qreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\ncx q[2],q[3];\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.num_qubits(), 4);
        assert_eq!(circuit.two_qubit_gate_count(), 2);
        assert!(circuit.validate().is_ok());
    }

    #[test]
    fn flattens_multiple_registers() {
        let src = format!("{HEADER}qreg a[2];\nqreg b[3];\ncx a[1], b[0];\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.num_qubits(), 5);
        let (x, y) = circuit.gates()[0].two_qubit_pair().unwrap();
        assert_eq!(x.index(), 1);
        assert_eq!(y.index(), 2);
    }

    #[test]
    fn parses_parameterised_gates() {
        let src = format!(
            "{HEADER}qreg q[2];\nrz(pi/2) q[0];\ncp(3*pi/4) q[0], q[1];\nu3(0.1,0.2,0.3) q[1];\n"
        );
        let circuit = parse(&src).unwrap();
        match &circuit.gates()[0] {
            Gate::Rz { theta, .. } => assert!((theta - PI / 2.0).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
        match &circuit.gates()[1] {
            Gate::Cp { theta, .. } => assert!((theta - 3.0 * PI / 4.0).abs() < 1e-12),
            g => panic!("expected cp, got {g:?}"),
        }
    }

    #[test]
    fn parses_parenthesised_expressions() {
        let src = format!("{HEADER}qreg q[1];\nrz(-(pi/2 + 1)*2) q[0];\nrz(-pi) q[0];\n");
        let circuit = parse(&src).unwrap();
        match &circuit.gates()[0] {
            Gate::Rz { theta, .. } => assert!((theta - -(PI / 2.0 + 1.0) * 2.0).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
        match &circuit.gates()[1] {
            Gate::Rz { theta, .. } => assert!((theta + PI).abs() < 1e-12),
            g => panic!("expected rz, got {g:?}"),
        }
    }

    #[test]
    fn measure_whole_register_expands() {
        let src = format!("{HEADER}qreg q[3];\ncreg c[3];\nmeasure q -> c;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.measurement_count(), 3);
    }

    #[test]
    fn broadcast_single_qubit_gate_over_register() {
        let src = format!("{HEADER}qreg q[4];\nh q;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.single_qubit_gate_count(), 4);
    }

    #[test]
    fn unknown_register_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::UnknownRegister { .. }
        ));
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nh q[5];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::IndexOutOfRange {
                index: 5,
                size: 2,
                ..
            }
        ));
        assert_eq!(err.first().line, 4);
    }

    #[test]
    fn unsupported_gate_is_an_error() {
        let src = format!("{HEADER}qreg q[3];\nccz q[0],q[1],q[2];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::UnsupportedGate { .. }
        ));
    }

    #[test]
    fn missing_register_is_an_error() {
        assert_eq!(first_kind(HEADER), DiagnosticKind::NoQuantumRegister);
    }

    #[test]
    fn gate_definitions_are_skipped() {
        let src = format!(
            "{HEADER}gate majority a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}\nqreg q[2];\ncx q[0],q[1];\n"
        );
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.two_qubit_gate_count(), 1);
    }

    #[test]
    fn barriers_are_preserved() {
        let src = format!("{HEADER}qreg q[3];\nbarrier q;\n");
        let circuit = parse(&src).unwrap();
        assert_eq!(circuit.len(), 1);
        assert!(circuit.gates()[0].is_barrier());
    }

    #[test]
    fn multiple_errors_are_all_reported() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\nfoo q[0];\nh q[9];\n");
        let err = parse(&src).unwrap_err();
        let kinds: Vec<&DiagnosticKind> = err.diagnostics().iter().map(|d| &d.kind).collect();
        assert_eq!(err.diagnostics().len(), 3, "{kinds:?}");
        assert!(matches!(kinds[0], DiagnosticKind::UnknownRegister { .. }));
        assert!(matches!(kinds[1], DiagnosticKind::UnsupportedGate { .. }));
        assert!(matches!(kinds[2], DiagnosticKind::IndexOutOfRange { .. }));
    }

    #[test]
    fn recovery_resumes_after_bad_statement() {
        // The bad statement must not eat the following good ones.
        let src = format!("{HEADER}qreg q[2];\nfoo q[0];\ncx q[0],q[1];\n");
        let err = parse(&src).unwrap_err();
        assert_eq!(err.diagnostics().len(), 1);
    }

    #[test]
    fn huge_register_is_rejected_without_allocation() {
        let src = format!("{HEADER}qreg q[999999999];\nh q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::RegisterTooWide {
                max_qubits: 4096,
                ..
            }
        ));
    }

    #[test]
    fn cumulative_register_width_is_bounded() {
        let mut src = String::from(HEADER);
        for i in 0..3 {
            src.push_str(&format!("qreg r{i}[2048];\n"));
        }
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::RegisterTooWide { .. })));
    }

    #[test]
    fn absurd_register_width_does_not_overflow() {
        let src = format!("{HEADER}qreg q[1e300];\n");
        let err = parse(&src).unwrap_err();
        assert!(matches!(
            err.first().kind,
            DiagnosticKind::RegisterTooWide { .. }
        ));
    }

    #[test]
    fn non_integer_register_size_is_an_error() {
        let src = format!("{HEADER}qreg q[2.5];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::NonIntegerLiteral { .. }
        ));
    }

    #[test]
    fn overflowing_literal_parameter_is_an_error() {
        let src = format!("{HEADER}qreg q[1];\nrz(1e309) q[0];\n");
        assert!(matches!(
            first_kind(&src),
            DiagnosticKind::MalformedNumber { .. }
        ));
    }

    #[test]
    fn non_finite_parameter_expression_is_an_error() {
        for expr in ["1/0", "0/0", "-1/0"] {
            let src = format!("{HEADER}qreg q[1];\nrz({expr}) q[0];\n");
            let err = parse(&src).unwrap_err();
            assert!(
                matches!(err.first().kind, DiagnosticKind::NonFiniteParameter { .. }),
                "{expr}: {err}"
            );
        }
    }

    #[test]
    fn zero_size_register_is_an_error() {
        let src = format!("{HEADER}qreg q[0];\nqreg r[1];\ncx q, r[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::EmptyRegister { .. })));
    }

    #[test]
    fn duplicate_register_is_an_error() {
        let src = format!("{HEADER}qreg q[2];\nqreg q[3];\nh q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::DuplicateRegister { .. })));
    }

    #[test]
    fn deep_expression_nesting_is_rejected() {
        let depth = 10_000;
        let expr = format!("{}pi{}", "(".repeat(depth), ")".repeat(depth));
        let src = format!("{HEADER}qreg q[1];\nrz({expr}) q[0];\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::ExpressionTooDeep { .. })));
    }

    #[test]
    fn deep_unary_minus_chain_is_rejected() {
        let src = format!("{HEADER}qreg q[1];\nrz({}1) q[0];\n", "-".repeat(10_000));
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::ExpressionTooDeep { .. })));
    }

    #[test]
    fn gate_count_limit_aborts_parsing() {
        let limits = ParseLimits {
            max_gates: 10,
            ..ParseLimits::default()
        };
        let mut src = format!("{HEADER}qreg q[2];\n");
        for _ in 0..50 {
            src.push_str("h q[0];\n");
        }
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::TooManyGates { max_gates: 10 })));
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = format!("{HEADER}qreg q[2];\nh r[0];\n");
        let err = parse(&src).unwrap_err();
        let diag = err.first();
        assert_eq!(diag.line, 4);
        assert_eq!(diag.col, 3);
        assert_eq!(diag.snippet, "h r[0];");
        let rendered = err.to_string();
        assert!(rendered.contains("line 4, col 3"), "{rendered}");
        assert!(rendered.contains("h r[0];"), "{rendered}");
    }

    #[test]
    fn truncated_source_reports_eof() {
        let src = format!("{HEADER}qreg q[2];\ncx q[0],");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnexpectedEof));
    }

    #[test]
    fn lexer_diagnostics_surface_through_parse() {
        let src = format!("{HEADER}qreg q[2];\nh q[0]; @\n");
        let err = parse(&src).unwrap_err();
        assert!(err
            .diagnostics()
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::InvalidCharacter { ch: '@' })));
    }

    #[test]
    fn diagnostic_count_is_capped() {
        let limits = ParseLimits {
            max_diagnostics: 8,
            ..ParseLimits::default()
        };
        let mut src = format!("{HEADER}qreg q[2];\n");
        for _ in 0..100 {
            src.push_str("h r[0];\n");
        }
        let err = parse_with_limits(&src, &limits).unwrap_err();
        assert_eq!(err.diagnostics().len(), 8);
    }

    #[test]
    fn parse_never_panics_on_weird_but_valid_recovery_paths() {
        for src in [
            "",
            ";",
            "qreg",
            "qreg q",
            "qreg q[",
            "qreg q[2",
            "qreg q[2]",
            "[ ] ( ) { }",
            "measure",
            "barrier",
            "OPENQASM 2.0; qreg q[1]; h q[0]",
            "qreg q[1]; rz() q[0];",
            "qreg q[1]; rz(pi +) q[0];",
        ] {
            let _ = parse(src);
        }
    }
}
