//! Tokenizer for the OpenQASM 2.0 subset.
//!
//! One pass over the source bytes: ASCII (all of the grammar) takes a
//! byte-at-a-time fast path, and only non-ASCII characters are decoded, to
//! skip Unicode whitespace or report them. Columns still count characters,
//! not bytes. Tokens are `Copy` spans borrowing the source, so lexing a
//! statement allocates nothing beyond its slot in the caller's buffer.

// lint: no-panic
// lint: hot-path

use std::fmt;

use super::parser::{Diagnostic, DiagnosticKind};

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// An identifier or keyword (`qreg`, `h`, `measure`, …).
    Ident(&'a str),
    /// A numeric literal (integers and floats are not distinguished).
    Number(f64),
    /// A double-quoted string literal (only used by `include`), unquoted.
    Str(&'a str),
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// Arithmetic operator used inside parameter expressions (`+ - * /`).
    Op(char),
}

/// A token together with its 1-based source position (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub col: usize,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::Arrow => write!(f, "->"),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::Op(c) => write!(f, "{c}"),
        }
    }
}

/// Lexes OpenQASM 2.0 source into `tokens`, skipping whitespace and `//`
/// comments. Malformed input (unterminated strings, malformed numeric
/// literals, characters outside the grammar) is reported into `diagnostics`
/// rather than silently dropped; lexing always continues to the end of the
/// input so the parser can report everything it finds in one pass. At most
/// [`MAX_LEX_DIAGNOSTICS`] are recorded.
pub(crate) fn lex<'a>(
    source: &'a str,
    tokens: &mut Vec<Token<'a>>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let bytes = source.as_bytes();
    let (mut pos, mut line, mut col) = (0, 1, 1);
    let mut report = |kind, line, col| {
        if diagnostics.len() < MAX_LEX_DIAGNOSTICS {
            diagnostics.push(Diagnostic {
                kind,
                line,
                col,
                snippet: String::new(),
            });
        }
    };
    while let Some(&byte) = bytes.get(pos) {
        let (start, start_line, start_col) = (pos, line, col);
        let next = bytes.get(pos + 1).copied();
        // Every arm leaves `pos` past what it consumed; single-line ASCII
        // spans advance the column by their length below.
        let kind = match byte {
            b'\n' => {
                pos += 1;
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                pos += 1;
                col += 1;
                continue;
            }
            b'/' if next == Some(b'/') => {
                // Line comment: resume after its newline (or stop at EOF).
                match bytes[pos..].iter().position(|&b| b == b'\n') {
                    Some(len) => {
                        pos += len + 1;
                        line += 1;
                        col = 1;
                    }
                    None => pos = bytes.len(),
                }
                continue;
            }
            b'-' if next == Some(b'>') => {
                pos += 2;
                TokenKind::Arrow
            }
            b'=' if next == Some(b'=') => {
                pos += 2;
                TokenKind::EqEq
            }
            b'"' => {
                // Strings may span lines: count lines and characters
                // through their text.
                let body = pos + 1;
                let close = bytes[body..].iter().position(|&b| b == b'"');
                let end = close.map_or(bytes.len(), |len| body + len);
                for &b in &bytes[pos..end] {
                    if b == b'\n' {
                        line += 1;
                        col = 1;
                    } else if !is_continuation(b) {
                        col += 1;
                    }
                }
                pos = end;
                if close.is_some() {
                    pos += 1;
                    col += 1;
                } else {
                    report(DiagnosticKind::UnterminatedString, start_line, start_col);
                }
                tokens.push(Token {
                    kind: TokenKind::Str(&source[body..end]),
                    line: start_line,
                    col: start_col,
                });
                continue;
            }
            b';' | b',' | b'[' | b']' | b'(' | b')' | b'{' | b'}' | b'+' | b'-' | b'*' | b'/' => {
                pos += 1;
                match byte {
                    b';' => TokenKind::Semicolon,
                    b',' => TokenKind::Comma,
                    b'[' => TokenKind::LBracket,
                    b']' => TokenKind::RBracket,
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    op => TokenKind::Op(char::from(op)),
                }
            }
            b'0'..=b'9' | b'.' => {
                pos = number_end(bytes, pos);
                let text = &source[start..pos];
                match number_value(text) {
                    Some(value) => TokenKind::Number(value),
                    None => {
                        let text = text.to_string();
                        report(DiagnosticKind::MalformedNumber { text }, line, col);
                        TokenKind::Number(0.0)
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                pos += bytes[pos..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.'))
                    .unwrap_or(bytes.len() - pos);
                TokenKind::Ident(&source[start..pos])
            }
            _ => {
                // Whitespace or a character outside the grammar; only here is
                // a (possibly multi-byte) character decoded.
                let ch = source[pos..]
                    .chars()
                    .next()
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                pos += ch.len_utf8();
                col += 1;
                if !ch.is_whitespace() {
                    report(DiagnosticKind::InvalidCharacter { ch }, line, start_col);
                }
                continue;
            }
        };
        col += pos - start;
        tokens.push(Token {
            kind,
            line,
            col: start_col,
        });
    }
}

/// Whether `byte` continues a multi-byte UTF-8 character (starts none).
fn is_continuation(byte: u8) -> bool {
    byte & 0xC0 == 0x80
}

/// End of the numeric literal starting at `start`: digits, `.`, `e`/`E`,
/// and a sign directly after an exponent marker.
fn number_end(bytes: &[u8], start: usize) -> usize {
    let mut prev = 0;
    for (len, &b) in bytes[start..].iter().enumerate() {
        let sign_after_exponent = matches!(b, b'-' | b'+') && matches!(prev, b'e' | b'E');
        if !(b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E') || sign_after_exponent) {
            return start + len;
        }
        prev = b;
    }
    bytes.len()
}

/// The finite value of a numeric literal, if it has one. Integers of at
/// most 15 digits are below 2^53, so accumulating them exactly gives the
/// same `f64` as the general parse; `parse::<f64>` maps out-of-range
/// literals like `1e309` to infinity rather than failing, so those are
/// malformed too and no non-finite value enters the token stream.
fn number_value(text: &str) -> Option<f64> {
    if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
        let int = text
            .bytes()
            .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'));
        return Some(int as f64);
    }
    text.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Cap on the number of lexer diagnostics recorded for one input, so a
/// megabyte of garbage cannot amplify into a megabyte of error report.
pub(crate) const MAX_LEX_DIAGNOSTICS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(source: &str) -> (Vec<Token<'_>>, Vec<Diagnostic>) {
        let (mut tokens, mut diagnostics) = (Vec::new(), Vec::new());
        super::lex(source, &mut tokens, &mut diagnostics);
        (tokens, diagnostics)
    }

    #[test]
    fn lexes_basic_statement() {
        let (tokens, diags) = lex("cx q[0], q[1];");
        assert!(diags.is_empty());
        let kinds: Vec<TokenKind> = tokens.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], TokenKind::Ident("cx"));
        assert_eq!(kinds[2], TokenKind::LBracket);
        assert!(matches!(kinds[3], TokenKind::Number(n) if n == 0.0));
        assert_eq!(kinds.last(), Some(&TokenKind::Semicolon));
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let (tokens, diags) = lex("// header\nh q[0];");
        assert!(diags.is_empty());
        assert_eq!(tokens[0].kind, TokenKind::Ident("h"));
        assert_eq!(tokens[0].line, 2);
        assert_eq!(tokens[0].col, 1);
    }

    #[test]
    fn tracks_columns_within_a_line() {
        let (tokens, _) = lex("cx q[0], q[1];");
        assert_eq!(tokens[0].col, 1); // cx
        assert_eq!(tokens[1].col, 4); // q
        assert_eq!(tokens[2].col, 5); // [
    }

    #[test]
    fn lexes_arrow_and_string() {
        let (tokens, diags) = lex("include \"qelib1.inc\"; measure q -> c;");
        assert!(diags.is_empty());
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str("qelib1.inc")));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Arrow));
    }

    #[test]
    fn lexes_parameter_expressions() {
        let (tokens, diags) = lex("rz(pi/2) q[1];");
        assert!(diags.is_empty());
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Op('/')));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Ident("pi")));
    }

    #[test]
    fn lexes_floats_with_exponents() {
        let (tokens, diags) = lex("rx(1.5e-2) q[0];");
        assert!(diags.is_empty());
        assert!(tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Number(n) if (n - 1.5e-2).abs() < 1e-12)));
    }

    #[test]
    fn unterminated_string_is_reported() {
        let (_, diags) = lex("include \"qelib1.inc;\n");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnterminatedString));
    }

    #[test]
    fn invalid_characters_are_reported_with_position() {
        let (_, diags) = lex("h q[0];\n@!\n");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::InvalidCharacter { ch: '@' } && d.line == 2));
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::InvalidCharacter { ch: '!' }
                && d.line == 2
                && d.col == 2));
    }

    #[test]
    fn malformed_number_is_reported() {
        let (tokens, diags) = lex("rz(1.2.3) q[0];");
        assert!(diags.iter().any(
            |d| matches!(&d.kind, DiagnosticKind::MalformedNumber { text } if text == "1.2.3")
        ));
        // A placeholder token is still produced so the parser can continue.
        assert!(tokens
            .iter()
            .any(|t| matches!(t.kind, TokenKind::Number(n) if n == 0.0)));
    }

    #[test]
    fn diagnostic_flood_is_capped() {
        let garbage: String = "@".repeat(10 * MAX_LEX_DIAGNOSTICS);
        let (_, diags) = lex(&garbage);
        assert_eq!(diags.len(), MAX_LEX_DIAGNOSTICS);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes but one column: `@` sits at character column 10.
        let (_, diags) = lex("h q[0]; é@");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::InvalidCharacter { ch: 'é' });
        assert_eq!((diags[0].line, diags[0].col), (1, 9));
        assert_eq!(diags[1].kind, DiagnosticKind::InvalidCharacter { ch: '@' });
        assert_eq!((diags[1].line, diags[1].col), (1, 10));
        // Likewise for tokens after multi-byte text inside a string.
        let (tokens, _) = lex("include \"ü€\"; h");
        assert_eq!(
            tokens.last().map(|t| (t.kind, t.col)),
            Some((TokenKind::Ident("h"), 15))
        );
    }

    #[test]
    fn unicode_whitespace_is_skipped() {
        // Vertical tab (which `u8::is_ascii_whitespace` rejects), form feed,
        // no-break space, NEL and the ideographic space all separate tokens.
        let (tokens, diags) = lex("h\u{000B}q\u{000C}[\u{00A0}0\u{0085}]\u{3000};");
        assert!(diags.is_empty(), "{diags:?}");
        let kinds: Vec<TokenKind> = tokens.iter().map(|t| t.kind).collect();
        assert_eq!(kinds.len(), 6);
        assert_eq!(kinds[1], TokenKind::Ident("q"));
        assert_eq!(tokens[5].col, 11);
    }

    #[test]
    fn non_ascii_invalid_character_is_reported_as_that_char() {
        for ch in ['λ', '€', '🦀', '\u{FFFD}'] {
            let source = format!("h q[0];\n  {ch}");
            let (tokens, diags) = lex(&source);
            assert_eq!(tokens.len(), 6);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].kind, DiagnosticKind::InvalidCharacter { ch });
            assert_eq!((diags[0].line, diags[0].col), (2, 3));
        }
    }

    #[test]
    fn strings_spanning_lines_keep_positions() {
        let (tokens, diags) = lex("include \"a\nbc\" ;\nh");
        assert!(diags.is_empty());
        assert_eq!(tokens[1].kind, TokenKind::Str("a\nbc"));
        assert_eq!((tokens[1].line, tokens[1].col), (1, 9));
        assert_eq!((tokens[2].line, tokens[2].col), (2, 5));
        assert_eq!((tokens[3].line, tokens[3].col), (3, 1));
    }

    #[test]
    fn integer_fast_path_matches_float_parsing() {
        for text in [
            "0",
            "7",
            "007",
            "123456789012345",
            "1234567890123456",
            "99999999999999999999",
        ] {
            let (tokens, diags) = lex(text);
            assert!(diags.is_empty());
            let expected: f64 = text.parse().unwrap();
            assert!(
                matches!(tokens[0].kind, TokenKind::Number(n) if n.to_bits() == expected.to_bits())
            );
        }
    }
}
