//! A hand-rolled Rust lexer sufficient for the surface scan.
//!
//! The scan in [`crate::surface`] matches on *token* sequences, so the
//! lexer's one job is to never confuse code with non-code: string
//! literals, char literals, lifetimes, raw strings/identifiers, and
//! (nested) comments must all be consumed without leaking
//! identifier-looking fragments. Everything else — numbers, punctuation —
//! only needs positions, not precise shapes.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`open`, `unsafe`, `HashMap`, …).
    Ident,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct,
    /// Any literal: string, raw string, char, byte, number.
    Literal,
    /// A lifetime such as `'scope` (consumed so `'a` is never a char).
    Lifetime,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for `Punct`, a single character).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// `true` if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexes `source` into its code tokens, in source order (comments and
/// whitespace dropped).
///
/// The lexer is lossy by design (numbers keep only approximate extents,
/// literals keep no text) but is exact about *boundaries*: nothing inside a
/// string, char, lifetime, or comment ever becomes an identifier token.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer { chars: source.chars().collect(), pos: 0, line: 1, col: 1, out: Vec::new() }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one character, maintaining the line/column counters.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32, col: u32) {
        self.out.push(Token { kind, text, line, col });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string_literal();
                self.push(TokKind::Literal, String::new(), line, col);
            } else if c == '\'' {
                self.quote(line, col);
            } else if (c == 'r' || c == 'b' || c == 'c') && self.maybe_prefixed_literal(line, col) {
                // Raw/byte/C string (or raw identifier) consumed by the probe.
            } else if is_ident_start(c) {
                let text = self.ident_text();
                self.push(TokKind::Ident, text, line, col);
            } else if c.is_ascii_digit() {
                self.number();
                self.push(TokKind::Literal, String::new(), line, col);
            } else {
                self.bump();
                self.push(TokKind::Punct, c.to_string(), line, col);
            }
        }
        self.out
    }

    fn ident_text(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        text
    }

    /// `//` comment (doc comments included): consume to end of line.
    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    /// `/* … */` comment with nesting, as Rust allows.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// `"…"` with backslash escapes; may span lines.
    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// `'` starts either a lifetime (`'scope`) or a char literal (`'x'`,
    /// `'\n'`). Disambiguation: an identifier after the quote **not**
    /// followed by a closing quote is a lifetime.
    fn quote(&mut self, line: u32, col: u32) {
        let next = self.peek(1);
        if next.is_some_and(is_ident_start) {
            // Find the end of the identifier run after the quote.
            let mut k = 2;
            while self.peek(k).is_some_and(is_ident_continue) {
                k += 1;
            }
            if self.peek(k) != Some('\'') {
                // Lifetime: consume quote + identifier.
                self.bump();
                let text = self.ident_text();
                self.push(TokKind::Lifetime, text, line, col);
                return;
            }
        }
        // Char literal.
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, String::new(), line, col);
    }

    /// Probes for `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `c"…"`, `cr#"…"#`
    /// and raw identifiers `r#name`. Returns `true` if it consumed a
    /// literal or raw identifier; `false` leaves the position untouched so
    /// the caller lexes a plain identifier.
    fn maybe_prefixed_literal(&mut self, line: u32, col: u32) -> bool {
        // Collect the candidate prefix letters (at most two: r, b, c, br, cr).
        let mut k = 0;
        let mut prefix = String::new();
        while k < 2 {
            match self.peek(k) {
                Some(c @ ('r' | 'b' | 'c')) => {
                    prefix.push(c);
                    k += 1;
                }
                _ => break,
            }
        }
        // A longer identifier starting with these letters (e.g. `bin`,
        // `records`) is not a literal prefix.
        if self.peek(k).is_some_and(is_ident_continue) && self.peek(k) != Some('#') {
            return false;
        }
        let raw = prefix.contains('r');
        let mut hashes = 0usize;
        while self.peek(k + hashes) == Some('#') {
            hashes += 1;
        }
        let quote_at = k + hashes;
        if self.peek(quote_at) == Some('"') {
            if hashes > 0 && !raw {
                return false; // `b#"` is not Rust; don't consume.
            }
            for _ in 0..=quote_at {
                self.bump(); // prefix, hashes, opening quote
            }
            if raw {
                self.raw_string_tail(hashes);
            } else {
                // Escaped string body; reuse the plain scanner's logic.
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            self.push(TokKind::Literal, String::new(), line, col);
            return true;
        }
        // Raw identifier `r#name`.
        if prefix == "r" && hashes == 1 && self.peek(quote_at).is_some_and(is_ident_start) {
            self.bump(); // r
            self.bump(); // #
            let text = self.ident_text();
            self.push(TokKind::Ident, text, line, col);
            return true;
        }
        // Byte char literal `b'x'`.
        if prefix == "b" && hashes == 0 && self.peek(k) == Some('\'') {
            self.bump(); // b
            self.bump(); // opening quote
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokKind::Literal, String::new(), line, col);
            return true;
        }
        false
    }

    /// Body of a raw string already past the opening quote: ends at `"`
    /// followed by `hashes` `#` characters.
    fn raw_string_tail(&mut self, hashes: usize) {
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0;
                while matched < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    break;
                }
            }
        }
    }

    /// Number literal: digits, underscores, radix prefixes, fraction,
    /// exponent, type suffix. Precision does not matter — only that `0..n`
    /// leaves the `..` alone and `1e5` is one token.
    fn number(&mut self) {
        self.bump(); // leading digit
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                // Covers hex digits, exponents pulled in below, suffixes.
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                self.bump();
            } else if (c == '+' || c == '-')
                && matches!(self.chars.get(self.pos.wrapping_sub(1)), Some('e' | 'E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Signed exponent `1e-3`. Only right after e/E.
                self.bump();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts_positioned() {
        let toks = lex("let x = a.b;\nfn f() {}");
        assert!(toks[0].is_ident("let"));
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!((f.line, f.col), (2, 1));
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "unsafe thread::spawn";"#), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = "esc \" unsafe";"#), vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        assert_eq!(idents(r##"let s = r"unsafe";"##), vec!["let", "s"]);
        assert_eq!(idents(r###"let s = r#"a " unsafe "#;"###), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = b"unsafe";"##), vec!["let", "s"]);
        assert_eq!(idents(r###"let s = br#"unsafe"#;"###), vec!["let", "s"]);
    }

    #[test]
    fn prefix_letters_still_lex_as_idents() {
        assert_eq!(
            idents("let bin = records(r, b, c);"),
            vec!["let", "bin", "records", "r", "b", "c"]
        );
    }

    #[test]
    fn raw_ident_lexes_without_prefix() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn char_and_lifetime_disambiguated() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(!toks.iter().any(|t| t.is_ident("x") && t.line == 0));
        // The char literals produce Literal tokens, not idents.
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Literal).count(), 2);
    }

    #[test]
    fn byte_char_literal_consumed() {
        assert_eq!(idents("let c = b'u'; let d = b'\\'';"), vec!["let", "c", "let", "d"]);
    }

    #[test]
    fn comments_hide_their_contents() {
        assert_eq!(idents("// unsafe thread::spawn\nlet x = 1;"), vec!["let", "x"]);
        assert_eq!(idents("/* unsafe /* nested unsafe */ still */ let y = 2;"), vec!["let", "y"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = lex("for i in 0..10 { a[i] = 1e-3; }");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..10 keeps both dots");
        assert!(toks.iter().any(|t| t.is_ident("for")));
    }
}
