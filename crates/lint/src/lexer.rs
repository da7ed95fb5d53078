//! A from-scratch, token-level Rust lexer.
//!
//! The linter does not need a full parse tree — every rule it enforces is
//! expressible over the token stream plus a little region bookkeeping
//! (which lines are test code). What the lexer *must* get right is the
//! lexical layer, or rule matching produces garbage:
//!
//! * comments never yield tokens, including **nested** block comments
//!   (`/* a /* b */ c */` is one comment in Rust);
//! * string contents never yield tokens, including **raw strings**
//!   (`r#"…"#` with any number of `#`s) and byte/raw-byte strings;
//! * `'a'` (a char literal) and `'a` (a lifetime) are disambiguated, so
//!   a `'}'` char literal cannot corrupt brace-depth tracking.
//!
//! Comments, doc comments included, leave nothing behind but the line
//! count.

/// What a token is, as far as the rule engine cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `pub`, `r#match`, …).
    Ident,
    /// A single punctuation character (`{`, `.`, `#`, …).
    Punct,
    /// Any literal: string, raw string, char, byte, number.
    Literal,
    /// A lifetime (`'a`, `'static`, `'_`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token class.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Literal`] this is left empty —
    /// no rule inspects literal contents, and literals can be large.
    pub text: String,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// The output of [`lex`]: the token stream.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
}

/// Lexes Rust source. Never fails: unterminated constructs are consumed
/// to end-of-file, which is the forgiving behaviour a linter wants (the
/// compiler will report the real error).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push_token(&mut self, line: u32, kind: TokenKind, text: String) {
        self.out.tokens.push(Token { line, kind, text });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_prefix() => {}
                _ if is_ident_start(c) => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push_token(line, TokenKind::Punct, c.to_string());
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    /// Consumes a block comment, nested ones included.
    fn block_comment(&mut self) {
        self.pos += 2; // `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: consume to EOF
            }
        }
    }

    /// Ordinary (escaped) string or byte-string body, after the opening
    /// quote position. Consumes through the closing `"`.
    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening "
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // the escaped char, whatever it is
                }
                '"' => break,
                _ => {}
            }
        }
        self.push_token(line, TokenKind::Literal, String::new());
    }

    /// Raw string body: `"` already seen through `hashes` `#`s. Consumes
    /// until `"` followed by `hashes` `#`s.
    fn raw_string_body(&mut self, hashes: usize) {
        let line = self.line;
        self.bump(); // opening "
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push_token(line, TokenKind::Literal, String::new());
    }

    /// Handles the `r` / `b` prefix family: raw strings (`r"…"`,
    /// `r#"…"#`), byte strings (`b"…"`), byte chars (`b'…'`), raw byte
    /// strings (`br#"…"#`), and raw identifiers (`r#match`). Returns
    /// `true` when it consumed something; `false` means "just an
    /// identifier starting with r/b" and the caller falls through.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c0 = self.peek(0);
        let (skip, raw) = match (c0, self.peek(1)) {
            (Some('r'), Some('"' | '#')) => (1, true),
            (Some('b'), Some('"')) => (1, false),
            (Some('b'), Some('\'')) => {
                // Byte char literal: consume `b` then lex as char.
                self.bump();
                self.byte_char();
                return true;
            }
            (Some('b'), Some('r')) if matches!(self.peek(2), Some('"' | '#')) => (2, true),
            _ => return false,
        };
        if raw {
            // Count hashes after the prefix.
            let mut hashes = 0usize;
            while self.peek(skip + hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(skip + hashes) != Some('"') {
                // `r#foo`: a raw identifier, not a raw string.
                if skip == 1 && hashes == 1 {
                    let line = self.line;
                    self.bump(); // r
                    self.bump(); // #
                    let mut text = String::from("r#");
                    while let Some(c) = self.peek(0) {
                        if is_ident_continue(c) {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push_token(line, TokenKind::Ident, text);
                    return true;
                }
                return false;
            }
            for _ in 0..(skip + hashes) {
                self.bump();
            }
            self.raw_string_body(hashes);
        } else {
            self.bump(); // the b prefix
            self.string();
        }
        true
    }

    /// Char literal body after an optional `b` prefix: position is at `'`.
    fn byte_char(&mut self) {
        let line = self.line;
        self.bump(); // opening '
        if self.bump() == Some('\\') {
            self.bump();
        }
        // Consume through the closing quote (tolerate malformed input).
        while let Some(c) = self.bump() {
            if c == '\'' {
                break;
            }
        }
        self.push_token(line, TokenKind::Literal, String::new());
    }

    /// Disambiguates `'a'` / `'\n'` / `'}'` (char literals) from `'a` /
    /// `'static` / `'_` (lifetimes). The rule: after `'`, an identifier
    /// character NOT followed by a closing `'` starts a lifetime.
    fn char_or_lifetime(&mut self) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = match next {
            Some(c) if is_ident_start(c) => after != Some('\''),
            _ => false,
        };
        if is_lifetime {
            let line = self.line;
            self.bump(); // '
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_token(line, TokenKind::Lifetime, text);
        } else {
            self.byte_char();
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(line, TokenKind::Ident, text);
    }

    /// Number literal. Consumes digits, `_`, radix prefixes, type
    /// suffixes, exponents, and a fractional part — but leaves `..`
    /// intact so ranges like `0..10` lex as three tokens.
    fn number(&mut self) {
        let line = self.line;
        // Leading digits / radix prefix / suffix letters.
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part only when `.` is followed by a digit.
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump(); // .
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent sign (`1e-5`): the `e` was consumed above; a sign
        // followed by digits continues the literal.
        if matches!(self.peek(0), Some('+' | '-'))
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
            && self
                .chars
                .get(self.pos.wrapping_sub(1))
                .is_some_and(|&c| c == 'e' || c == 'E')
        {
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.push_token(line, TokenKind::Literal, String::new());
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn main() {\n    let x = 1;\n}\n");
        let kinds: Vec<_> = l.tokens.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokenKind::Ident));
        assert!(kinds.contains(&TokenKind::Punct));
        assert!(kinds.contains(&TokenKind::Literal));
        let x = l.tokens.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!(x.line, 2);
    }

    #[test]
    fn nested_block_comments_hide_tokens() {
        let l = lex("/* outer /* inner HashMap */\n still comment */ // HashSet\nfn f() {}");
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet")));
        let f = l.tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 3, "comments keep the line count");
    }

    #[test]
    fn raw_strings_hide_tokens_and_track_hashes() {
        let l = lex(r####"let s = r#"HashMap " inside"#; let t = r##"a "# b"##; done"####);
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("inside")));
        assert!(l.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn plain_and_byte_strings_hide_tokens() {
        let l = lex(r#"let a = "Instant::now() \" quoted"; let b = b"SystemTime"; end"#);
        assert!(!l.tokens.iter().any(|t| t.is_ident("Instant")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("SystemTime")));
        assert!(l.tokens.iter().any(|t| t.is_ident("end")));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let l = lex("fn r#match(r#type: u8) {}");
        assert!(l.tokens.iter().any(|t| t.is_ident("r#match")));
        assert!(l.tokens.iter().any(|t| t.is_ident("r#type")));
    }

    #[test]
    fn char_literal_brace_does_not_break_punct_stream() {
        // If '}' were mislexed as a lifetime, the brace would leak into
        // the token stream and corrupt depth tracking.
        let l = lex("let c = '}'; let o = '{'; let n = '\\n'; fn f() {}");
        let braces: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.is_punct('{') || t.is_punct('}'))
            .collect();
        assert_eq!(braces.len(), 2, "only fn f's braces: {braces:?}");
    }

    #[test]
    fn lifetimes_lex_as_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str, y: &'static str, z: &'_ u8) {}");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static", "'_"]);
    }

    #[test]
    fn byte_char_literals_are_literals() {
        let l = lex(r"let a = b'x'; let b = b'\''; end");
        assert!(l.tokens.iter().any(|t| t.is_ident("end")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn ranges_do_not_merge_into_float_literals() {
        let l = lex("for i in 0..10 {}");
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn floats_and_exponents_are_single_literals() {
        let l = lex("let a = 1.5e-3; let b = 0xFFu32; let c = 1_000;");
        let lits = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 3);
        // The minus inside 1.5e-3 must not appear as punctuation.
        assert!(!l.tokens.iter().any(|t| t.is_punct('-')));
    }

    #[test]
    fn unterminated_constructs_consume_to_eof_without_panic() {
        for src in ["/* open", "\"open", "r#\"open", "'"] {
            let _ = lex(src); // must not panic or loop forever
        }
    }

    #[test]
    fn idents_include_keywords_and_unicode() {
        assert_eq!(idents("pub fn größe() {}"), vec!["pub", "fn", "größe"]);
    }
}
