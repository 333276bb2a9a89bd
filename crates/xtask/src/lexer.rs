//! A hand-rolled, std-only Rust lexer producing a token stream with spans.
//!
//! The analyzer's rules ([`crate::rules`]) all operate on this token stream
//! instead of matching patterns against source lines, which means they are
//! immune to the classic false-positive/negative classes:
//!
//! * prose in `//`/`/* */`/doc comments never produces tokens;
//! * string literals — including raw strings `r#"…"#` with any number of
//!   hashes, byte strings, and escapes — become single [`TokKind::Str`]
//!   tokens whose *contents* are never pattern-matched;
//! * nested block comments (`/* /* */ */`) are tracked with a depth counter;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`), so a
//!   generic parameter never terminates a phantom "string";
//! * multi-line constructs keep exact line/column spans, so a finding
//!   points at the token, not at whatever line a regex happened to anchor.
//!
//! The lexer is deliberately *not* a parser: it has no grammar, only a
//! faithful tokenization. Rules that need structure (function extents, call
//! argument ranges, attribute targets) recover it from the token stream with
//! bracket matching — see [`crate::rules::RuleCtx`].

/// The coarse class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `as`, `HashMap`, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — the leading `'` is included in the
    /// token text.
    Lifetime,
    /// A numeric literal, including any suffix (`4096`, `1_000u64`, `0x1f`,
    /// `1e-3`, `2.5f32`).
    Num,
    /// A string literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`. The token text includes the delimiters.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'a'`.
    Char,
    /// A single punctuation character (`.`, `:`, `(`, `[`, `!`, …).
    /// Multi-character operators appear as consecutive `Punct` tokens.
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Tok<'_> {
    /// Whether this is an identifier with exactly the given text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Whether this is a punctuation token with exactly the given char.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// Tokenizes `source`, skipping whitespace and comments.
///
/// The lexer never fails: malformed input (an unterminated string, a stray
/// control character) degenerates to best-effort tokens so the analyzer can
/// still report on the rest of the file.
pub fn lex(source: &str) -> Vec<Tok<'_>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Current byte offset.
    i: usize,
    line: u32,
    col: u32,
    out: Vec<Tok<'a>>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    /// Advances one char, maintaining line/col. Multi-byte UTF-8 chars
    /// advance the column by one.
    fn bump(&mut self) {
        let b = self.bytes[self.i];
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
            self.i += 1;
        } else if b < 0x80 {
            self.col += 1;
            self.i += 1;
        } else {
            // Skip the remaining continuation bytes of this UTF-8 char.
            self.i += 1;
            while self.peek(0).is_some_and(|b| (b & 0xC0) == 0x80) {
                self.i += 1;
            }
            self.col += 1;
        }
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        self.out.push(Tok {
            kind,
            text: &self.src[start..self.i],
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Tok<'a>> {
        while let Some(b) = self.peek(0) {
            let (start, line, col) = (self.i, self.line, self.col);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.skip_line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.skip_block_comment(),
                b'r' | b'b' if self.raw_or_byte_string(start, line, col) => {}
                b'b' if self.peek(1) == Some(b'\'') => {
                    // Byte literal b'x'.
                    self.bump();
                    self.char_literal();
                    self.push(TokKind::Char, start, line, col);
                }
                b'"' => {
                    self.string_literal();
                    self.push(TokKind::Str, start, line, col);
                }
                b'\'' => {
                    if self.lifetime_ahead() {
                        self.bump(); // '
                        while self.peek(0).is_some_and(is_ident_byte) {
                            self.bump();
                        }
                        self.push(TokKind::Lifetime, start, line, col);
                    } else {
                        self.char_literal();
                        self.push(TokKind::Char, start, line, col);
                    }
                }
                b'0'..=b'9' => {
                    self.number();
                    self.push(TokKind::Num, start, line, col);
                }
                _ if is_ident_start(b) || b >= 0x80 => {
                    while self.peek(0).is_some_and(|b| is_ident_byte(b) || b >= 0x80) {
                        self.bump();
                    }
                    self.push(TokKind::Ident, start, line, col);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    fn skip_line_comment(&mut self) {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
    }

    fn skip_block_comment(&mut self) {
        // Nested: /* /* */ */ needs two closers.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => return,
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and friends. Returns
    /// false (consuming nothing) when the `r`/`b` starts a plain identifier.
    fn raw_or_byte_string(&mut self, start: usize, line: u32, col: u32) -> bool {
        let mut j = self.i;
        // Optional b, optional r, optional hashes, then a quote.
        if self.bytes.get(j) == Some(&b'b') {
            j += 1;
        }
        let raw = self.bytes.get(j) == Some(&b'r');
        if raw {
            j += 1;
        }
        let mut hashes = 0usize;
        while self.bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.bytes.get(j) != Some(&b'"') || (!raw && (hashes > 0 || self.bytes[self.i] != b'b'))
        {
            return false;
        }
        // Consume the prefix and the opening quote.
        while self.i <= j {
            self.bump();
        }
        if raw {
            // Scan for `"` followed by `hashes` hashes; no escapes in raw.
            loop {
                match self.peek(0) {
                    None => break,
                    Some(b'"') => {
                        let mut seen = 0usize;
                        while seen < hashes && self.peek(1 + seen) == Some(b'#') {
                            seen += 1;
                        }
                        if seen == hashes {
                            for _ in 0..=hashes {
                                self.bump();
                            }
                            break;
                        }
                        self.bump();
                    }
                    Some(_) => self.bump(),
                }
            }
        } else {
            self.plain_string_body();
        }
        self.push(TokKind::Str, start, line, col);
        true
    }

    fn string_literal(&mut self) {
        self.bump(); // opening quote
        self.plain_string_body();
    }

    /// Consumes a non-raw string body up to and including the closing quote,
    /// honoring backslash escapes.
    fn plain_string_body(&mut self) {
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
    }

    /// After the cursor sits on `'`: is this a lifetime rather than a char
    /// literal? A lifetime is `'` + ident start, *not* followed by a closing
    /// quote (`'a'` is a char; `'a` is a lifetime; `'\n'` is a char).
    fn lifetime_ahead(&self) -> bool {
        let Some(first) = self.peek(1) else {
            return false;
        };
        if first == b'\\' || !is_ident_start(first) {
            return false;
        }
        // Scan the ident run; a quote right after means char literal.
        let mut j = 2;
        while self.peek(j).is_some_and(is_ident_byte) {
            j += 1;
        }
        self.peek(j) != Some(b'\'')
    }

    fn char_literal(&mut self) {
        self.bump(); // opening '
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    if self.peek(0).is_some() {
                        self.bump();
                    }
                }
                Some(b'\'') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
    }

    fn number(&mut self) {
        // Integer part (any radix prefix is just ident bytes plus digits).
        while self.peek(0).is_some_and(|b| is_ident_byte(b) || b == b'.') {
            // A second `.` or a `..` range operator ends the number.
            if self.peek(0) == Some(b'.') {
                if self.peek(1) == Some(b'.') {
                    break;
                }
                // `1.max(…)` — method call on an integer, not a float.
                if self.peek(1).is_some_and(is_ident_start) {
                    break;
                }
            }
            // Exponent sign: 1e-3 / 1E+5.
            if matches!(self.peek(0), Some(b'e') | Some(b'E'))
                && matches!(self.peek(1), Some(b'+') | Some(b'-'))
                && self.peek(2).is_some_and(|b| b.is_ascii_digit())
            {
                self.bump();
                self.bump();
                continue;
            }
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_nums_and_puncts() {
        assert_eq!(
            kinds("let x2 = 42;"),
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x2"),
                (TokKind::Punct, "="),
                (TokKind::Num, "42"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn numeric_literal_flavors_stay_single_tokens() {
        for n in ["1_000u64", "0x1f", "0b1010", "2.5f32", "1e6", "1e-3", "3."] {
            let toks = kinds(n);
            assert_eq!(toks, vec![(TokKind::Num, n)], "{n}");
        }
        // Range and method-call dots end the number.
        assert_eq!(
            kinds("0..10"),
            vec![
                (TokKind::Num, "0"),
                (TokKind::Punct, "."),
                (TokKind::Punct, "."),
                (TokKind::Num, "10"),
            ]
        );
        assert_eq!(kinds("1.max(2)").first().unwrap(), &(TokKind::Num, "1"));
    }

    #[test]
    fn line_and_block_comments_produce_no_tokens() {
        assert!(kinds("// HashMap Instant unwrap()").is_empty());
        assert!(kinds("/* thread_rng() */").is_empty());
        assert!(kinds("/// doc about HashMap\n//! inner doc").is_empty());
    }

    #[test]
    fn nested_block_comments() {
        // The old line scanner handled this; the lexer must too — and code
        // after the fully-closed comment must tokenize.
        let toks = kinds("/* outer /* inner */ still comment */ fn after() {}");
        assert_eq!(toks[0], (TokKind::Ident, "fn"));
        assert_eq!(toks[1], (TokKind::Ident, "after"));
    }

    #[test]
    fn unterminated_block_comment_swallows_rest() {
        assert!(kinds("/* /* never closed */ fn hidden() {}").is_empty());
    }

    #[test]
    fn plain_strings_are_one_token_with_escapes() {
        assert_eq!(
            kinds(r#"let s = "Instant \"quoted\" HashMap";"#)[3],
            (TokKind::Str, r#""Instant \"quoted\" HashMap""#)
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        // The killer case for the line scanner: a raw string containing an
        // unescaped quote. The lexer counts hashes instead.
        let src = r##"let s = r#"contains " a quote and unwrap()"#; let x = 1;"##;
        let toks = kinds(src);
        let s = toks.iter().find(|t| t.0 == TokKind::Str).unwrap();
        assert!(s.1.starts_with("r#\"") && s.1.ends_with("\"#"), "{}", s.1);
        // Code after the raw string still tokenizes.
        assert!(toks.iter().any(|t| t.1 == "x"));
        assert!(!toks.iter().any(|t| t.1 == "unwrap"));
    }

    #[test]
    fn raw_strings_more_hashes() {
        let src = "r##\"inner \"# not the end\"##";
        let toks = kinds(src);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[0].1, src);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(kinds(r#"b"bytes""#), vec![(TokKind::Str, r#"b"bytes""#)]);
        assert_eq!(
            kinds(r##"br#"raw "bytes"#"##),
            vec![(TokKind::Str, r##"br#"raw "bytes"#"##)]
        );
        assert_eq!(kinds("b'x'"), vec![(TokKind::Char, "b'x'")]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        // 'a> is a lifetime; 'a' is a char; '\'' is an escaped char.
        assert_eq!(
            kinds("fn f<'a>(x: &'a str) {}")[3],
            (TokKind::Lifetime, "'a")
        );
        assert_eq!(kinds("let c = 'a';")[3], (TokKind::Char, "'a'"));
        assert_eq!(kinds(r"let c = '\'';")[3], (TokKind::Char, r"'\''"));
        assert_eq!(kinds(r"let c = '\n';")[3], (TokKind::Char, r"'\n'"));
        assert_eq!(kinds("'static")[0], (TokKind::Lifetime, "'static"));
    }

    #[test]
    fn lifetime_does_not_eat_following_code() {
        // The old scanner's worst case: a lifetime followed later by a char
        // literal must not pair up as one phantom string.
        let toks = kinds("struct S<'a> { x: &'a u8 } let c = 'q'; let bad = Instant::now();");
        assert!(toks.iter().any(|t| t.1 == "Instant"), "{toks:?}");
    }

    #[test]
    fn spans_are_one_based_and_track_lines() {
        let toks = lex("fn a() {\n    unwrap\n}");
        let u = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!((u.line, u.col), (2, 5));
        let f = &toks[0];
        assert_eq!((f.line, f.col), (1, 1));
    }

    #[test]
    fn multibyte_chars_count_one_column() {
        let toks = lex("let s = \"héllo\"; bad");
        let b = toks.iter().find(|t| t.text == "bad").unwrap();
        assert_eq!(b.line, 1);
        assert_eq!(b.col, 18);
    }

    #[test]
    fn r_and_b_prefixed_idents_are_not_strings() {
        let toks = kinds("let r = 1; let b = 2; let raw = r; fn br2() {}");
        assert!(toks.iter().all(|t| t.0 != TokKind::Str));
        assert!(toks.iter().any(|t| t.1 == "raw"));
        assert!(toks.iter().any(|t| t.1 == "br2"));
    }
}
