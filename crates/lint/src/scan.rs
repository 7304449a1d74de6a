//! A minimal Rust lexer for lint purposes: strip comments and every string
//! flavor out of the token stream (so patterns inside literals never
//! trigger), keep the comments on the side (waivers and `SAFETY:` audits
//! read them), and mark the line ranges of `#[cfg(test)]`-gated items (test
//! code is exempt from the determinism and panic-path rules).
//!
//! This is not a full lexer — no literal values, no token trees — just
//! enough structure for the pattern rules in the rule engine: identifiers
//! are whole tokens, everything else is one punctuation character per token.

/// What a token is: an identifier/keyword, or a single punctuation char.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    pub text: String,
    pub line: u32,
    pub kind: TokKind,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// One physical line of comment text (the `//`/`/* */` markers stripped,
/// block comments contribute one entry per line they span).
#[derive(Clone, Debug)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// The scan of one source file.
pub struct Scan {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// Lines (1-based) inside `#[cfg(test)]` / `#[test]`-gated items.
    test_lines: Vec<(u32, u32)>,
}

impl Scan {
    /// Whether `line` falls inside a `#[cfg(test)]`-gated item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Comments on lines `[line - back, line]`, most recent last.
    pub fn comments_near(&self, line: u32, back: u32) -> impl Iterator<Item = &Comment> {
        let lo = line.saturating_sub(back);
        self.comments
            .iter()
            .filter(move |c| c.line >= lo && c.line <= line)
    }
}

/// Lex `src` into a [`Scan`].
pub fn scan(src: &str) -> Scan {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Line comment (incl. `///` and `//!` docs).
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            comments.push(Comment {
                line,
                text: chars[start..j].iter().collect(),
            });
            i = j;
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comment, nesting honored, one Comment entry per line.
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut buf = String::new();
            while j < chars.len() && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else if chars[j] == '\n' {
                    comments.push(Comment {
                        line,
                        text: std::mem::take(&mut buf),
                    });
                    line += 1;
                    j += 1;
                } else {
                    buf.push(chars[j]);
                    j += 1;
                }
            }
            if !buf.is_empty() {
                comments.push(Comment { line, text: buf });
            }
            i = j;
        } else if c == '"' {
            i = skip_string(&chars, i + 1, &mut line);
        } else if (c == 'r' || c == 'b')
            && matches!(chars.get(i + 1), Some(&'"') | Some(&'#') | Some(&'\''))
            || (c == 'b' && chars.get(i + 1) == Some(&'r'))
        {
            // Raw strings r"…"/r#"…"#, byte strings b"…", byte chars b'…',
            // raw byte strings br#"…"#, and raw identifiers r#ident.
            let mut j = i + 1;
            let mut raw = c == 'r';
            if chars.get(j) == Some(&'r') {
                raw = true;
                j += 1; // br…
            }
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            match chars.get(j) {
                Some(&'"') if !raw => {
                    // b"…" — escapes apply like a normal string.
                    i = skip_string(&chars, j + 1, &mut line);
                }
                Some(&'"') => {
                    // Raw (byte) string: ends at `"` + `hashes` hashes.
                    j += 1;
                    'raw: while j < chars.len() {
                        if chars[j] == '\n' {
                            line += 1;
                            j += 1;
                        } else if chars[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                            j += 1;
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                }
                Some(&'\'') if c == 'b' && hashes == 0 => {
                    i = skip_char_literal(&chars, j + 1, &mut line);
                }
                _ if hashes > 0 => {
                    // Raw identifier r#ident: emit the ident itself.
                    let start = j;
                    while j < chars.len() && is_ident(chars[j]) {
                        j += 1;
                    }
                    tokens.push(Tok {
                        text: chars[start..j].iter().collect(),
                        line,
                        kind: TokKind::Ident,
                    });
                    i = j;
                }
                _ => {
                    // Plain identifier starting with r/b after all.
                    let start = i;
                    let mut k = i;
                    while k < chars.len() && is_ident(chars[k]) {
                        k += 1;
                    }
                    tokens.push(Tok {
                        text: chars[start..k].iter().collect(),
                        line,
                        kind: TokKind::Ident,
                    });
                    i = k;
                }
            }
        } else if c == '\'' {
            // Lifetime or char literal. A lifetime is `'ident` NOT followed
            // by a closing quote ('a' the char literal vs 'a the lifetime).
            let mut j = i + 1;
            if j < chars.len() && (is_ident_start(chars[j])) {
                let mut k = j;
                while k < chars.len() && is_ident(chars[k]) {
                    k += 1;
                }
                if chars.get(k) == Some(&'\'') && k == j + 1 {
                    // 'x' — a char literal.
                    i = k + 1;
                } else {
                    // Lifetime: skip, no token needed.
                    i = k;
                }
            } else {
                // Escaped or punctuation char literal: '\n', '\'', '('…
                j = skip_char_literal(&chars, j, &mut line);
                i = j;
            }
        } else if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < chars.len() && is_ident(chars[j]) {
                j += 1;
            }
            tokens.push(Tok {
                text: chars[start..j].iter().collect(),
                line,
                kind: TokKind::Ident,
            });
            i = j;
        } else if c.is_ascii_digit() {
            // Numeric literal: value is irrelevant, but consume it as a
            // unit so `0x1f`, `1_000u64` and `1.5e3` don't shed bogus
            // ident tokens. Dots are consumed only when digit-adjacent so
            // ranges (`0..n`) and method calls (`1.to_string()`) survive.
            let mut j = i;
            while j < chars.len() && (is_ident(chars[j])) {
                j += 1;
            }
            if chars.get(j) == Some(&'.') && chars.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                j += 1;
                while j < chars.len() && is_ident(chars[j]) {
                    j += 1;
                }
            }
            i = j;
        } else {
            tokens.push(Tok {
                text: c.to_string(),
                line,
                kind: TokKind::Punct,
            });
            i += 1;
        }
    }

    let test_lines = test_regions(&tokens);
    Scan {
        tokens,
        comments,
        test_lines,
    }
}

/// Consume a `"…"` body starting just after the opening quote; returns the
/// index after the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consume a `'…'` char-literal body starting just after the opening quote;
/// returns the index after the closing quote.
fn skip_char_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Line ranges of items gated behind `#[cfg(test)]` (or bare `#[test]`):
/// the attribute line through the closing brace (or semicolon) of the item
/// it decorates.
fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is("#") && tokens.get(i + 1).is_some_and(|t| t.is("["))) {
            i += 1;
            continue;
        }
        let attr_start_line = tokens[i].line;
        let Some(close) = matching_bracket(tokens, i + 1) else {
            break;
        };
        let attr = &tokens[i + 1..close];
        if is_test_attr(attr) {
            // Skip any further attributes on the same item.
            let mut j = close + 1;
            while tokens.get(j).is_some_and(|t| t.is("#"))
                && tokens.get(j + 1).is_some_and(|t| t.is("["))
            {
                match matching_bracket(tokens, j + 1) {
                    Some(c) => j = c + 1,
                    None => break,
                }
            }
            // The item extends to its closing brace, or to `;` for
            // brace-less items (`mod tests;`, `use …;`). A gated struct
            // field or match arm ends at its `,`, and a gated trailing
            // expression at the brace that closes the block around it.
            let mut depth = 0usize;
            let mut nested = 0usize;
            let mut end_line = attr_start_line;
            while let Some(t) = tokens.get(j) {
                if t.is("}") && depth == 0 {
                    break;
                }
                end_line = t.line;
                if t.is("{") {
                    depth += 1;
                } else if t.is("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is("(") || t.is("[") {
                    nested += 1;
                } else if t.is(")") || t.is("]") {
                    nested = nested.saturating_sub(1);
                } else if (t.is(";") || t.is(",")) && depth == 0 && nested == 0 {
                    break;
                }
                j += 1;
            }
            regions.push((attr_start_line, end_line));
            i = j + 1;
        } else {
            i = close + 1;
        }
    }
    regions
}

/// Index of the `]` matching the `[` at `open` (bracket depth honored).
fn matching_bracket(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is("[") {
            depth += 1;
        } else if t.is("]") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether an attribute body (tokens between `[` and `]`, exclusive of
/// both) gates its item to test builds: `test`, or `cfg(…)` whose argument
/// mentions `test` outside a `not(…)`. `cfg_attr` never gates existence.
fn is_test_attr(attr: &[Tok]) -> bool {
    let Some(first) = attr.iter().find(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    if first.is("test") {
        return true;
    }
    if !first.is("cfg") {
        return false;
    }
    for (k, t) in attr.iter().enumerate() {
        if t.is("test") && t.kind == TokKind::Ident {
            let negated = k >= 2 && attr[k - 1].is("(") && attr[k - 2].is("not");
            if !negated {
                return true;
            }
        }
    }
    false
}
