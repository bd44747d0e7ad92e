//! A lightweight line/token scanner for Rust source.
//!
//! The analyzer does not parse Rust; it classifies every byte of a source
//! file as *code*, *comment*, or *string literal* and hands the rules a
//! per-line view with string contents blanked and comment text separated
//! out. That is enough to match the project-specific patterns the rules
//! look for (`unsafe`, lock acquisitions, `Ordering::Relaxed`, …) without
//! tripping over the same tokens inside doc comments or literals.
//!
//! Deliberate simplifications, tuned to this workspace's idiom:
//! - char literals are recognized only in the forms `'x'`, `'\x'`,
//!   `'\u{…}'`; anything else starting with `'` is treated as a lifetime
//!   and left in the code stream,
//! - raw strings are handled up to `r##"…"##` (more hashes than any file
//!   in the tree uses).

/// One source line, split into its code and comment portions.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original line, verbatim.
    pub raw: String,
    /// Code portion: comments removed, string/char literal *contents*
    /// replaced by spaces (the delimiting quotes remain, so patterns with
    /// parentheses and dots still line up).
    pub code: String,
    /// Concatenated text of every comment that touches this line,
    /// including the body of multi-line `/* … */` comments.
    pub comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    Str,
    RawStr { hashes: usize },
    BlockComment { depth: usize },
}

/// Splits `src` into classified [`Line`]s.
pub fn scan(src: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for raw in src.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&raw[byte_pos(&bytes, i)..]);
                        break;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment { depth: 1 };
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' if is_raw_string_start(&bytes, i) && !prev_is_ident(&code) => {
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        code.push('"');
                        state = State::RawStr { hashes };
                        i = j + 1;
                    }
                    '\'' => {
                        // Char literal or lifetime? Treat as a literal only
                        // when a closing quote appears within a few chars.
                        if let Some(end) = char_literal_end(&bytes, i) {
                            code.push('\'');
                            for _ in i + 1..end {
                                code.push(' ');
                            }
                            code.push('\'');
                            i = end + 1;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::Str => match c {
                    '\\' => {
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    '"' => {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr { hashes } => {
                    if c == '"' && closes_raw(&bytes, i, hashes) {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::BlockComment { depth } => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment { depth: depth - 1 };
                        }
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment { depth: depth + 1 };
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A plain string literal continues across lines only with a
        // trailing backslash; otherwise reset the state at EOL so an
        // unbalanced quote cannot swallow the rest of the file.
        if state == State::Str && !raw.ends_with('\\') {
            state = State::Code;
        }
        out.push(Line {
            raw: raw.to_string(),
            code,
            comment,
        });
    }
    out
}

fn byte_pos(chars: &[char], idx: usize) -> usize {
    chars[..idx].iter().map(|c| c.len_utf8()).sum()
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn char_literal_end(bytes: &[char], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        '\\' => {
            // '\n', '\'', '\u{1F600}' …
            let mut j = i + 2;
            while j < bytes.len() && j < i + 12 {
                if bytes[j] == '\'' && bytes[j - 1] != '\\' {
                    return Some(j);
                }
                j += 1;
            }
            None
        }
        _ => {
            if bytes.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None
            }
        }
    }
}

/// True when `code` contains `word` as a standalone identifier (not as a
/// substring of a longer identifier).
pub fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// The text after `name` when a line's comment opens with it
/// (`// spc-allow(`, `//! spc-scope:`, `// spc-order(`). The directive
/// must be the first thing after the `//`/`/*` opener: prose that merely
/// mentions the syntax, like this crate's own docs, is not a directive.
pub fn directive<'a>(comment: &'a str, name: &str) -> Option<&'a str> {
    comment
        .trim_start()
        .trim_start_matches(['/', '*', '!'])
        .trim_start()
        .strip_prefix(name)
}

fn closes_raw(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_from_code() {
        let lines = scan("let x = 1; // unsafe in a comment\n/* unsafe */ let y = 2;");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe in a comment"));
        assert!(!lines[1].code.contains("unsafe"));
        assert!(lines[1].code.contains("let y = 2;"));
    }

    #[test]
    fn block_comments_span_lines() {
        let lines = scan("/* one\n unsafe two\n*/ let z = 3;");
        assert!(lines[1].code.is_empty());
        assert!(lines[1].comment.contains("unsafe two"));
        assert!(lines[2].code.contains("let z = 3;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = scan("let s = \"Ordering::Relaxed // unsafe\"; foo();");
        assert!(!lines[0].code.contains("Relaxed"));
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("foo();"));
        assert!(lines[0].comment.is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = scan("fn f<'a>(x: &'a str) -> char { '\"' }");
        // The '"' char literal must not open a string state.
        assert!(lines[0].code.contains("fn f<'a>"));
        assert!(lines[0].code.ends_with('}'));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(has_word("(unsafe)", "unsafe"));
    }
}
