//! Token-level Rust source scanning.
//!
//! The lint rules do not need a full parse tree — they need reliable answers
//! to four questions about every line of a source file:
//!
//! 1. what does the line look like with comments and string/char literals
//!    blanked out (so `Event::X` inside a doc comment is not an emission),
//! 2. is the line inside a `#[cfg(test)]` (or `#[test]`) item,
//! 3. which rules has the author explicitly waived on the line via a
//!    `// lint:allow(<rule>) <reason>` annotation, and
//! 4. what identifier/punctuation tokens does the line contain.
//!
//! Masking preserves line structure exactly: the masked text has the same
//! number of lines as the raw text and every retained token sits on its
//! original line, so diagnostics can report true line numbers.

/// One parsed source file: raw text plus the derived views the rules use.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/core/src/mapping.rs`.
    pub path: String,
    /// One entry per line: the line with comments/strings/chars blanked.
    pub masked_lines: Vec<String>,
    /// One entry per line: `true` when the line is inside a test item.
    pub in_test: Vec<bool>,
    /// One entry per line: rules waived on this line by `lint:allow`.
    pub allows: Vec<Vec<String>>,
    /// Malformed `lint:allow` annotations: `(line, problem)`.
    pub bad_allows: Vec<(usize, String)>,
}

impl SourceFile {
    /// Parses `raw` into the masked/test/allow views.
    pub fn parse(path: impl Into<String>, raw: &str) -> Self {
        let masked = mask_source(raw);
        let masked_lines: Vec<String> = masked.lines().map(str::to_owned).collect();
        let in_test = test_lines(&masked_lines);
        // Annotations are read from a strings-masked view that keeps
        // comments, so a diagnostic message *quoting* the grammar in a
        // string literal is not mistaken for an annotation.
        let (allows, bad_allows) = parse_allows(&mask(raw, true));
        Self {
            path: path.into(),
            masked_lines,
            in_test,
            allows,
            bad_allows,
        }
    }

    /// Iterator over `(1-based line number, masked line)` pairs that are
    /// outside test items.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.masked_lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.in_test.get(*i).copied().unwrap_or(false))
            .map(|(i, l)| (i + 1, l.as_str()))
    }

    /// Whether `rule` is waived on 1-based line `line`.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows
            .get(line.saturating_sub(1))
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// Blanks comments, string literals, and char literals, preserving line
/// breaks and all other tokens byte-for-byte in their original positions
/// (multi-byte characters inside literals become one space each).
pub fn mask_source(src: &str) -> String {
    mask(src, false)
}

/// Masking worker: `keep_comments` retains comment text (used for the
/// annotation view) while still blanking string/char literals.
fn mask(src: &str, keep_comments: bool) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;

    let keep_line = |c: char| if c == '\n' { '\n' } else { ' ' };

    while i < chars.len() {
        let c = chars[i];
        // Line comment (including doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(if keep_comments { chars[i] } else { ' ' });
                i += 1;
            }
            continue;
        }
        // Block comment (nestable).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(keep_line(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Identifier (may prefix a raw/byte string literal).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();
            if ident == "b" && next == Some('"') {
                // Cooked byte string: blank the prefix and let the string
                // scanner below handle escapes on the next iteration.
                out.push(' ');
                continue;
            }
            let raw_prefix = matches!(ident.as_str(), "r" | "br");
            // Confirm the full `r#*"` shape so raw identifiers (`r#fn`)
            // stay intact.
            let mut lookahead = i;
            while chars.get(lookahead) == Some(&'#') {
                lookahead += 1;
            }
            if raw_prefix && chars.get(lookahead) == Some(&'"') {
                // Raw or byte string: skip the prefix, fall through to the
                // string scanner below with hash counting.
                let mut hashes = 0usize;
                out.push_str(&" ".repeat(ident.chars().count()));
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    out.push(' ');
                    i += 1;
                }
                if chars.get(i) == Some(&'"') {
                    out.push('"');
                    i += 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut ok = true;
                            for h in 0..hashes {
                                if chars.get(i + 1 + h) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                out.push('"');
                                out.push_str(&" ".repeat(hashes));
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        out.push(keep_line(chars[i]));
                        i += 1;
                    }
                }
            } else {
                out.push_str(&ident);
            }
            continue;
        }
        // Cooked string literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                    if i < chars.len() {
                        out.push(keep_line(chars[i]));
                        i += 1;
                    }
                } else if chars[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    out.push(keep_line(chars[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs. lifetime: `'x'` / `'\n'` are literals, `'a` in
        // `&'a str` is a lifetime (no closing quote).
        if c == '\'' {
            let is_escape = chars.get(i + 1) == Some(&'\\');
            let closes_simple = chars.get(i + 2) == Some(&'\'');
            if is_escape || closes_simple {
                out.push('\'');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        out.push(' ');
                        i += 1;
                        if i < chars.len() {
                            out.push(keep_line(chars[i]));
                            i += 1;
                        }
                    } else if chars[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        out.push(keep_line(chars[i]));
                        i += 1;
                    }
                }
            } else {
                out.push('\'');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks every line inside a `#[cfg(test)]` or `#[test]` item.
///
/// After such an attribute, the next `{` opens the test item's block; the
/// region runs to its matching `}`. A `mod name;` form (no block before the
/// first `;`) marks only the attribute/declaration lines.
fn test_lines(masked_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked_lines.len()];
    // Flatten with line indices for brace matching.
    let flat: Vec<(usize, char)> = masked_lines
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.chars().map(move |c| (ln, c)).chain([(ln, '\n')]))
        .collect();

    let mut i = 0;
    while i < flat.len() {
        if starts_with_at(&flat, i, "#[cfg(test)]")
            || starts_with_at(&flat, i, "#[cfg(all(test")
            || starts_with_at(&flat, i, "#[test]")
        {
            // Find the block opened by the attributed item.
            let mut j = i;
            let mut depth = 0usize;
            let mut open = None;
            while j < flat.len() {
                match flat[j].1 {
                    '{' => {
                        open = Some(j);
                        break;
                    }
                    // `mod tests;` — out-of-line module, no inline block.
                    ';' if depth == 0 => break,
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth = depth.saturating_sub(1),
                    _ => {}
                }
                j += 1;
            }
            let end = match open {
                Some(open_idx) => {
                    let mut d = 0usize;
                    let mut k = open_idx;
                    while k < flat.len() {
                        match flat[k].1 {
                            '{' => d += 1,
                            '}' => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k.min(flat.len() - 1)
                }
                None => j.min(flat.len().saturating_sub(1)),
            };
            let (start_line, end_line) = (flat[i].0, flat[end].0);
            for flag in in_test.iter_mut().take(end_line + 1).skip(start_line) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

fn starts_with_at(flat: &[(usize, char)], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, pc)| flat.get(i + k).map(|&(_, c)| c) == Some(pc))
}

/// Parses `// lint:allow(<rule>) <reason>` annotations.
///
/// Works on a strings-masked view so the grammar can be quoted in string
/// literals; only plain `//` comments count (doc comments `///` and `//!`
/// merely *describe* the grammar and never waive anything).
///
/// An annotation waives `<rule>` on its own line and on the line directly
/// below it (so it can sit on the violating line or just above it). The
/// reason is mandatory: an allow without one is reported as malformed.
fn parse_allows(strings_masked: &str) -> (Vec<Vec<String>>, Vec<(usize, String)>) {
    let lines: Vec<&str> = strings_masked.lines().collect();
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    let mut bad = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(comment_start) = line.find("//") else {
            continue;
        };
        let comment = &line[comment_start..];
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(tag_pos) = comment.find("lint:allow") else {
            continue;
        };
        let rest = &comment[tag_pos + "lint:allow".len()..];
        let Some(open) = rest.strip_prefix('(') else {
            bad.push((idx + 1, "expected `lint:allow(<rule>) <reason>`".to_owned()));
            continue;
        };
        let Some(close) = open.find(')') else {
            bad.push((idx + 1, "unclosed `lint:allow(` annotation".to_owned()));
            continue;
        };
        let rule = open[..close].trim().to_owned();
        let reason = open[close + 1..].trim();
        if rule.is_empty()
            || !rule
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            bad.push((idx + 1, format!("invalid rule name {rule:?} in lint:allow")));
            continue;
        }
        if reason.is_empty() {
            bad.push((
                idx + 1,
                format!("lint:allow({rule}) needs a reason after the closing paren"),
            ));
            continue;
        }
        allows[idx].push(rule.clone());
        if idx + 1 < allows.len() {
            allows[idx + 1].push(rule);
        }
    }
    (allows, bad)
}

/// A token: an identifier/number or a single punctuation character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Numeric literal (possibly with suffix/underscores/dots).
    Number(&'a str),
    /// One punctuation character.
    Punct(char),
}

impl<'a> Token<'a> {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&'a str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Token::Punct(p) if *p == c)
    }
}

/// Tokenizes one masked line. Whitespace separates tokens; every
/// non-alphanumeric character is its own `Punct` token.
pub fn tokenize(line: &str) -> Vec<Token<'_>> {
    let mut tokens = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            tokens.push(Token::Ident(&line[start..i]));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'.')
            {
                // Stop a numeric token before `..` ranges and method calls
                // on literals (`1.0.max(x)` is rare; ranges are not).
                if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                    break;
                }
                i += 1;
            }
            tokens.push(Token::Number(&line[start..i]));
        } else {
            // Multi-byte punctuation (e.g. masked unicode) — take one char.
            let ch_len = line[i..].chars().next().map_or(1, char::len_utf8);
            tokens.push(Token::Punct(c));
            i += ch_len;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let a = \"panic!\"; // unwrap()\nlet b = 'x'; /* expect( */ let c = 1;";
        let masked = mask_source(src);
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("expect"));
        assert!(masked.contains("let a"));
        assert!(masked.contains("let c = 1"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn masks_raw_strings_and_keeps_lifetimes() {
        let src = "let s: &'static str = r#\"todo!()\"#; fn f<'a>(x: &'a str) {}";
        let masked = mask_source(src);
        assert!(!masked.contains("todo"));
        assert!(masked.contains("'static"));
        assert!(masked.contains("'a"));
    }

    #[test]
    fn escaped_quotes_do_not_desync() {
        let src = "let s = \"a\\\"b\"; let t = unwrap;";
        let masked = mask_source(src);
        assert!(masked.contains("let t = unwrap"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn tail() {}";
        let f = SourceFile::parse("a.rs", src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn allow_parsing_and_reason_required() {
        let src = "x.unwrap(); // lint:allow(must_use) invariant: always present\ny();\n// lint:allow(must_use)\nz();";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.allowed(1, "must_use"));
        assert!(f.allowed(2, "must_use")); // line below an annotation
        assert!(!f.allowed(4, "must_use")); // reason missing -> malformed
        assert_eq!(f.bad_allows.len(), 1);
        assert_eq!(f.bad_allows[0].0, 3);
    }

    #[test]
    fn tokenizer_splits_idents_and_puncts() {
        let toks = tokenize("self.latency_ns + 3.0e2;");
        assert_eq!(
            toks,
            vec![
                Token::Ident("self"),
                Token::Punct('.'),
                Token::Ident("latency_ns"),
                Token::Punct('+'),
                Token::Number("3.0e2"),
                Token::Punct(';'),
            ]
        );
    }
}
