//! Rule `units`: physical quantities in the cost/plan/report models must
//! name their unit.
//!
//! The closed-form hardware accounting lives in three modules —
//! `crossbar::cost`, `core::plan`, and `core::report`. Every `f64`/`f32`
//! struct field and constant there is a physical quantity, and its
//! identifier must carry a unit segment (`_pj`, `_ns`, `_cycles`, `_mw`,
//! `_bits`, ...); integer fields are counts and stay unit-free. On top of
//! that, adding or subtracting two unit-bearing identifiers of *different*
//! dimensions on one line (`energy_pj + latency_ns`) is flagged — the
//! classic silent unit bug this rule exists to stop. Multiplication and
//! division legitimately combine dimensions and are not checked.

use crate::scanner::{tokenize, SourceFile, Token};
use crate::workspace::Workspace;
use crate::Diagnostic;

const RULE: &str = "units";

/// `(crate, file suffix)` pairs the rule applies to.
pub const SCOPED_FILES: &[(&str, &str)] = &[
    ("reram-crossbar", "src/cost.rs"),
    ("reram-core", "src/plan/mod.rs"),
    ("reram-core", "src/report.rs"),
];

/// Recognized unit segments and the physical dimension each names.
pub const UNITS: &[(&str, &str)] = &[
    ("pj", "energy"),
    ("nj", "energy"),
    ("uj", "energy"),
    ("mj", "energy"),
    ("j", "energy"),
    ("ns", "time"),
    ("us", "time"),
    ("ms", "time"),
    ("cycles", "cycles"),
    ("mw", "power"),
    ("w", "power"),
    ("kw", "power"),
    ("bits", "data"),
    ("bytes", "data"),
    ("um2", "area"),
    ("mm2", "area"),
    ("hz", "frequency"),
    ("mhz", "frequency"),
    ("ghz", "frequency"),
];

/// The dimension named by an identifier's unit segment, if any.
///
/// Segments are searched from the end so `energy_pj_per_byte` reads as
/// energy (its trailing segments qualify the denominator).
pub fn dimension_of(ident: &str) -> Option<&'static str> {
    let lower = ident.to_ascii_lowercase();
    for seg in lower.split('_').rev() {
        if let Some(&(_, dim)) = UNITS.iter().find(|(u, _)| *u == seg) {
            return Some(dim);
        }
    }
    None
}

fn in_scope(crate_name: &str, path: &str) -> bool {
    SCOPED_FILES
        .iter()
        .any(|(c, suffix)| *c == crate_name && path.ends_with(suffix))
}

/// Runs the unit-discipline rule over the workspace.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for krate in &ws.crates {
        for file in &krate.files {
            if !in_scope(&krate.name, &file.path) {
                continue;
            }
            check_float_decls(file, &mut diags);
            check_mixed_arithmetic(file, &mut diags);
        }
    }
    diags
}

/// Flags `f64`/`f32` struct fields and `const`s without a unit segment.
fn check_float_decls(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let struct_lines = struct_body_lines(file);
    for (line_no, line) in file.code_lines() {
        let tokens = tokenize(line);
        for w in 0..tokens.len() {
            // `const NAME: f64` anywhere; `name: f64` inside a struct body.
            let is_float_ann = |i: usize| {
                tokens.get(i).is_some_and(|t| t.is_punct(':'))
                    && tokens
                        .get(i + 1)
                        .and_then(Token::ident)
                        .is_some_and(|t| t == "f64" || t == "f32")
            };
            let decl = if tokens[w].ident() == Some("const") {
                tokens
                    .get(w + 1)
                    .and_then(Token::ident)
                    .filter(|_| is_float_ann(w + 2))
            } else if struct_lines.get(line_no - 1).copied().unwrap_or(false) {
                // Field: `ident : f64` followed by `,` or end of line, with
                // the ident not preceded by `:` (type position).
                tokens[w]
                    .ident()
                    .filter(|_| is_float_ann(w + 1))
                    .filter(|_| {
                        tokens
                            .get(w + 3)
                            .is_none_or(|t| t.is_punct(',') || t.is_punct('}'))
                    })
                    .filter(|_| w == 0 || !tokens[w - 1].is_punct(':'))
            } else {
                None
            };
            let Some(name) = decl else { continue };
            if name == "pub" || dimension_of(name).is_some() {
                continue;
            }
            if file.allowed(line_no, RULE) {
                continue;
            }
            diags.push(Diagnostic::new(
                &file.path,
                line_no,
                RULE,
                format!(
                    "float quantity `{name}` has no unit suffix; name its unit \
                     (e.g. `{name}_pj`, `{name}_ns`) or annotate \
                     `// lint:allow(units) <reason>`"
                ),
            ));
        }
    }
}

/// Marks lines inside `struct { ... }` bodies (field-declaration scope).
fn struct_body_lines(file: &SourceFile) -> Vec<bool> {
    let mut flags = vec![false; file.masked_lines.len()];
    let flat: Vec<(usize, char)> = file
        .masked_lines
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.chars().map(move |c| (ln, c)).chain([(ln, '\n')]))
        .collect();
    let text: String = flat.iter().map(|&(_, c)| c).collect();
    let bytes = text.as_bytes();
    let mut search = 0;
    while let Some(pos) = text[search..].find("struct ") {
        let start = search + pos;
        // Must be the keyword, not part of an identifier.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            search = start + 1;
            continue;
        }
        // Find the opening `{` (tuple structs end with `;` first).
        let mut j = start;
        let mut open = None;
        while j < flat.len() {
            match flat[j].1 {
                '{' => {
                    open = Some(j);
                    break;
                }
                ';' => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open_idx) = open {
            let mut depth = 0usize;
            let mut k = open_idx;
            while k < flat.len() {
                match flat[k].1 {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = k.min(flat.len() - 1);
            // Interior lines only: fields sit strictly between the braces.
            for flag in flags
                .iter_mut()
                .take(flat[end].0)
                .skip(flat[open_idx].0 + 1)
            {
                *flag = true;
            }
            search = end;
        } else {
            search = j.min(text.len());
        }
        search = search.max(start + 1);
        if search >= text.len() {
            break;
        }
    }
    flags
}

/// Flags `a_pj + b_ns`-style additions/subtractions of mixed dimensions.
fn check_mixed_arithmetic(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (line_no, line) in file.code_lines() {
        let tokens = tokenize(line);
        for i in 0..tokens.len() {
            let (Token::Punct(op @ ('+' | '-')), true) = (tokens[i], true) else {
                continue;
            };
            // Binary position: something value-like on the left.
            let Some(prev) = (i > 0).then(|| tokens[i - 1]) else {
                continue;
            };
            let left = match prev {
                Token::Ident(id) => Some(id),
                _ => None,
            };
            let binary = matches!(prev, Token::Ident(_) | Token::Number(_))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if !binary {
                continue;
            }
            // Right operand: skip `=` (compound assignment), then walk the
            // `a.b.c` / `a::b` path and take its final identifier.
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('=')) {
                j += 1;
            }
            let mut right = None;
            while let Some(tok) = tokens.get(j) {
                match tok {
                    Token::Ident(id) => {
                        right = Some(*id);
                        let path_continues = tokens.get(j + 1).is_some_and(|t| {
                            t.is_punct('.')
                                || (t.is_punct(':')
                                    && tokens.get(j + 2).is_some_and(|t2| t2.is_punct(':')))
                        });
                        if !path_continues {
                            break;
                        }
                        j += if tokens[j + 1].is_punct('.') { 2 } else { 3 };
                    }
                    _ => break,
                }
            }
            let (Some(l), Some(r)) = (left, right) else {
                continue;
            };
            let (Some(ld), Some(rd)) = (dimension_of(l), dimension_of(r)) else {
                continue;
            };
            if ld != rd && !file.allowed(line_no, RULE) {
                diags.push(Diagnostic::new(
                    &file.path,
                    line_no,
                    RULE,
                    format!(
                        "mixed units: `{l}` ({ld}) {op} `{r}` ({rd}) — convert to a \
                         common dimension first"
                    ),
                ));
            }
        }
    }
}
