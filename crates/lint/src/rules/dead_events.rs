//! Rule `dead-event`: every telemetry event must actually be *emitted*.
//!
//! The telemetry crate defines the event vocabulary (`Event::ALL`); the
//! simulation crates are responsible for emitting each event wherever the
//! modelled hardware activity happens. A variant that is never emitted is a
//! hole in the instrumentation: reports would silently show zero for it.
//! A mere reference is not enough — matching on an event in a report
//! renderer, or naming it in a test helper, leaves the counter still. This
//! rule parses the `enum Event` variants out of the telemetry crate and
//! requires each to appear inside the argument span of a `record(...)`
//! call — the only way the workspace increments a counter — in non-test
//! code outside the telemetry crate. Call spans may run over multiple lines
//! (rustfmt wraps wide `record` calls), so the rule tracks parenthesis
//! depth from the `record(` opener across lines.

use crate::scanner::{tokenize, Token};
use crate::workspace::{CrateInfo, Workspace};
use crate::Diagnostic;

const RULE: &str = "dead-event";

/// Name of the crate defining the event vocabulary.
pub const TELEMETRY_CRATE: &str = "reram-telemetry";

/// A `record(...)` call can be reformatted over at most this many lines
/// before the rule stops following it (a safety bound, far above any real
/// rustfmt output).
const MAX_CALL_SPAN_LINES: usize = 12;

/// Runs the dead-event rule over the workspace.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(telemetry) = ws.get(TELEMETRY_CRATE) else {
        // Fixture workspaces without a telemetry crate have no vocabulary.
        return Vec::new();
    };
    let variants = event_variants(telemetry);
    if variants.is_empty() {
        return vec![Diagnostic::new(
            &telemetry.manifest_path,
            1,
            RULE,
            "could not find any `enum Event` variants in the telemetry crate \
             (rule out of sync with the code?)"
                .to_owned(),
        )];
    }

    // Collect every record-call argument span outside the telemetry crate.
    let mut spans: Vec<String> = Vec::new();
    for krate in &ws.crates {
        if krate.name == TELEMETRY_CRATE {
            continue;
        }
        for file in &krate.files {
            let lines: Vec<(usize, &str)> = file.code_lines().collect();
            for (i, (_, line)) in lines.iter().enumerate() {
                for opener in record_call_offsets(line) {
                    let mut span = String::new();
                    let mut depth = 0i64;
                    let mut started = false;
                    'span: for (j, (_, later)) in
                        lines.iter().enumerate().skip(i).take(MAX_CALL_SPAN_LINES)
                    {
                        let skip_chars = if j == i { opener } else { 0 };
                        for c in later.chars().skip(skip_chars) {
                            match c {
                                '(' => {
                                    depth += 1;
                                    started = true;
                                }
                                ')' => depth -= 1,
                                _ => {}
                            }
                            if depth > 0 {
                                span.push(c);
                            }
                        }
                        span.push(' ');
                        if started && depth <= 0 {
                            break 'span;
                        }
                    }
                    spans.push(span);
                }
            }
        }
    }

    let mut diags = Vec::new();
    for (variant, def_path, def_line) in &variants {
        if !spans.iter().any(|s| references_variant(s, variant)) {
            diags.push(Diagnostic::new(
                def_path,
                *def_line,
                RULE,
                format!(
                    "telemetry event `Event::{variant}` is never emitted: no \
                     `record(Event::{variant}, ..)` call exists outside the \
                     telemetry crate — wire the counter up or remove the variant"
                ),
            ));
        }
    }
    diags
}

/// Character offsets of each `record(` call opener on a masked line: a
/// `record` identifier (boundary on the left, so `try_record` does not
/// match) followed, after optional whitespace, by `(`. The returned offset
/// points at the identifier, before the opening paren.
fn record_call_offsets(masked_line: &str) -> Vec<usize> {
    let chars: Vec<char> = masked_line.chars().collect();
    let mut offsets = Vec::new();
    let needle: Vec<char> = "record".chars().collect();
    let mut i = 0;
    while i + needle.len() <= chars.len() {
        if chars[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        let before_ok = i == 0 || (!chars[i - 1].is_alphanumeric() && chars[i - 1] != '_');
        let mut j = i + needle.len();
        // `record` must end at an identifier boundary and open a call.
        let word_ok = chars
            .get(j)
            .is_none_or(|c| !c.is_alphanumeric() && *c != '_');
        while chars.get(j).is_some_and(|c| c.is_whitespace()) {
            j += 1;
        }
        if before_ok && word_ok && chars.get(j) == Some(&'(') {
            offsets.push(i);
        }
        i += needle.len();
    }
    offsets
}

/// `Event::<Variant>` with an identifier boundary after the variant.
fn references_variant(masked_line: &str, variant: &str) -> bool {
    let needle = format!("Event::{variant}");
    let mut from = 0;
    while let Some(pos) = masked_line[from..].find(&needle) {
        let end = from + pos + needle.len();
        let boundary = masked_line[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// Parses `(variant, defining file, line)` out of the telemetry crate's
/// `enum Event { ... }` block.
fn event_variants(telemetry: &CrateInfo) -> Vec<(String, String, usize)> {
    let mut variants = Vec::new();
    for file in &telemetry.files {
        // Find `enum Event` and walk its block line by line.
        let mut depth_into_enum: Option<usize> = None;
        let mut depth = 0usize;
        for (idx, line) in file.masked_lines.iter().enumerate() {
            let tokens = tokenize(line);
            let enum_here = tokens
                .windows(2)
                .any(|w| w[0].ident() == Some("enum") && w[1].ident() == Some("Event"));
            if enum_here {
                depth_into_enum = Some(depth);
            }
            if let Some(enum_depth) = depth_into_enum {
                // Variant lines sit at depth enum_depth + 1 and start with
                // an uppercase identifier followed by `,` or `=`.
                if depth == enum_depth + 1 {
                    if let Some(first) = tokens.first().and_then(Token::ident) {
                        let starts_upper = first.chars().next().is_some_and(char::is_uppercase);
                        let followed = tokens
                            .get(1)
                            .is_some_and(|t| t.is_punct(',') || t.is_punct('='));
                        if starts_upper && followed {
                            variants.push((first.to_owned(), file.path.clone(), idx + 1));
                        }
                    }
                }
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth_into_enum == Some(depth) {
                            depth_into_enum = None;
                        }
                    }
                    _ => {}
                }
            }
        }
        if !variants.is_empty() {
            break;
        }
    }
    variants
}
