//! The checked-in finding baseline (`output/audit_baseline.txt`).
//!
//! Each entry suppresses findings by `(rule, file, context)` — context
//! is the line-number-free anchor carried by [`crate::rules::Finding`]
//! (enclosing fn, flagged field, annotation tag), so entries survive
//! edits that merely move code within a file. The file carries an FNV-1a
//! checksum of its entries: hand-editing the baseline to hide a finding
//! fails `--check` with exit code 2, as does an entry whose finding no
//! longer exists (stale suppression). `--bless` regenerates the file
//! from the current scan.

use crate::rules::Finding;

/// Relative path of the baseline under the workspace root.
pub const BASELINE_PATH: &str = "output/audit_baseline.txt";

const HEADER: &str = "# ptatin-audit v2 finding baseline. One suppressed finding per line:\n\
                      #   <rule>\\t<file>\\t<context>\n\
                      # Regenerate with `cargo run -p ptatin-audit -- --bless`; hand edits\n\
                      # invalidate the checksum and fail `--check` with exit code 2.\n";

/// One suppression entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub rule: String,
    pub file: String,
    pub context: String,
}

impl Entry {
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule.id() && self.file == f.file && self.context == f.context
    }
}

/// FNV-1a 64-bit, the same dependency-free hash the checkpoint format
/// uses for its config digest.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn entry_lines(entries: &[Entry]) -> String {
    entries
        .iter()
        .map(|e| format!("{}\t{}\t{}\n", e.rule, e.file, e.context))
        .collect()
}

/// Render a baseline document for `entries` (sorted, deduplicated).
pub fn render(entries: &[Entry]) -> String {
    let mut sorted = entries.to_vec();
    sorted.sort();
    sorted.dedup();
    let body = entry_lines(&sorted);
    format!("{HEADER}checksum={:016x}\n{body}", fnv1a64(body.as_bytes()))
}

/// Parse and verify a baseline document. `Err` carries the reason
/// (malformed line, missing or mismatched checksum — i.e. hand edits).
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut declared: Option<u64> = None;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(sum) = line.strip_prefix("checksum=") {
            declared = Some(
                u64::from_str_radix(sum, 16)
                    .map_err(|_| format!("line {}: bad checksum literal", i + 1))?,
            );
            continue;
        }
        let mut parts = line.split('\t');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(file), Some(context), None) => entries.push(Entry {
                rule: rule.to_string(),
                file: file.to_string(),
                context: context.to_string(),
            }),
            _ => {
                return Err(format!(
                    "line {}: expected `rule<TAB>file<TAB>context`",
                    i + 1
                ))
            }
        }
    }
    let Some(declared) = declared else {
        return Err("missing `checksum=` line".to_string());
    };
    let actual = fnv1a64(entry_lines(&entries).as_bytes());
    if declared != actual {
        return Err(format!(
            "checksum mismatch (declared {declared:016x}, entries hash to {actual:016x}) — \
             the baseline was hand-edited; run `--bless` instead"
        ));
    }
    Ok(entries)
}

/// Split findings into `(unsuppressed, stale_entries)`: a finding with a
/// matching entry is suppressed; an entry matching no finding is stale
/// and must be removed (via `--bless`).
pub fn apply(findings: &[Finding], entries: &[Entry]) -> (Vec<Finding>, Vec<Entry>) {
    let mut used = vec![false; entries.len()];
    let mut unsuppressed = Vec::new();
    for f in findings {
        let mut hit = false;
        for (i, e) in entries.iter().enumerate() {
            if e.matches(f) {
                used[i] = true;
                hit = true;
            }
        }
        if !hit {
            unsuppressed.push(f.clone());
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    (unsuppressed, stale)
}

/// Baseline entries for a set of findings (what `--bless` writes).
pub fn from_findings(findings: &[Finding]) -> Vec<Entry> {
    let mut entries: Vec<Entry> = findings
        .iter()
        .map(|f| Entry {
            rule: f.rule.id().to_string(),
            file: f.file.clone(),
            context: f.context.clone(),
        })
        .collect();
    entries.sort();
    entries.dedup();
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(rule: Rule, file: &str, context: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 7,
            msg: "m".to_string(),
            context: context.to_string(),
        }
    }

    #[test]
    fn roundtrip_and_checksum() {
        let f = vec![finding(Rule::HotAlloc, "crates/la/src/x.rs", "helper")];
        let entries = from_findings(&f);
        let text = render(&entries);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, entries);
        // Idempotent.
        assert_eq!(render(&parsed), text);
    }

    #[test]
    fn hand_edit_breaks_checksum() {
        let f = vec![finding(Rule::HotAlloc, "crates/la/src/x.rs", "helper")];
        let text = render(&from_findings(&f));
        let tampered = text.replace("helper", "other_fn");
        let err = parse(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn apply_splits_unsuppressed_and_stale() {
        let fs = vec![
            finding(Rule::HotAlloc, "a.rs", "f"),
            finding(Rule::ProfScope, "b.rs", "apply"),
        ];
        let entries = vec![
            Entry {
                rule: "hot-alloc".into(),
                file: "a.rs".into(),
                context: "f".into(),
            },
            Entry {
                rule: "ckpt-coverage".into(),
                file: "gone.rs".into(),
                context: "Checkpoint.old".into(),
            },
        ];
        let (unsup, stale) = apply(&fs, &entries);
        assert_eq!(unsup.len(), 1);
        assert_eq!(unsup[0].rule, Rule::ProfScope);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "gone.rs");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = render(&[]);
        assert!(parse(&text).expect("parses").is_empty());
    }

    #[test]
    fn missing_checksum_and_malformed_lines_rejected() {
        assert!(parse("# only a comment\n")
            .unwrap_err()
            .contains("checksum"));
        assert!(parse("not a tab separated line\n").is_err());
    }
}
