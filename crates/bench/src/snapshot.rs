//! Writer for the committed `BENCH_*.json` snapshots.
//!
//! A virtual-time figure bench emits a JSON file at the repo root that is
//! committed and diffed bit-for-bit by CI (`fig_recovery` today; the other
//! figures are ROADMAP item 5). This module is the one serializer, so every
//! snapshot carries the same preamble — bench name, `schema_version`,
//! description, and the host `{ os, arch }` it was generated on. Wall-clock
//! numbers do not belong here: the perf ledger (`bench/e2e`) reports those
//! with spreads.
//!
//! The output is stable text: fields are emitted one per line with a single
//! space after the colon, never reflowed, so an unchanged run is a no-op
//! `git diff`.

use std::fmt::Display;
use std::fmt::Write as _;

/// One `BENCH_<name>.json` snapshot under construction.
///
/// Fields append in call order after the uniform preamble; [`write`]
/// (Snapshot::write) seals the object and lands it at the repo root
/// regardless of the invoking directory.
pub struct Snapshot {
    bench: &'static str,
    /// Each entry is one rendered `  "key": value` fragment (arrays span
    /// multiple lines); the writer joins them with `,\n`.
    entries: Vec<String>,
}

impl Snapshot {
    /// Start a snapshot with the uniform preamble: `bench`,
    /// `schema_version` (bump whenever a field is added, renamed, or
    /// changes meaning), the one-line `description`, and the host os/arch.
    pub fn new(bench: &'static str, schema_version: u32, description: &str) -> Self {
        let mut snap = Snapshot {
            bench,
            entries: Vec::new(),
        };
        snap.text("bench", bench);
        snap.raw("schema_version", schema_version);
        snap.text("description", description);
        snap.raw(
            "host",
            format!(
                "{{ \"os\": \"{}\", \"arch\": \"{}\" }}",
                std::env::consts::OS,
                std::env::consts::ARCH
            ),
        );
        snap
    }

    /// Append a field whose value is already valid JSON (numbers, booleans,
    /// inline objects).
    pub fn raw(&mut self, key: &str, value: impl Display) {
        self.entries.push(format!("  \"{key}\": {value}"));
    }

    /// Append a string field (quoted; the value must not need escaping —
    /// these snapshots carry identifiers and prose, not arbitrary data).
    pub fn text(&mut self, key: &str, value: &str) {
        self.entries.push(format!("  \"{key}\": \"{value}\""));
    }

    /// Append an array field: each element of `rows` is one already-valid
    /// JSON fragment (typically an inline object per measured row).
    pub fn rows<S: AsRef<str>>(&mut self, key: &str, rows: &[S]) {
        let mut out = format!("  \"{key}\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(out, "    {}{sep}", row.as_ref());
        }
        out.push_str("  ]");
        self.entries.push(out);
    }

    fn render(&self) -> String {
        format!("{{\n{}\n}}\n", self.entries.join(",\n"))
    }

    /// Seal the object and write `BENCH_<bench>.json` at the repo root. A
    /// write error is reported but never panics — losing a snapshot must
    /// not fail the bench run itself.
    pub fn write(self) {
        let out = self.render();
        // Repo root, regardless of the invoking directory: this crate lives
        // at `crates/bench`, two levels down.
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.bench
        );
        match std::fs::write(&path, out) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_is_uniform_and_greppable() {
        let snap = Snapshot::new("example", 3, "what this measures");
        let text = snap.render();
        // Single space after the colon, one field per line.
        assert!(text.contains("\"bench\": \"example\""), "{text}");
        assert!(text.contains("\"schema_version\": 3"), "{text}");
        assert!(text.contains("\"description\": \"what this measures\""));
        assert!(text.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        assert!(text.contains(&format!("\"arch\": \"{}\"", std::env::consts::ARCH)));
    }

    #[test]
    fn rows_and_commas_form_valid_json_shape() {
        let mut snap = Snapshot::new("example", 1, "d");
        snap.raw("window_ms", 50);
        snap.rows(
            "rows",
            &["{ \"a\": 1 }".to_string(), "{ \"a\": 2 }".to_string()],
        );
        let text = snap.render();
        // No trailing comma before a closing bracket/brace.
        assert!(!text.contains(",\n  ]"), "{text}");
        assert!(!text.contains(",\n}}"), "{text}");
        assert!(
            text.contains("{ \"a\": 1 },\n    { \"a\": 2 }\n  ]"),
            "{text}"
        );
        // Balanced braces/brackets (cheap structural sanity).
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{text}");
    }
}
