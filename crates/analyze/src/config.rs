//! `analyze.toml` — rule scopes and the allowlist.
//!
//! The repository is offline-only, so this module hand-rolls a parser for
//! the small TOML subset the checker needs: `[section]` headers,
//! `[[allow]]` array-of-table headers, and `key = value` lines where a
//! value is a quoted string, an integer, a boolean, or a flat array of
//! strings. Comments (`#`) and blank lines are skipped. Anything fancier
//! is a hard error — the config is part of the correctness surface and
//! must not be silently misread.

use std::collections::BTreeMap;

/// One allowlist entry: suppresses findings of `rule` in `file` whose
/// flagged source line contains `snippet`. Every entry must carry a
/// `reason`; undocumented exceptions defeat the point of the checker.
///
/// The `snippet` is the anchor: it survives unrelated edits that shift
/// line numbers, and it goes stale loudly when the flagged code itself
/// changes. `line` is a human-readability hint only — it is reported
/// but never used for matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id, e.g. `"A1"` (case-insensitive).
    pub rule: String,
    /// Workspace-relative file path the exception applies to.
    pub file: String,
    /// Required substring of the flagged source line.
    pub snippet: String,
    /// 1-based line hint for readers; not used for matching.
    pub line: Option<u32>,
    /// Why this exception is sound. Required.
    pub reason: String,
}

/// Parsed configuration for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// A1: files whose every (non-test) token is recovery code.
    pub a1_files: Vec<String>,
    /// A1: recovery entry functions; everything lexically reachable from
    /// them inside the same crate is checked too.
    pub a1_entry_functions: Vec<String>,
    /// A4: crates checked for truncating casts on address arithmetic.
    pub a4_crates: Vec<String>,
    /// A4: identifier words that mark an expression as address
    /// arithmetic (matched case-insensitively against identifiers).
    pub a4_identifiers: Vec<String>,
    /// A4: files where `self` itself is an address newtype (`Lpn`, `Pun`,
    /// `Ppn` impls), so `self.0` casts are also address arithmetic.
    pub a4_self_files: Vec<String>,
    /// Documented exceptions.
    pub allows: Vec<AllowEntry>,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            a1_files: Vec::new(),
            a1_entry_functions: Vec::new(),
            a4_crates: Vec::new(),
            a4_identifiers: ["lpn", "ppn", "pun", "lba", "sector", "sectors"]
                .map(String::from)
                .to_vec(),
            a4_self_files: Vec::new(),
            allows: Vec::new(),
        }
    }
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl AnalyzeConfig {
    /// Parses the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a `line: message` description of the first malformed line,
    /// unknown section or key, or allow entry missing a required field.
    pub fn parse(src: &str) -> Result<AnalyzeConfig, String> {
        let mut cfg = AnalyzeConfig::default();
        // Section path -> key -> value; allow tables are collected apart.
        let mut current_section = String::new();
        let mut current_allow: Option<BTreeMap<String, Value>> = None;
        let mut raw_allows: Vec<(usize, BTreeMap<String, Value>)> = Vec::new();
        let mut sections: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();

        // Fold multi-line arrays into logical lines: keep accumulating
        // while `[`/`]` (outside strings) are unbalanced.
        let mut pending = String::new();
        let mut pending_start = 0usize;
        let mut logical: Vec<(usize, String)> = Vec::new();
        for (idx, raw_line) in src.lines().enumerate() {
            let stripped = strip_comment(raw_line).trim().to_string();
            if stripped.is_empty() {
                continue;
            }
            if pending.is_empty() {
                pending_start = idx + 1;
                pending = stripped;
            } else {
                pending.push(' ');
                pending.push_str(&stripped);
            }
            if bracket_balance(&pending) > 0 {
                continue;
            }
            logical.push((pending_start, std::mem::take(&mut pending)));
        }
        if !pending.is_empty() {
            return Err(format!("{pending_start}: unterminated array"));
        }

        for (lineno, line) in logical {
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                if header.trim() != "allow" {
                    return Err(format!(
                        "{lineno}: unknown array-of-tables [[{}]] (only [[allow]] is supported)",
                        header.trim()
                    ));
                }
                if let Some(done) = current_allow.take() {
                    raw_allows.push((lineno, done));
                }
                current_allow = Some(BTreeMap::new());
                current_section.clear();
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if let Some(done) = current_allow.take() {
                    raw_allows.push((lineno, done));
                }
                current_section = header.trim().to_string();
                // A header alone is checked too: a stale `[a7]` must be an
                // error, not a section that silently configures nothing.
                if !matches!(current_section.as_str(), "a1" | "a4") {
                    return Err(format!("{lineno}: unknown section [{current_section}]"));
                }
                sections.entry(current_section.clone()).or_default();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("{lineno}: expected `key = value`, got `{line}`"));
            };
            let key = line[..eq].trim().to_string();
            let value = parse_value(line[eq + 1..].trim()).map_err(|e| format!("{lineno}: {e}"))?;
            if let Some(allow) = current_allow.as_mut() {
                allow.insert(key, value);
            } else if current_section.is_empty() {
                return Err(format!("{lineno}: `{key}` outside any section"));
            } else {
                sections
                    .entry(current_section.clone())
                    .or_default()
                    .insert(key, value);
            }
        }
        if let Some(done) = current_allow.take() {
            raw_allows.push((0, done));
        }

        for (section, keys) in &sections {
            for (key, value) in keys {
                cfg.apply(section, key, value)
                    .map_err(|e| format!("[{section}] {key}: {e}"))?;
            }
        }
        for (lineno, table) in raw_allows {
            cfg.allows.push(
                build_allow(&table)
                    .map_err(|e| format!("[[allow]] ending near line {lineno}: {e}"))?,
            );
        }
        Ok(cfg)
    }

    fn apply(&mut self, section: &str, key: &str, value: &Value) -> Result<(), String> {
        let slot: &mut Vec<String> = match (section, key) {
            ("a1", "files") => &mut self.a1_files,
            ("a1", "entry_functions") => &mut self.a1_entry_functions,
            ("a4", "crates") => &mut self.a4_crates,
            ("a4", "identifiers") => &mut self.a4_identifiers,
            ("a4", "self_files") => &mut self.a4_self_files,
            _ => return Err("unknown section/key".to_string()),
        };
        match value {
            Value::StrArray(items) => {
                *slot = items.clone();
                Ok(())
            }
            _ => Err("expected an array of strings".to_string()),
        }
    }
}

fn build_allow(table: &BTreeMap<String, Value>) -> Result<AllowEntry, String> {
    let get_str = |key: &str| -> Result<String, String> {
        match table.get(key) {
            Some(Value::Str(s)) if !s.trim().is_empty() => Ok(s.clone()),
            Some(_) => Err(format!("`{key}` must be a non-empty string")),
            None => Err(format!("missing required `{key}`")),
        }
    };
    let line = match table.get("line") {
        None => None,
        Some(Value::Int(n)) if *n > 0 => Some(*n as u32),
        Some(_) => return Err("`line` must be a positive integer".to_string()),
    };
    for key in table.keys() {
        if !matches!(
            key.as_str(),
            "rule" | "file" | "snippet" | "line" | "reason"
        ) {
            return Err(format!("unknown allow key `{key}`"));
        }
    }
    Ok(AllowEntry {
        rule: get_str("rule")?.to_ascii_uppercase(),
        file: get_str("file")?,
        snippet: get_str("snippet")?,
        line,
        reason: get_str("reason")?,
    })
}

/// Net `[` minus `]` count outside quoted strings. Section headers
/// (`[a1]`, `[[allow]]`) balance to zero, so only open arrays are > 0.
fn bracket_balance(line: &str) -> i64 {
    let mut balance = 0i64;
    let mut in_str = false;
    let mut escape = false;
    for c in line.chars() {
        match c {
            _ if escape => escape = false,
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '[' if !in_str => balance += 1,
            ']' if !in_str => balance -= 1,
            _ => {}
        }
    }
    balance
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escape => escape = false,
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array `{s}`"))?;
        let mut items = Vec::new();
        for part in split_array(body)? {
            match parse_value(&part)? {
                Value::Str(v) => items.push(v),
                _ => return Err(format!("arrays may only hold strings: `{part}`")),
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        return Ok(Value::Str(body.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{s}`"))
}

/// Splits a flat array body on commas, respecting quoted strings.
fn split_array(body: &str) -> Result<Vec<String>, String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in body.chars() {
        match c {
            _ if escape => {
                current.push(c);
                escape = false;
            }
            '\\' if in_str => {
                current.push(c);
                escape = true;
            }
            '"' => {
                current.push(c);
                in_str = !in_str;
            }
            ',' if !in_str => {
                if !current.trim().is_empty() {
                    items.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if in_str {
        return Err(format!("unterminated string in array `{body}`"));
    }
    if !current.trim().is_empty() {
        items.push(current.trim().to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scopes_and_allows() {
        let cfg = AnalyzeConfig::parse(
            r#"
# comment
[a1]
files = ["crates/ssd/src/spor.rs"]
entry_functions = ["rebuild_after_power_loss"]

[a4]
crates = ["ftl", "ssd"]

[[allow]]
rule = "a4"
file = "crates/ftl/src/location.rs"
snippet = "unit % units_per_page"
line = 31
reason = "modulo bounds the value"

[[allow]]
rule = "A1"
file = "crates/ftl/src/mapping.rs"
snippet = "&mut vec[idx]"
reason = "resize two lines above bounds idx"
"#,
        )
        .unwrap();
        assert_eq!(cfg.a1_files, vec!["crates/ssd/src/spor.rs"]);
        assert_eq!(cfg.a4_crates, vec!["ftl", "ssd"]);
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].rule, "A4");
        assert_eq!(cfg.allows[0].line, Some(31));
        assert_eq!(cfg.allows[0].snippet, "unit % units_per_page");
        assert_eq!(cfg.allows[1].line, None);
    }

    #[test]
    fn multi_line_arrays_fold() {
        let cfg = AnalyzeConfig::parse(
            "[a1]\nentry_functions = [\n    \"rebuild\", # tail comment\n    \"recover\",\n]\n",
        )
        .unwrap();
        assert_eq!(cfg.a1_entry_functions, vec!["rebuild", "recover"]);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let err =
            AnalyzeConfig::parse("[[allow]]\nrule = \"A1\"\nfile = \"x.rs\"\nsnippet = \"x[0]\"\n")
                .unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn allow_without_snippet_is_rejected() {
        let err =
            AnalyzeConfig::parse("[[allow]]\nrule = \"A1\"\nfile = \"x.rs\"\nreason = \"why\"\n")
                .unwrap_err();
        assert!(err.contains("snippet"), "{err}");
    }

    /// A2, A3, A5, A7 and A8 are retired (DESIGN.md §15): a config that
    /// still carries one of their sections is stale, with or without keys.
    #[test]
    fn retired_rule_sections_are_rejected() {
        for stale in [
            "[a2]\ncrates = [\"sim\"]\n",
            "[a3]\ncrates = [\"flash\"]\n",
            "[a5]\nlock_order = [\"ring\"]\n",
            "[a7]\nfamilies = [\"detected = quarantined + corrected\"]\n",
            "[a7]\n",
            "[a8]\nfleet_bound = [\"core\"]\n",
        ] {
            let err = AnalyzeConfig::parse(stale).unwrap_err();
            assert!(err.contains("unknown section"), "{stale:?}: {err}");
        }
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = AnalyzeConfig::parse("[a1]\nbogus = [\"x\"]\n").unwrap_err();
        assert!(err.contains("unknown"), "{err}");
    }

    #[test]
    fn comment_inside_string_survives() {
        let cfg = AnalyzeConfig::parse(
            "[[allow]]\nrule = \"A2\"\nfile = \"a.rs\"\nsnippet = \"y\"\nreason = \"see issue #5\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows[0].reason, "see issue #5");
    }
}
