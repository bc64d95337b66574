//! Rustc-style diagnostics.

use std::fmt;

/// One finding: a rule violation at a precise source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`"A1"`, `"A4"`, `"A6"`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
    /// The offending source line, for context.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        if !self.snippet.is_empty() {
            writeln!(f, "     | {}", self.snippet.trim_end())?;
        }
        write!(f, "     = help: {}", self.help)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_rustc() {
        let d = Diagnostic {
            rule: "A1",
            file: "crates/ftl/src/ftl.rs".into(),
            line: 315,
            col: 14,
            message: "`.expect()` in recovery-reachable code".into(),
            help: "propagate a typed error".into(),
            snippet: "            .expect(\"slot holds data\")".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("crates/ftl/src/ftl.rs:315:14: error[A1]:"));
        assert!(s.contains("help: propagate"));
    }
}
