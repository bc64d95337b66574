//! One reported number under a stable name, and the one line it prints as.

use std::fmt;

/// One reported number: a row of `lab`'s `BENCH_perf.json` or of a run
/// report, under a name that does not change from run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable key (e.g. `gclab/zipfian/waf`,
    /// `latency/read_cp/p999_us`).
    pub name: String,
    /// The value; not finite where no value exists (a ratio with a zero
    /// denominator, the lifetime of a run that erased nothing).
    pub value: f64,
    /// Unit label (`"x"`, `"us"`, `"%"`, ...).
    pub unit: &'static str,
}

impl Row {
    /// The row `name` = `value` in `unit`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Row {
            name: name.into(),
            value,
            unit,
        }
    }

    /// The value as a CSV field: the shortest decimal that reads back as
    /// the same `f64` (a count prints as an integer), and an empty field
    /// when it is not finite, so that no parser meets `inf` or `NaN`.
    pub fn csv_field(&self) -> String {
        if self.value.is_finite() {
            self.value.to_string()
        } else {
            String::new()
        }
    }
}

/// The one line a row prints as: indented name, the value to three
/// decimals (`n/a` when not finite) and the unit.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, unit) = (&self.name, self.unit);
        if self.value.is_finite() {
            write!(f, "  {name:<60} {:>14.3} {unit}", self.value)
        } else {
            write!(f, "  {name:<60} {:>14} {unit}", "n/a")
        }
    }
}
