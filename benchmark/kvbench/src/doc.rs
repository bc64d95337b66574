//! Measured metrics and the JSON documents made of them.

use crate::catalog::{self, Clock};
use crate::json::Value;
use crate::stats::Summary;

/// True for names made of `[A-Za-z0-9_.-]`, at most 64 long, starting
/// with a letter or digit — the only kind the documents carry.
#[cfg(test)]
pub fn is_plain_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
    /// Spread of the repeated samples behind a host-clock `value`.
    pub summary: Option<Summary>,
}

/// An insertion-ordered set of metrics. A metric whose value does not
/// exist for a workload (no reads, no checkpoints, a zero denominator)
/// is left out: nothing is ever recorded as 0, NaN or inf in its place.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records one value under the unit the catalog gives `name`;
    /// ignored when not finite.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table of [`catalog`].
    pub fn exact(&mut self, name: &str, clock: Clock, value: f64) {
        self.push(name, clock, value, None);
    }

    /// Records a simulated-clock value; ignored when not finite.
    pub fn sim(&mut self, name: &str, value: f64) {
        self.exact(name, Clock::Sim, value);
    }

    /// Records a count or a ratio of counts; ignored when not finite.
    pub fn count(&mut self, name: &str, value: f64) {
        self.exact(name, Clock::None, value);
    }

    /// Records the median of repeated host-clock samples with its
    /// quartiles; ignored when there are none or one is not finite.
    pub fn host(&mut self, name: &str, samples: &[f64]) {
        if let Some(summary) = Summary::of(samples) {
            self.push(name, Clock::Host, summary.median, Some(summary));
        }
    }

    /// Records the least of repeated host-clock samples, with the median
    /// and quartiles beside it. What shares the machine only ever adds
    /// time, so the least-disturbed sample is the one that repeats.
    pub fn host_least(&mut self, name: &str, samples: &[f64]) {
        if let Some(summary) = Summary::of(samples) {
            self.push(name, Clock::Host, summary.min, Some(summary));
        }
    }

    /// Records an end-to-end metric under the clock the catalog gives
    /// it: the median of `samples`, with their quartiles when there are
    /// several. Ignored when empty or not finite.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`catalog::END_TO_END`].
    pub fn end_to_end(&mut self, name: &str, samples: &[f64]) {
        let spec = catalog::end_to_end(name).unwrap_or_else(|| panic!("{name} not in catalog"));
        if let Some(summary) = Summary::of(samples) {
            let spread = (summary.n > 1).then_some(summary);
            self.push(name, spec.clock, summary.median, spread);
        }
    }

    fn push(&mut self, name: &str, clock: Clock, value: f64, summary: Option<Summary>) {
        let unit = match (catalog::end_to_end(name), catalog::layer(name)) {
            (Some(m), _) => m.unit,
            (None, Some(m)) => m.unit,
            (None, None) => panic!("metric {name} is not in the catalog"),
        };
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        if value.is_finite() {
            self.0.push(Metric {
                name: name.to_string(),
                unit,
                clock,
                value,
                summary,
            });
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(&m.name, m.clock, m.value, m.summary);
        }
    }

    /// `{name: {value, unit, clock[, n, min, q1, median, q3, max]}}`.
    pub fn to_json(&self) -> Value {
        let mut out = Value::obj();
        for m in &self.0 {
            let mut entry = Value::obj();
            entry.set("value", Value::Num(m.value));
            entry.set("unit", Value::str(m.unit));
            entry.set("clock", Value::str(m.clock.label()));
            if let Some(s) = m.summary {
                entry.set("n", Value::Int(s.n as u64));
                for (key, v) in [
                    ("min", s.min),
                    ("q1", s.q1),
                    ("median", s.median),
                    ("q3", s.q3),
                    ("max", s.max),
                ] {
                    entry.set(key, Value::Num(v));
                }
            }
            out.set(&m.name, entry);
        }
        out
    }

    /// The `metrics` object of the driver's result line: exactly the
    /// `wanted` names, each `{value, unit}`.
    ///
    /// # Errors
    ///
    /// Names a wanted metric that was not measured.
    pub fn to_result_line<'a>(
        &self,
        wanted: impl Iterator<Item = &'a str>,
    ) -> Result<Value, String> {
        let mut out = Value::obj();
        for name in wanted {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let mut entry = Value::obj();
            entry.set("value", Value::Num(m.value));
            entry.set("unit", Value::str(m.unit));
            out.set(name, entry);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn undefined_metrics_are_omitted_never_serialised() {
        let mut m = Metrics::default();
        m.sim("checkpoint.remap_ms", f64::NAN);
        m.count("ftl.waf", f64::INFINITY);
        m.count("checkpoint.remapped_share", f64::NEG_INFINITY);
        m.end_to_end("host_ns_per_query", &[]);
        m.end_to_end("sim_cp_mean_ms", &[f64::NAN]);
        m.host_least("setup_s", &[0.1, f64::NAN]);
        m.end_to_end("sim_throughput_qps", &[98_000.5]);
        let text = m.to_json().to_line();
        assert_eq!(m.iter().count(), 1);
        for bad in ["NaN", "nan", "inf", "null"] {
            assert!(!text.contains(bad), "{text}");
        }
        assert_eq!(json::parse(&text).unwrap(), m.to_json());
    }

    #[test]
    fn host_metrics_carry_their_spread() {
        let mut m = Metrics::default();
        m.end_to_end("host_ns_per_query", &[1100.0, 1200.0, 1000.0]);
        m.host_least("setup_s", &[0.11, 0.12, 0.10]);
        let doc = m.to_json();
        let entry = doc.get("host_ns_per_query").unwrap();
        assert_eq!(entry.get("value"), Some(&Value::Num(1100.0)));
        assert_eq!(entry.get("n"), Some(&Value::Int(3)));
        assert_eq!(entry.get("q1"), Some(&Value::Num(1050.0)));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some("ns"));
        assert_eq!(entry.get("clock").and_then(Value::as_str), Some("host"));
        let entry = doc.get("setup_s").unwrap();
        assert_eq!(entry.get("value"), Some(&Value::Num(0.10)));
        assert_eq!(entry.get("median"), Some(&Value::Num(0.11)));
    }

    #[test]
    fn result_line_holds_exactly_the_wanted_names() {
        let mut m = Metrics::default();
        m.sim("sim_read_p50_us", 1.0);
        m.sim("sim_write_p50_us", 2.0);
        let line = m.to_result_line(["sim_write_p50_us"].into_iter()).unwrap();
        assert_eq!(
            line.to_line(),
            r#"{"sim_write_p50_us":{"value":2.0,"unit":"us"}}"#
        );
        assert!(m.to_result_line(["sim_cp_mean_ms"].into_iter()).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn a_name_outside_the_catalog_is_refused() {
        Metrics::default().count("ftl.made_up", 1.0);
    }

    #[test]
    fn only_plain_names_are_accepted() {
        assert!(is_plain_name("ftl.gc_units_moved_per_kq"));
        assert!(is_plain_name("ycsb_c_read_200k"));
        for bad in ["", "_x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!is_plain_name(bad), "{bad}");
        }
    }
}
