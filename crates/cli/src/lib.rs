//! Argument parsing and experiment assembly for the `checkin` CLI.
//!
//! The binary drives the same [`checkin_core::KvSystem`] the benches use,
//! from the command line:
//!
//! ```text
//! checkin run --strategy check-in --queries 50000 --threads 64
//! checkin compare --mix WO --pattern uniform
//! checkin sweep threads --values 4,16,64,128 --strategy baseline
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use checkin_core::{Strategy, SystemConfig};
use checkin_sim::SimDuration;
use checkin_workload::{AccessPattern, OpMix, RecordSizes};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one configuration and print its report.
    Run(RunArgs),
    /// Run all five strategies on the same workload and print a table.
    Compare(RunArgs),
    /// Sweep one parameter for one strategy.
    Sweep {
        /// Which parameter to sweep.
        axis: SweepAxis,
        /// Values to sweep over.
        values: Vec<u64>,
        /// Base configuration.
        base: RunArgs,
    },
    /// Run one configuration with cross-layer tracing enabled and emit
    /// the captured events as JSON lines on stdout.
    Trace {
        /// Run configuration.
        args: RunArgs,
        /// Ring capacity: at most this many most-recent events are kept.
        events: usize,
    },
    /// Print usage.
    Help,
}

/// Sweepable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Client thread count.
    Threads,
    /// Checkpoint interval in milliseconds.
    IntervalMs,
    /// FTL mapping unit in bytes.
    UnitBytes,
}

/// Common knobs accepted by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Checkpointing strategy.
    pub strategy: Strategy,
    /// Total queries.
    pub queries: u64,
    /// Client threads.
    pub threads: u32,
    /// Loaded records.
    pub record_count: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Key skew.
    pub pattern: AccessPattern,
    /// Checkpoint interval (ms).
    pub interval_ms: u64,
    /// Mapping-unit override in bytes.
    pub unit_bytes: Option<u32>,
    /// Workload seed.
    pub seed: u64,
    /// Queries admitted per client event-queue hop (1 = historical
    /// one-op-per-event loop).
    pub admission_batch: u32,
    /// Use the small GC-pressured device instead of the default 3 GiB.
    pub gc_pressure: bool,
    /// Emit machine-readable CSV instead of the report or tables
    /// (`run`, `compare`, `sweep`).
    pub csv: bool,
    /// Worker threads for `compare`/`sweep` batches (`None` = one per
    /// core). Results are deterministic regardless of the value.
    pub jobs: Option<usize>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            strategy: Strategy::CheckIn,
            queries: 30_000,
            threads: 32,
            record_count: 6_000,
            mix: OpMix::A,
            pattern: AccessPattern::Zipfian,
            interval_ms: 250,
            unit_bytes: None,
            seed: 0x5EED,
            admission_batch: 1,
            gc_pressure: false,
            csv: false,
            jobs: None,
        }
    }
}

impl RunArgs {
    /// Materialises a [`SystemConfig`] from the parsed arguments.
    pub fn to_config(&self) -> SystemConfig {
        let mut c = if self.gc_pressure {
            SystemConfig::gc_pressured(self.strategy)
        } else {
            SystemConfig::for_strategy(self.strategy)
        };
        c.total_queries = self.queries;
        c.threads = self.threads;
        c.workload.record_count = self.record_count;
        c.workload.mix = self.mix;
        c.workload.pattern = self.pattern;
        c.workload.sizes = RecordSizes::paper_default();
        c.workload.seed = self.seed;
        c.checkpoint_interval = SimDuration::from_millis(self.interval_ms);
        c.unit_bytes = self.unit_bytes;
        c.admission_batch = self.admission_batch;
        c
    }
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_strategy(s: &str) -> Result<Strategy, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Strategy::Baseline),
        "isc-a" | "isca" => Ok(Strategy::IscA),
        "isc-b" | "iscb" => Ok(Strategy::IscB),
        "isc-c" | "iscc" => Ok(Strategy::IscC),
        "check-in" | "checkin" => Ok(Strategy::CheckIn),
        other => Err(ParseError(format!(
            "unknown strategy '{other}' (expected baseline|isc-a|isc-b|isc-c|check-in)"
        ))),
    }
}

fn parse_mix(s: &str) -> Result<OpMix, ParseError> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(OpMix::A),
        "B" => Ok(OpMix::B),
        "C" => Ok(OpMix::C),
        "F" => Ok(OpMix::F),
        "WO" => Ok(OpMix::WRITE_ONLY),
        other => Err(ParseError(format!(
            "unknown mix '{other}' (expected A|B|C|F|WO)"
        ))),
    }
}

fn parse_pattern(s: &str) -> Result<AccessPattern, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "uniform" => Ok(AccessPattern::Uniform),
        "zipfian" | "zipf" => Ok(AccessPattern::Zipfian),
        other => Err(ParseError(format!(
            "unknown pattern '{other}' (expected uniform|zipfian)"
        ))),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("{flag} expects a number, got '{s}'")))
}

fn fill_args(args: &mut RunArgs, flag: &str, value: &str) -> Result<(), ParseError> {
    match flag {
        "--strategy" => args.strategy = parse_strategy(value)?,
        "--queries" => args.queries = parse_num(flag, value)?,
        "--threads" => args.threads = parse_num(flag, value)?,
        "--record-count" => args.record_count = parse_num(flag, value)?,
        "--mix" => args.mix = parse_mix(value)?,
        "--pattern" => args.pattern = parse_pattern(value)?,
        "--interval-ms" => args.interval_ms = parse_num(flag, value)?,
        "--unit" => args.unit_bytes = Some(parse_num(flag, value)?),
        "--seed" => args.seed = parse_num(flag, value)?,
        "--admission-batch" => {
            args.admission_batch = parse_num(flag, value)?;
            if args.admission_batch == 0 {
                return Err(ParseError("--admission-batch must be at least 1".into()));
            }
        }
        "--jobs" => args.jobs = Some(parse_num(flag, value)?),
        other => return Err(ParseError(format!("unknown flag '{other}'"))),
    }
    Ok(())
}

fn parse_run_args<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<RunArgs, ParseError> {
    let mut args = RunArgs::default();
    let mut tokens = tokens.peekable();
    while let Some(flag) = tokens.next() {
        if flag == "--gc-pressure" {
            args.gc_pressure = true;
            continue;
        }
        if flag == "--csv" {
            args.csv = true;
            continue;
        }
        let value = tokens
            .next()
            .ok_or_else(|| ParseError(format!("{flag} expects a value")))?;
        fill_args(&mut args, flag, value)?;
    }
    Ok(args)
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns a user-facing message for unknown subcommands, flags or
/// malformed values.
///
/// # Examples
///
/// ```
/// use checkin_cli::{parse, Command};
///
/// let cmd = parse(&["run", "--strategy", "baseline", "--queries", "1000"]).unwrap();
/// match cmd {
///     Command::Run(args) => assert_eq!(args.queries, 1000),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn parse(argv: &[&str]) -> Result<Command, ParseError> {
    let Some((&sub, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    match sub {
        "run" => Ok(Command::Run(parse_run_args(rest.iter().copied())?)),
        "compare" => Ok(Command::Compare(parse_run_args(rest.iter().copied())?)),
        "sweep" => {
            let Some((&axis, rest)) = rest.split_first() else {
                return Err(ParseError(
                    "sweep expects an axis: threads|interval-ms|unit".into(),
                ));
            };
            let axis = match axis {
                "threads" => SweepAxis::Threads,
                "interval-ms" => SweepAxis::IntervalMs,
                "unit" => SweepAxis::UnitBytes,
                other => {
                    return Err(ParseError(format!(
                        "unknown sweep axis '{other}' (threads|interval-ms|unit)"
                    )))
                }
            };
            // Extract --values, pass the rest to the common parser.
            let mut values = Vec::new();
            let mut passthrough = Vec::new();
            let mut it = rest.iter().copied().peekable();
            while let Some(tok) = it.next() {
                if tok == "--values" {
                    let list = it
                        .next()
                        .ok_or_else(|| ParseError("--values expects a list".into()))?;
                    for v in list.split(',') {
                        values.push(parse_num::<u64>("--values", v.trim())?);
                    }
                } else {
                    passthrough.push(tok);
                }
            }
            if values.is_empty() {
                return Err(ParseError(
                    "sweep requires --values v1,v2,... (comma separated)".into(),
                ));
            }
            let base = parse_run_args(passthrough.into_iter())?;
            Ok(Command::Sweep { axis, values, base })
        }
        "trace" => {
            // Extract --events, pass the rest to the common parser.
            let mut events = 100_000usize;
            let mut passthrough = Vec::new();
            let mut it = rest.iter().copied();
            while let Some(tok) = it.next() {
                if tok == "--events" {
                    let v = it
                        .next()
                        .ok_or_else(|| ParseError("--events expects a count".into()))?;
                    events = parse_num("--events", v)?;
                    if events == 0 {
                        return Err(ParseError("--events must be at least 1".into()));
                    }
                } else {
                    passthrough.push(tok);
                }
            }
            let args = parse_run_args(passthrough.into_iter())?;
            Ok(Command::Trace { args, events })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!(
            "unknown command '{other}' (run|compare|sweep|trace|help)"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
checkin — Check-In (ISCA 2020) experiment runner

USAGE:
  checkin run      [flags]             run one configuration
  checkin compare  [flags]             all five strategies, same workload
  checkin sweep <axis> --values a,b,c [flags]
                                       sweep threads | interval-ms | unit
  checkin trace    [flags]             run with cross-layer tracing; emits
                                       one JSON event per line on stdout
                                       (--events N caps the ring, def. 100000)

FLAGS (all optional):
  --strategy  baseline|isc-a|isc-b|isc-c|check-in   (default check-in)
  --queries   N          total queries              (default 30000)
  --threads   N          client threads             (default 32)
  --record-count N       loaded records             (default 6000)
  --mix       A|B|C|F|WO operation mix              (default A)
  --pattern   uniform|zipfian                       (default zipfian)
  --interval-ms N        checkpoint interval        (default 250)
  --unit      512|1024|2048|4096  mapping-unit override
  --seed      N          workload seed              (default 0x5EED)
  --admission-batch N    queries per client event-queue hop (default 1;
                         larger values amortize event churn without
                         moving checkpoint boundaries)
  --jobs      N          worker threads for compare/sweep batches
                         (default: one per core; results are identical
                         for any value, including --jobs 1)
  --gc-pressure          use a small device so GC runs constantly
  --csv                  machine-readable CSV output (run/compare/sweep)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&[
            "run",
            "--strategy",
            "isc-b",
            "--queries",
            "1234",
            "--threads",
            "8",
            "--mix",
            "WO",
            "--pattern",
            "uniform",
            "--unit",
            "1024",
            "--gc-pressure",
        ])
        .unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert_eq!(a.strategy, Strategy::IscB);
        assert_eq!(a.queries, 1234);
        assert_eq!(a.threads, 8);
        assert_eq!(a.mix, OpMix::WRITE_ONLY);
        assert_eq!(a.pattern, AccessPattern::Uniform);
        assert_eq!(a.unit_bytes, Some(1024));
        assert!(a.gc_pressure);
        assert!(!a.csv);
        let Command::Run(a) = parse(&["run", "--csv"]).unwrap() else {
            panic!()
        };
        assert!(a.csv);
    }

    #[test]
    fn parses_sweep() {
        let cmd = parse(&[
            "sweep",
            "threads",
            "--values",
            "4,16,64",
            "--strategy",
            "baseline",
        ])
        .unwrap();
        let Command::Sweep { axis, values, base } = cmd else {
            panic!()
        };
        assert_eq!(axis, SweepAxis::Threads);
        assert_eq!(values, vec![4, 16, 64]);
        assert_eq!(base.strategy, Strategy::Baseline);
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "--bogus", "1"]).is_err());
        assert!(parse(&["run", "--queries"]).is_err());
        assert!(parse(&["run", "--queries", "abc"]).is_err());
        assert!(parse(&["sweep", "sideways", "--values", "1"]).is_err());
        assert!(parse(&["sweep", "threads"]).is_err());
    }

    #[test]
    fn parses_jobs() {
        let Command::Compare(a) = parse(&["compare", "--jobs", "3"]).unwrap() else {
            panic!()
        };
        assert_eq!(a.jobs, Some(3));
        assert_eq!(RunArgs::default().jobs, None);
        assert!(parse(&["compare", "--jobs", "x"]).is_err());
    }

    #[test]
    fn parses_admission_batch() {
        let Command::Run(a) = parse(&["run", "--admission-batch", "16"]).unwrap() else {
            panic!()
        };
        assert_eq!(a.admission_batch, 16);
        assert_eq!(a.to_config().admission_batch, 16);
        assert_eq!(RunArgs::default().admission_batch, 1);
        assert!(parse(&["run", "--admission-batch", "0"]).is_err());
        assert!(parse(&["run", "--admission-batch", "x"]).is_err());
    }

    #[test]
    fn parses_trace() {
        let Command::Trace { args, events } = parse(&[
            "trace",
            "--events",
            "500",
            "--strategy",
            "baseline",
            "--queries",
            "100",
        ])
        .unwrap() else {
            panic!()
        };
        assert_eq!(events, 500);
        assert_eq!(args.strategy, Strategy::Baseline);
        assert_eq!(args.queries, 100);

        // Default capacity, flags still honoured.
        let Command::Trace { events, .. } = parse(&["trace"]).unwrap() else {
            panic!()
        };
        assert_eq!(events, 100_000);
        assert!(parse(&["trace", "--events"]).is_err());
        assert!(parse(&["trace", "--events", "0"]).is_err());
        assert!(parse(&["trace", "--events", "x"]).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn strategy_aliases() {
        for (s, want) in [
            ("baseline", Strategy::Baseline),
            ("ISC-A", Strategy::IscA),
            ("iscb", Strategy::IscB),
            ("isc-c", Strategy::IscC),
            ("CheckIn", Strategy::CheckIn),
            ("check-in", Strategy::CheckIn),
        ] {
            assert_eq!(parse_strategy(s).unwrap(), want, "{s}");
        }
    }

    #[test]
    fn to_config_roundtrip() {
        let a = RunArgs {
            queries: 777,
            unit_bytes: Some(2048),
            interval_ms: 125,
            ..RunArgs::default()
        };
        let c = a.to_config();
        assert_eq!(c.total_queries, 777);
        assert_eq!(c.effective_unit_bytes(), 2048);
        assert_eq!(c.checkpoint_interval, SimDuration::from_millis(125));
        c.validate().unwrap();
    }

    #[test]
    fn gc_pressure_shrinks_device() {
        let a = RunArgs {
            gc_pressure: true,
            record_count: 3_000,
            ..RunArgs::default()
        };
        let c = a.to_config();
        assert!(c.geometry.capacity_bytes() < 100 << 20);
        c.validate().unwrap();
    }
}
