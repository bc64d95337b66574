//! `checkin run --csv` prints the CSV header the report derives and its
//! one row, through the writer `compare` and `sweep` use.

use std::process::Command;

#[test]
fn run_csv_prints_a_header_and_a_row_of_equal_arity() {
    let out = Command::new(env!("CARGO_BIN_EXE_checkin"))
        .args(["run", "--csv", "--queries", "400", "--threads", "4"])
        .args(["--record-count", "200"])
        .output()
        .expect("checkin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("CSV is UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let arity = |line: &str| line.split(',').count();
    assert_eq!(arity(lines[0]), arity(lines[1]), "{stdout}");
    assert!(lines[0].starts_with("strategy,run/threads,"), "{stdout}");
    assert!(lines[1].starts_with("Check-In,4,"), "{stdout}");
    let column = lines[0]
        .split(',')
        .position(|name| name == "host/mapping_bytes");
    let value = column.and_then(|c| lines[1].split(',').nth(c));
    assert!(
        value.is_some_and(|v| v.parse::<f64>().is_ok_and(|b| b > 0.0)),
        "{stdout}"
    );
}
