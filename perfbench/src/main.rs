//! The repository benchmark: `attack`, `train` and `serve` workloads
//! timed from outside the crates, see `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack --seed 41 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per metric, then, as the last line of standard
//! output, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Exits 1 when a correctness or determinism check
//! fails, 2 on bad arguments.

mod attack;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 41,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["attack", "train", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be attack, train or serve, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Units of work attempted (attacks, trainings or requests).
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Correctness and determinism violations.
    pub failures: Vec<String>,
    /// Values that must repeat exactly for a seed: result hashes and
    /// deterministic work counts.
    exact: BTreeMap<String, String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metric that must repeat exactly for a seed.
    pub fn exact_metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric(name, value, unit);
        self.exact(name, &value.to_string());
    }

    /// Records a value that must be the same every time it is recorded
    /// for this seed, in this run and in every other run of this build.
    pub fn exact(&mut self, key: &str, value: &str) {
        match self.exact.get(key) {
            Some(seen) if seen != value => self
                .failures
                .push(format!("determinism: {key} is {value}, earlier {seen}")),
            Some(_) => {}
            None => {
                self.exact.insert(key.to_string(), value.to_string());
            }
        }
    }

    /// Records the tracing overhead from the untraced and traced main
    /// times of the same work.
    pub fn overhead(&mut self, untraced: f64, traced: f64) {
        self.metric(
            "telemetry.overhead_frac",
            (traced - untraced) / untraced,
            "fraction",
        );
    }
}

/// Runs `setup` several times (at least five, and for at least a
/// second) and returns the median seconds with the last result.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last;
    loop {
        let t = Instant::now();
        last = setup();
        times.push(stats::secs(t));
        if times.len() >= 25 || (times.len() >= 5 && stats::secs(start) >= 1.0) {
            return (stats::median(&times), last);
        }
        drop(last);
    }
}

/// Compares this run's exact values with earlier runs of the same build,
/// workload and seed in `.perfbench-state/`, then records the union.
fn check_against_earlier_runs(args: &Args, report: &mut Report) {
    let Ok(exe) = std::env::current_exe().and_then(std::fs::read) else {
        return;
    };
    let build = stats::Fnv::default().bytes(&exe).hex();
    let dir = PathBuf::from(".perfbench-state");
    let path = dir.join(format!("{build}-{}-{}.txt", args.workload, args.seed));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for (key, value) in &report.exact {
        match known.get(key) {
            Some(seen) if seen != value => report.failures.push(format!(
                "determinism: {key} is {value}, an earlier run of seed {} had {seen}",
                args.seed
            )),
            Some(_) => {}
            None => {
                known.insert(key.clone(), value.clone());
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .is_err()
    {
        eprintln!("perfbench: cannot record exact values in {}", dir.display());
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload attack|train|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rhb_par::set_global_threads(threads);
    let mut report = match args.workload.as_str() {
        "attack" => attack::run(&args),
        "train" => train::run(&args),
        _ => serve::run(&args),
    };
    check_against_earlier_runs(&args, &mut report);
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.failures.push(format!("metric {name} is {value}"));
        }
    }

    for (key, value) in &report.exact {
        println!("exact {key} {value}");
    }
    let mut fields = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    for f in &report.failures {
        eprintln!("FAILED {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    std::process::exit(i32::from(!correct));
}
