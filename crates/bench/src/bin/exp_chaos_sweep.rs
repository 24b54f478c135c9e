//! Chaos-mode robustness sweep: runs the smoke pipeline (tiny ResNet-20,
//! CFT+BR) under increasing DRAM fault-injection rates and reports how
//! the adaptive recovery driver degrades.
//!
//! ```text
//! exp_chaos_sweep [--rates 0.0,0.1,0.2,0.4] [--seed <chaos-seed>]
//!                 [--assert-degraded]
//! ```
//!
//! At rate `r` the injected chaos mix is: flip flakiness `r`, row
//! eviction `r/4`, ECC masking `r/2`, templating false positives and
//! negatives `r/20` each — so the dominant fault is a hammered bit that
//! refuses to land, the case the retry/fallback machinery targets.
//!
//! `--assert-degraded` turns the sweep into a CI gate: every non-zero
//! rate must classify as `degraded` (never `failed`) with at least one
//! target realized through recovery, and a zero rate must stay `full`.
//! Violations exit 1. Artifacts land in `results/runs/` for
//! `rhb-report show`.

use rhb_bench::artifact::smoke_run_with_chaos;
use rhb_dram::ChaosConfig;
use std::process::ExitCode;

const PIPELINE_SEED: u64 = 41;
const DEFAULT_CHAOS_SEED: u64 = 12;
const DEFAULT_RATES: &[f64] = &[0.0, 0.1, 0.2, 0.4];

const USAGE: &str =
    "usage: exp_chaos_sweep [--rates 0.0,0.1,0.2,0.4] [--seed <n>] [--assert-degraded]";

fn chaos_at(rate: f64, seed: u64) -> Option<ChaosConfig> {
    if rate <= 0.0 {
        return None;
    }
    Some(ChaosConfig {
        flip_flakiness: rate,
        eviction: rate / 4.0,
        ecc_correction: rate / 2.0,
        template_false_positive: rate / 20.0,
        template_false_negative: rate / 20.0,
        ..ChaosConfig::seeded(seed)
    })
}

fn main() -> ExitCode {
    let mut rates: Vec<f64> = DEFAULT_RATES.to_vec();
    let mut chaos_seed = DEFAULT_CHAOS_SEED;
    let mut assert_degraded = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rates" => {
                i += 1;
                let Some(raw) = args.get(i) else {
                    eprintln!("exp_chaos_sweep: --rates needs a comma-separated list\n{USAGE}");
                    return ExitCode::from(2);
                };
                match raw
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(parsed) if !parsed.is_empty() => rates = parsed,
                    _ => {
                        eprintln!("exp_chaos_sweep: bad --rates value '{raw}'\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(s) => chaos_seed = s,
                    None => {
                        eprintln!("exp_chaos_sweep: --seed needs an integer\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--assert-degraded" => assert_degraded = true,
            other => {
                eprintln!("exp_chaos_sweep: unknown flag '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    rhb_bench::telemetry::init();
    rhb_telemetry::progress!(
        "chaos sweep over {} rate(s), chaos seed {chaos_seed}…",
        rates.len()
    );

    println!(
        "{:>6}  {:>10}  {:>6}  {:>7}  {:>9}  {:>10}  {:>9}  {:>7}  {:>8}",
        "rate",
        "class",
        "faults",
        "retries",
        "fallbacks",
        "recovered",
        "verified",
        "ASR",
        "time_ms"
    );

    let mut violations = Vec::new();
    for &rate in &rates {
        let exp = format!("chaos_{rate:.2}");
        let artifact = smoke_run_with_chaos(&exp, PIPELINE_SEED, chaos_at(rate, chaos_seed));
        let r = &artifact.recovery;
        println!(
            "{:>6.2}  {:>10}  {:>6}  {:>7}  {:>9}  {:>10}  {:>6}/{:<2}  {:>6.1}%  {:>8}",
            rate,
            r.classification,
            r.injected_faults,
            r.retries,
            r.fallbacks,
            r.recovered_flips,
            r.verified_flips,
            artifact.metrics.n_targets,
            artifact.metrics.asr * 100.0,
            artifact.metrics.attack_time_ms,
        );
        match artifact.save(std::path::Path::new("results/runs")) {
            Ok(path) => eprintln!("exp_chaos_sweep: artifact written to {}", path.display()),
            Err(e) => eprintln!("exp_chaos_sweep: results/runs: {e}"),
        }

        if assert_degraded {
            if rate <= 0.0 {
                if r.classification != "full" {
                    violations.push(format!(
                        "rate {rate:.2}: expected a full run without chaos, got {}",
                        r.classification
                    ));
                }
            } else {
                if r.classification != "degraded" {
                    violations.push(format!(
                        "rate {rate:.2}: expected degraded, got {}",
                        r.classification
                    ));
                }
                if r.recovered_flips == 0 {
                    violations.push(format!(
                        "rate {rate:.2}: recovery realized no targets (retries {}, fallbacks {})",
                        r.retries, r.fallbacks
                    ));
                }
            }
        }
    }
    rhb_bench::telemetry::finish();

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("exp_chaos_sweep: FAIL {v}");
        }
        return ExitCode::FAILURE;
    }
    if assert_degraded {
        eprintln!("exp_chaos_sweep: degradation contract holds for all rates");
    }
    ExitCode::SUCCESS
}
