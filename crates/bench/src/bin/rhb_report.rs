//! Flight-recorder CLI: inspect and replay pipeline runs.
//!
//! ```text
//! rhb-report show <run.json>                 # render one artifact
//! rhb-report watch <host:port> [--once] [--check] [--interval-ms N]
//!                                            # live terminal view of a
//!                                            # running attack's
//!                                            # RHB_OBS_ADDR endpoint
//! rhb-report timeline <timeline-dir>         # replay a flight-recorder
//!                                            # timeline: per-metric
//!                                            # sparklines, phase
//!                                            # boundaries, alert markers
//! rhb-report postmortem <timeline-dir> [--last N] [--require-alert a,b]
//!                                            # reconstruct the snapshots
//!                                            # before the first anomaly
//!                                            # and diff them against a
//!                                            # healthy baseline window
//! rhb-report serve <run.json> [--check]     # victim-serving view of an
//!                                            # exp_serve_attack artifact:
//!                                            # ASR / clean-accuracy
//!                                            # trajectory sparklines,
//!                                            # time-to-activation,
//!                                            # tail-latency interference;
//!                                            # --check exits 1 unless the
//!                                            # backdoor activated and ASR
//!                                            # crossed threshold
//! rhb-report campaign <campaign-dir> [--require-complete]
//!                     [--require-retried] [--forbid-duplicates]
//!                                            # replay a campaign's
//!                                            # checkpoint journal:
//!                                            # classification roll-up,
//!                                            # retry/quarantine audit;
//!                                            # the --require/--forbid
//!                                            # flags turn it into the
//!                                            # kill-resume CI gate
//! ```
//!
//! Timeline directories are what `RHB_OBS_RECORD=<run-id>` writes under
//! `results/timelines/`. `postmortem --require-alert` takes
//! comma-separated substrings and exits 1 unless at least one fired
//! alert's rule name matches one of them (the CI chaos gate). Exit
//! codes: 0 ok, 1 check failed / required alert missing, 2 usage or I/O
//! error. Timing and performance floors live in the repository
//! benchmark, `perfbench/` (see `perfbench/README.md`).

use rhb_bench::artifact::RunArtifact;
use rhb_bench::json;
use rhb_bench::timeline::{sparkline, Timeline};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: rhb-report <show <run.json> | watch <host:port> [--once] [--check] [--interval-ms N] | timeline <timeline-dir> | postmortem <timeline-dir> [--last N] [--require-alert substr[,substr...]] | serve <run.json> [--check] | campaign <campaign-dir> [--require-complete] [--require-retried] [--forbid-duplicates]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") => match args.get(1) {
            Some(path) => show(Path::new(path)),
            None => usage_error("show needs a run file"),
        },
        Some("watch") => match args.get(1) {
            Some(addr) => match WatchOpts::parse(&args[2..]) {
                Ok(opts) => watch(addr, &opts),
                Err(code) => code,
            },
            None => usage_error("watch needs the endpoint address (host:port)"),
        },
        Some("timeline") => match args.get(1) {
            Some(dir) => timeline_cmd(Path::new(dir)),
            None => usage_error("timeline needs a timeline directory"),
        },
        Some("postmortem") => match args.get(1) {
            Some(dir) => match PostmortemOpts::parse(&args[2..]) {
                Ok(opts) => postmortem_cmd(Path::new(dir), &opts),
                Err(code) => code,
            },
            None => usage_error("postmortem needs a timeline directory"),
        },
        Some("serve") => match args.get(1) {
            Some(path) => {
                let mut check = false;
                for flag in &args[2..] {
                    match flag.as_str() {
                        "--check" => check = true,
                        other => return usage_error(&format!("unknown serve flag '{other}'")),
                    }
                }
                serve_cmd(Path::new(path), check)
            }
            None => usage_error("serve needs a run file"),
        },
        Some("campaign") => match args.get(1) {
            Some(dir) => match CampaignOpts::parse(&args[2..]) {
                Ok(opts) => campaign_cmd(Path::new(dir), &opts),
                Err(code) => code,
            },
            None => usage_error("campaign needs a campaign directory"),
        },
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
        None => usage_error("missing subcommand"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("rhb-report: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<RunArtifact, ExitCode> {
    RunArtifact::load(path).map_err(|e| {
        eprintln!("rhb-report: {e}");
        ExitCode::from(2)
    })
}

fn show(path: &Path) -> ExitCode {
    let a = match load(path) {
        Ok(a) => a,
        Err(code) => return code,
    };
    print!("{}", render(&a));
    ExitCode::SUCCESS
}

fn render(a: &RunArtifact) -> String {
    let mut out = String::new();
    let c = &a.config;
    let m = &a.metrics;
    out.push_str(&format!(
        "run {} ({}): {} / {} / {} scale, seed {}\n",
        a.exp,
        rhb_bench::artifact::format_timestamp(a.created_unix),
        c.model,
        c.method,
        c.scale,
        c.seed
    ));
    out.push_str(&format!(
        "  attack: target label {}, {} profile pages, {}-sided hammer, budget {}\n",
        c.target_label, c.profile_pages, c.hammer_sides, c.flip_budget
    ));
    out.push_str(&format!(
        "  metrics: base acc {:.2}%  clean acc {:.2}%  ASR {:.2}% (offline {:.2}%)\n\
         \x20          n_flip {}  targets {}/{} matched  r_match {:.2}%  attack time {} ms\n",
        m.base_accuracy * 100.0,
        m.clean_accuracy * 100.0,
        m.asr * 100.0,
        m.offline_asr * 100.0,
        m.n_flip,
        m.n_matched,
        m.n_targets,
        m.r_match,
        m.attack_time_ms
    ));
    out.push_str(&format!(
        "  ledger: {} records, flip success {:.1}%, recovered {:.1}%\n",
        a.flips.len(),
        a.flip_success_rate() * 100.0,
        a.verified_fraction() * 100.0
    ));
    let r = &a.recovery;
    if r.classification != "full" || r.injected_faults > 0 {
        out.push_str(&format!(
            "  recovery: {} run — {} faults injected, {} retries, {} fallbacks, \
             {} re-templating rounds, {} targets recovered, +{} ms\n",
            r.classification,
            r.injected_faults,
            r.retries,
            r.fallbacks,
            r.retemplate_rounds,
            r.recovered_flips,
            r.recovery_time_ms
        ));
    }
    if !a.alerts.is_empty() {
        out.push_str("  alerts:\n");
        for alert in &a.alerts {
            out.push_str(&format!(
                "    [{}] {} @seq {} ({}): value {:.4} vs threshold {:.4} — {}\n",
                alert.severity,
                alert.rule,
                alert.seq,
                if alert.phase.is_empty() {
                    "(idle)"
                } else {
                    &alert.phase
                },
                alert.value,
                alert.threshold,
                alert.message
            ));
        }
    }
    out.push_str("  phases:\n");
    for p in &a.phases {
        out.push_str(&format!(
            "    {:<28} {:>4}x {:>12} µs total {:>12} µs mean\n",
            p.name, p.count, p.total_us, p.mean_us
        ));
    }
    if !a.histograms.is_empty() {
        out.push_str("  histograms:\n");
        for h in &a.histograms {
            out.push_str(&hist_row(
                h.name.as_str(),
                h.count,
                h.mean,
                h.p50,
                h.p95,
                h.p99,
                h.max,
            ));
        }
    }
    out
}

/// One histogram table row — `show` (persisted artifacts) and `watch`
/// (live /status digests) share this formatter so the two views line up.
fn hist_row(name: &str, count: u64, mean: f64, p50: f64, p95: f64, p99: f64, max: f64) -> String {
    format!(
        "    {name:<32} n={count:<7} mean {mean:<9.3}  p50 {p50:<9.3}  p95 {p95:<9.3}  p99 {p99:<9.3}  max {max:<9.3}\n"
    )
}

// ---------------------------------------------------------------------------
// watch: live terminal view of a running attack's RHB_OBS_ADDR endpoint.
// ---------------------------------------------------------------------------

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

struct WatchOpts {
    /// Render one frame and exit instead of refreshing forever.
    once: bool,
    /// Also scrape /metrics and validate the exposition + required
    /// metric families and status keys (the CI smoke gate).
    check: bool,
    interval: Duration,
}

impl WatchOpts {
    fn parse(args: &[String]) -> Result<WatchOpts, ExitCode> {
        let mut opts = WatchOpts {
            once: false,
            check: false,
            interval: Duration::from_millis(1000),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--once" => opts.once = true,
                "--check" => opts.check = true,
                "--interval-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) => opts.interval = Duration::from_millis(ms.max(50)),
                    None => return Err(usage_error("--interval-ms needs a number")),
                },
                other => return Err(usage_error(&format!("unknown watch flag '{other}'"))),
            }
        }
        Ok(opts)
    }
}

fn watch(addr: &str, opts: &WatchOpts) -> ExitCode {
    let mut first = true;
    loop {
        let frame = match watch_frame(addr, opts.check) {
            Ok(frame) => frame,
            Err(msg) => {
                eprintln!("rhb-report: {addr}: {msg}");
                return ExitCode::FAILURE;
            }
        };
        if opts.once {
            print!("{frame}");
            return ExitCode::SUCCESS;
        }
        if !first {
            // ANSI clear screen + home for the refreshing dashboard.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        first = false;
        std::thread::sleep(opts.interval);
    }
}

/// Scrapes /status (and /metrics when checking) and renders one frame.
/// Returns an error string on unreachable endpoint, malformed JSON, or
/// (in check mode) an invalid exposition / missing metric families.
fn watch_frame(addr: &str, check: bool) -> Result<String, String> {
    let (code, body) =
        rhb_obs::http_get(addr, "/status", SCRAPE_TIMEOUT).map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("/status answered HTTP {code}"));
    }
    let status = json::parse(&body).map_err(|e| format!("/status is not JSON: {e}"))?;
    for key in ["phase", "classification", "ledger", "health", "histograms"] {
        if status.get(key).is_none() {
            return Err(format!("/status is missing the '{key}' key"));
        }
    }
    let mut out = render_status(addr, &status);
    match rhb_obs::http_get(addr, "/alerts", SCRAPE_TIMEOUT) {
        Ok((200, body)) => {
            let alerts = json::parse(&body).map_err(|e| format!("/alerts is not JSON: {e}"))?;
            out.push_str(&render_alerts(&alerts));
        }
        Ok((code, _)) if check => return Err(format!("/alerts answered HTTP {code}")),
        Err(e) if check => return Err(format!("/alerts unreachable: {e}")),
        // Outside check mode, tolerate an older endpoint without /alerts.
        _ => {}
    }
    if check {
        let (code, text) =
            rhb_obs::http_get(addr, "/metrics", SCRAPE_TIMEOUT).map_err(|e| e.to_string())?;
        if code != 200 {
            return Err(format!("/metrics answered HTTP {code}"));
        }
        rhb_obs::text::validate(&text).map_err(|e| format!("/metrics exposition invalid: {e}"))?;
        rhb_obs::text::require_families(
            &text,
            &["rhb_core_health_eta_s", "rhb_par_", "rhb_nn_eval_"],
        )?;
        out.push_str("  check: /metrics exposition valid, required families present\n");
    }
    Ok(out)
}

/// Renders the `/alerts` JSON block for the watch dashboard: a one-line
/// totals summary plus the currently-active rules, if any.
fn render_alerts(alerts: &json::JsonValue) -> String {
    let num = |key: &str| {
        alerts
            .get(key)
            .and_then(json::JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let active = alerts
        .get("active")
        .and_then(json::JsonValue::as_array)
        .map(<[json::JsonValue]>::len)
        .unwrap_or(0);
    let mut out = format!(
        "  alerts: {active} active, {} fired / {} resolved total\n",
        num("fired_total"),
        num("resolved_total")
    );
    if let Some(rules) = alerts.get("rules").and_then(json::JsonValue::as_array) {
        for rule in rules {
            if rule.get("active").and_then(json::JsonValue::as_bool) != Some(true) {
                continue;
            }
            let s = |key: &str| {
                rule.get(key)
                    .and_then(json::JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            out.push_str(&format!(
                "    [{}] {} — {}\n",
                s("severity"),
                s("name"),
                s("condition")
            ));
        }
    }
    out
}

fn render_status(addr: &str, status: &json::JsonValue) -> String {
    let str_of = |key: &str| {
        status
            .get(key)
            .and_then(json::JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let f64_of = |v: Option<&json::JsonValue>| v.and_then(json::JsonValue::as_f64);
    let mut out = String::new();
    let uptime = f64_of(status.get("uptime_s")).unwrap_or(0.0);
    let phase = str_of("phase");
    out.push_str(&format!(
        "watching {addr}  up {uptime:.1}s  phase {}  class {}\n",
        if phase.is_empty() { "(idle)" } else { &phase },
        str_of("classification"),
    ));
    if let Some(health) = status.get("health") {
        let gauge = |k: &str| f64_of(health.get(k));
        out.push_str(&format!(
            "  health: eta {}  progress {}  hammer {}  templating {}  stalls {}\n",
            gauge("eta_s").map_or("?".into(), |v| format!("{v:.1}s")),
            gauge("progress").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            gauge("hammer_success_rate").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            gauge("templating_yield").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            f64_of(health.get("stalls")).unwrap_or(0.0),
        ));
    }
    if let Some(ledger) = status.get("ledger").and_then(json::JsonValue::as_object) {
        out.push_str("  ledger:");
        for (key, v) in ledger {
            if let Some(n) = v.as_f64() {
                if n > 0.0 {
                    out.push_str(&format!("  {key} {n}"));
                }
            }
        }
        out.push('\n');
    }
    if let Some(rates) = status.get("rates").and_then(json::JsonValue::as_object) {
        if !rates.is_empty() {
            out.push_str("  rates (events/s):\n");
            for (name, v) in rates {
                if let Some(r) = v.as_f64() {
                    out.push_str(&format!("    {name:<40} {r:>10.1}\n"));
                }
            }
        }
    }
    if let Some(hists) = status.get("histograms").and_then(json::JsonValue::as_array) {
        if !hists.is_empty() {
            out.push_str("  histograms:\n");
            for h in hists {
                let f = |k: &str| f64_of(h.get(k)).unwrap_or(0.0);
                out.push_str(&hist_row(
                    h.get("name")
                        .and_then(json::JsonValue::as_str)
                        .unwrap_or("?"),
                    f("count") as u64,
                    f("mean"),
                    f("p50"),
                    f("p95"),
                    f("p99"),
                    f("max"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// timeline / postmortem: replay a flight-recorder timeline directory.
// ---------------------------------------------------------------------------

/// Gauges worth a sparkline row whenever the timeline recorded them.
const TIMELINE_GAUGES: &[&str] = &[
    "core/run_class",
    "core/health/progress",
    "core/health/hammer_success_rate",
    "core/health/templating_yield",
    "core/health/eta_s",
    "core/alerts/active",
];

/// How many counter-rate sparklines `timeline` renders (busiest first).
const TIMELINE_COUNTER_ROWS: usize = 8;

/// Sparkline width in cells; longer series are bucketed down to this.
const SPARK_WIDTH: usize = 64;

/// Buckets a series down to at most `width` cells (mean of the finite
/// values per bucket; a bucket with none stays NaN and renders as a gap).
fn downsample(series: &[f64], width: usize) -> Vec<f64> {
    if series.len() <= width {
        return series.to_vec();
    }
    (0..width)
        .map(|b| {
            let start = b * series.len() / width;
            let end = ((b + 1) * series.len() / width).max(start + 1);
            let finite: Vec<f64> = series[start..end]
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect();
            if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        })
        .collect()
}

fn load_timeline(dir: &Path) -> Result<Timeline, ExitCode> {
    Timeline::load(dir).map_err(|e| {
        eprintln!("rhb-report: {e}");
        ExitCode::from(2)
    })
}

fn timeline_cmd(dir: &Path) -> ExitCode {
    let t = match load_timeline(dir) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print!("{}", render_timeline(&t));
    ExitCode::SUCCESS
}

fn render_timeline(t: &Timeline) -> String {
    let mut out = String::new();
    let span = t
        .points
        .last()
        .map(|p| p.uptime_s - t.points.first().map(|f| f.uptime_s).unwrap_or(0.0))
        .unwrap_or(0.0);
    out.push_str(&format!(
        "timeline {} — {} snapshots over {span:.1}s, {} alert events, {} segment(s)\n",
        t.run_id,
        t.points.len(),
        t.alerts.len(),
        t.segments
    ));
    if t.skipped_lines > 0 {
        out.push_str(&format!(
            "  (skipped {} unparseable line(s) — truncated or foreign records)\n",
            t.skipped_lines
        ));
    }
    let boundaries = t.phase_boundaries();
    if !boundaries.is_empty() {
        out.push_str("  phases:\n");
        for (i, phase) in &boundaries {
            let label = if phase.is_empty() { "(idle)" } else { phase };
            out.push_str(&format!(
                "    @{i:<4} {:>8.2}s  {label}\n",
                t.points[*i].uptime_s
            ));
        }
    }
    out.push_str("  gauges:\n");
    for name in TIMELINE_GAUGES {
        let series = t.gauge_series(name);
        if series.iter().all(|v| v.is_nan()) {
            continue;
        }
        let last = series.iter().rev().find(|v| v.is_finite()).copied();
        out.push_str(&format!(
            "    {name:<36} {}  last {}\n",
            sparkline(&downsample(&series, SPARK_WIDTH)),
            last.map_or("?".into(), |v| format!("{v:.3}"))
        ));
    }
    let busiest = t.busiest_counters();
    if !busiest.is_empty() {
        out.push_str("  counter rates (events/s):\n");
        for (name, total) in busiest.iter().take(TIMELINE_COUNTER_ROWS) {
            let series = t.counter_rate_series(name);
            let peak = series.iter().copied().fold(0.0_f64, f64::max);
            out.push_str(&format!(
                "    {name:<36} {}  peak {peak:.1}/s  Δ{total}\n",
                sparkline(&downsample(&series, SPARK_WIDTH))
            ));
        }
        if busiest.len() > TIMELINE_COUNTER_ROWS {
            out.push_str(&format!(
                "    ... {} more counters moved\n",
                busiest.len() - TIMELINE_COUNTER_ROWS
            ));
        }
    }
    if !t.alerts.is_empty() {
        out.push_str("  alert markers:\n");
        for a in &t.alerts {
            out.push_str(&format!(
                "    {:>8.2}s @seq {:<4} [{}] {} {} — {}\n",
                a.uptime_s, a.seq, a.severity, a.rule, a.state, a.message
            ));
        }
    }
    out
}

struct PostmortemOpts {
    /// Window width N: the last N snapshots before the anomaly.
    last: usize,
    /// Comma-separated substrings; at least one fired alert's rule name
    /// must contain one of them or the command exits 1.
    require_alert: Vec<String>,
}

impl PostmortemOpts {
    fn parse(args: &[String]) -> Result<PostmortemOpts, ExitCode> {
        let mut opts = PostmortemOpts {
            last: 5,
            require_alert: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--last" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.last = n,
                    _ => return Err(usage_error("--last needs a positive number")),
                },
                "--require-alert" => match it.next() {
                    Some(list) => opts.require_alert.extend(
                        list.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    ),
                    None => return Err(usage_error("--require-alert needs substrings")),
                },
                other => return Err(usage_error(&format!("unknown postmortem flag '{other}'"))),
            }
        }
        Ok(opts)
    }
}

fn postmortem_cmd(dir: &Path, opts: &PostmortemOpts) -> ExitCode {
    let t = match load_timeline(dir) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let Some(pm) = t.postmortem(opts.last) else {
        eprintln!("rhb-report: {}: timeline holds no snapshots", dir.display());
        return ExitCode::from(2);
    };
    let mut out = format!("postmortem {} ({} snapshots)\n", t.run_id, t.points.len());
    match &pm.anomaly {
        Some(anomaly) => {
            let p = &t.points[anomaly.index];
            out.push_str(&format!(
                "  anomaly @seq {} ({:.2}s, phase {}): {}\n",
                p.seq,
                p.uptime_s,
                if p.phase.is_empty() {
                    "(idle)"
                } else {
                    &p.phase
                },
                anomaly.describe()
            ));
        }
        None => out.push_str("  no anomaly detected — run looks healthy; diffing run tail\n"),
    }
    out.push_str(&format!(
        "  window: snapshots [{}..{}], baseline [{}..{})\n",
        pm.window.0, pm.window.1, pm.baseline.0, pm.baseline.1
    ));
    let (start, end) = pm.window;
    out.push_str("  snapshots into the anomaly:\n");
    for p in &t.points[start..=end] {
        let class = p
            .gauge("core/run_class")
            .map_or("-".into(), |v| format!("{v:.0}"));
        out.push_str(&format!(
            "    @seq {:<4} {:>8.2}s  phase {:<24} class {class}  stallsΔ {}\n",
            p.seq,
            p.uptime_s,
            if p.phase.is_empty() {
                "(idle)"
            } else {
                &p.phase
            },
            p.counter_delta("core/health/stalls"),
        ));
    }
    if pm.baseline.0 < pm.baseline.1 && !pm.diffs.is_empty() {
        out.push_str("  movement vs healthy baseline (largest first):\n");
        for d in pm.diffs.iter().take(10) {
            let change = if d.before.abs() < 1e-9 {
                "(new)".to_string()
            } else if d.after.abs() < 1e-9 {
                "(gone)".to_string()
            } else {
                format!("({:+.0}%)", d.relative_change() * 100.0)
            };
            out.push_str(&format!(
                "    {:<40} {:<12} {:>12.3} -> {:<12.3} {change}\n",
                d.name, d.kind, d.before, d.after
            ));
        }
    }
    let fired = t.fired_alerts();
    if !fired.is_empty() {
        out.push_str("  fired alerts:\n");
        for a in &fired {
            out.push_str(&format!(
                "    {:>8.2}s [{}] {} — {}\n",
                a.uptime_s, a.severity, a.rule, a.message
            ));
        }
    }
    print!("{out}");
    if !opts.require_alert.is_empty() {
        let matched = fired.iter().any(|a| {
            opts.require_alert
                .iter()
                .any(|needle| a.rule.contains(needle.as_str()))
        });
        if !matched {
            eprintln!(
                "rhb-report: no fired alert matched --require-alert {}",
                opts.require_alert.join(",")
            );
            return ExitCode::FAILURE;
        }
        println!(
            "  required alert present ({})",
            opts.require_alert.join(",")
        );
    }
    ExitCode::SUCCESS
}

// --- serve ------------------------------------------------------------------

/// Renders the victim-serving block of an `exp_serve_attack` artifact:
/// trajectory sparklines across observation windows, time-to-activation,
/// and the tail-latency interference the hammering threads caused.
/// `--check` is the CI gate: exit 1 unless the run actually served
/// traffic, the backdoor activated after the flip window opened, and the
/// per-window ASR crossed the experiment's threshold.
fn serve_cmd(path: &Path, check: bool) -> ExitCode {
    let a = match load(path) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let Some(s) = &a.serve else {
        eprintln!(
            "rhb-report: {}: artifact has no serve block (not an exp_serve_attack run?)",
            path.display()
        );
        return ExitCode::from(2);
    };
    print!("{}", render_serve(&a.exp, s));
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failures = Vec::new();
    if s.requests == 0 || s.completed == 0 {
        failures.push(format!(
            "no traffic served (requests {}, completed {})",
            s.requests, s.completed
        ));
    }
    if s.first_activation_us.is_none() {
        failures.push("backdoor never activated (no triggered request hit the target)".into());
    }
    if s.asr_cross_us.is_none() {
        failures.push("windowed ASR never crossed the experiment threshold".into());
    }
    if failures.is_empty() {
        println!("  check: traffic served, backdoor activated, ASR crossed threshold");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("rhb-report: serve check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

fn render_serve(exp: &str, s: &rhb_bench::artifact::ServeSummary) -> String {
    let ms = |us: u64| us as f64 / 1e3;
    let mut out = format!(
        "serve {} — {} requests ({} admitted, {} shed), {} completed\n",
        exp, s.requests, s.admitted, s.shed, s.completed
    );
    out.push_str(&format!(
        "  flip window: {:.1} ms .. {:.1} ms (trajectory windows {:.1} ms wide)\n",
        ms(s.flip_start_us),
        ms(s.flip_end_us),
        ms(s.window_us)
    ));
    out.push_str(&format!(
        "  activation: first triggered hit {}  ASR crossed {}\n",
        s.first_activation_us
            .map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
        s.asr_cross_us
            .map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
    ));
    let asr: Vec<f64> = s
        .windows
        .iter()
        .map(|w| w.asr().unwrap_or(f64::NAN))
        .collect();
    let clean: Vec<f64> = s
        .windows
        .iter()
        .map(|w| w.clean_accuracy().unwrap_or(f64::NAN))
        .collect();
    if !s.windows.is_empty() {
        let last = |series: &[f64]| {
            series
                .iter()
                .rev()
                .find(|v| v.is_finite())
                .map_or("?".into(), |v| format!("{:.1}%", v * 100.0))
        };
        out.push_str(&format!(
            "    {:<18} {}  last {}\n",
            "ASR",
            sparkline(&downsample(&asr, SPARK_WIDTH)),
            last(&asr)
        ));
        out.push_str(&format!(
            "    {:<18} {}  last {}\n",
            "clean accuracy",
            sparkline(&downsample(&clean, SPARK_WIDTH)),
            last(&clean)
        ));
    }
    match (s.baseline_p99_s, s.attacked_p99_s) {
        (Some(b), Some(h)) => out.push_str(&format!(
            "  latency p99: {:.3} ms before flips, {:.3} ms under attack ({:+.0}%)\n",
            b * 1e3,
            h * 1e3,
            (h / b.max(1e-12) - 1.0) * 100.0
        )),
        (b, h) => out.push_str(&format!(
            "  latency p99: {} before flips, {} under attack\n",
            b.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
            h.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
        )),
    }
    out
}

// --- campaign ---------------------------------------------------------------

#[derive(Default)]
struct CampaignOpts {
    require_complete: bool,
    require_retried: bool,
    forbid_duplicates: bool,
}

impl CampaignOpts {
    fn parse(rest: &[String]) -> Result<CampaignOpts, ExitCode> {
        let mut opts = CampaignOpts::default();
        for arg in rest {
            match arg.as_str() {
                "--require-complete" => opts.require_complete = true,
                "--require-retried" => opts.require_retried = true,
                "--forbid-duplicates" => opts.forbid_duplicates = true,
                other => return Err(usage_error(&format!("campaign: unknown flag '{other}'"))),
            }
        }
        Ok(opts)
    }
}

/// Replays a campaign's checkpoint journal and prints the aggregate:
/// classification roll-up, retry and quarantine audit, journal health.
/// The `--require-*` / `--forbid-*` flags make it a blocking gate.
fn campaign_cmd(dir: &Path, opts: &CampaignOpts) -> ExitCode {
    let store = match rhb_campaign::CampaignStore::load(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("rhb-report: campaign {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if store.total_runs == 0 && store.state.completed.is_empty() {
        eprintln!(
            "rhb-report: campaign {}: no journal found (is this a campaign directory?)",
            dir.display()
        );
        return ExitCode::from(2);
    }

    let c = &store.counts;
    let mut out = String::new();
    out.push_str(&format!("campaign {} — {}\n", store.name, dir.display()));
    out.push_str(&format!(
        "  grid: {} runs, {} settled ({})\n",
        store.total_runs,
        c.settled(),
        if store.is_complete() {
            "complete"
        } else {
            "INCOMPLETE"
        }
    ));
    out.push_str(&format!(
        "  classes: {:>3} full  {:>3} degraded  {:>3} failed  {:>3} timed_out  {:>3} quarantined\n",
        c.full, c.degraded, c.failed, c.timed_out, c.quarantined
    ));
    out.push_str(&format!(
        "  retries: {} runs needed >1 attempt; {} ms total backoff charged\n",
        store.retried, store.total_backoff_ms
    ));
    if c.completed() > 0 {
        out.push_str(&format!(
            "  results: mean ASR {:.4}, total attack time {} ms\n",
            store.mean_asr, store.total_attack_time_ms
        ));
    }
    out.push_str(&format!(
        "  journal: {} duplicate done lines, {} unparsable lines\n",
        store.duplicate_done, store.skipped_lines
    ));
    if !store.state.quarantined.is_empty() {
        let mut ids: Vec<&String> = store.state.quarantined.iter().collect();
        ids.sort();
        out.push_str("  quarantined runs:\n");
        for id in ids {
            out.push_str(&format!("    {} ({})\n", id, store.retired_class(id)));
        }
    }
    print!("{out}");

    let mut ok = true;
    if opts.require_complete && !store.is_complete() {
        eprintln!(
            "rhb-report: campaign incomplete: {}/{} settled",
            c.settled(),
            store.total_runs
        );
        ok = false;
    }
    if opts.require_retried && store.retried < 1 {
        eprintln!("rhb-report: no retried run recorded (--require-retried)");
        ok = false;
    }
    if opts.forbid_duplicates && store.duplicate_done > 0 {
        eprintln!(
            "rhb-report: {} duplicate done lines (--forbid-duplicates)",
            store.duplicate_done
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
