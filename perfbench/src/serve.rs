//! The `serve` workload: an open-loop session against a live
//! `VictimServer` while a flip storm rewrites its weight pages.
//!
//! One generator thread submits a seeded Poisson schedule in two
//! phases, `nominal` then `overload`, spinning until each request is due. The calling thread applies
//! one seeded bit flip per weight-file page, spread over the middle
//! third of the nominal phase, through `with_model` →
//! `WeightFile::flip_bit` + `load_into`. Every latency is measured from
//! the request's due time, so a stall also charges the requests queued
//! behind it.

use crate::stats::{median, median_ms, quantile, Fnv};
use crate::trace;
use crate::Report;
use rhb_models::data::Dataset;
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_nn::layer::Mode;
use rhb_nn::network::{argmax_classes, Network};
use rhb_nn::weightfile::{ByteLocation, WeightFile, PAGE_SIZE};
use rhb_serve::{Schedule, ServeConfig, TrafficConfig, VictimServer};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// A request counts toward goodput only when it completes within this
/// many milliseconds of its due time.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// A session whose generator ran later than this at p99 during the
/// nominal phase is invalid.
pub const GEN_LATE_BOUND_MS: f64 = 10.0;

/// Width of the windows whose medians give the session's p50 and
/// goodput, µs: a median over windows keeps a burst of host noise in one
/// window from moving the figure.
const WINDOW_US: u64 = 500_000;

/// How long a full queue takes to drain at full batches, ms: well within
/// [`LATENCY_LIMIT_MS`], so that admitted overload requests can still
/// count toward goodput.
const QUEUE_DRAIN_MS: f64 = 16.0;

/// How long before a request's due time the generator stops sleeping
/// and spins, to absorb the sleep's overshoot.
const SPIN: Duration = Duration::from_micros(300);

/// Length of the serving session that probes the serve layer in the
/// traced runs of the other workloads, seconds.
pub const PROBE_SECONDS: f64 = 3.0;

/// Shape of one serving session.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// Offered rate of the nominal phase, requests per second.
    pub nominal_rps: f64,
    /// Offered rate of the overload phase.
    pub overload_rps: f64,
    /// Length of the nominal phase, seconds.
    pub nominal_s: f64,
    /// Length of the overload phase, seconds.
    pub overload_s: f64,
    /// Admission bound of the served queue, requests: what the worker
    /// drains in [`QUEUE_DRAIN_MS`] at full batches.
    pub queue_capacity: usize,
    /// Seed of the schedule and of the flip storm.
    pub seed: u64,
}

impl Session {
    /// The `serve` workload's session: `seconds` of traffic against the
    /// tiny victim, 60% nominal at 4,000 requests/s, then 40% overload at
    /// 22,000 requests/s. The rates are constants so that a seed always
    /// sends the same requests; see `README.md` for how they were sized.
    pub fn tiny(seconds: f64, seed: u64) -> Session {
        Session {
            nominal_rps: 4_000.0,
            overload_rps: 22_000.0,
            nominal_s: seconds * 0.6,
            overload_s: seconds * 0.4,
            queue_capacity: 256,
            seed,
        }
    }

    /// A session of the same shape at rates derived from `net`'s own warm
    /// `Mode::Int8` forwards over a one-thread pool, as the server runs
    /// them: nominal at 0.4x the rate of single-image forwards, overload
    /// at 1.35x the rate of full batches. The factors give the tiny
    /// victim about the [`Session::tiny`] rates; the rest of a request's
    /// cost (queueing, copying, waking the worker) is taken to scale the
    /// same way.
    pub fn measured(net: &mut dyn Network, test: &Dataset, seconds: f64, seed: u64) -> Session {
        let max_batch = ServeConfig::for_input(test.channels(), test.side()).max_batch;
        let threads = rhb_par::current_threads();
        rhb_par::set_global_threads(1);
        let mut per_image_ms = |n: usize| {
            let (x, _) = test.head(n.min(test.len()));
            net.forward(&x, Mode::Int8);
            median_ms(15, || {
                net.forward(&x, Mode::Int8);
            }) / x.shape().dim(0) as f64
        };
        let single = per_image_ms(1);
        let full = per_image_ms(max_batch);
        rhb_par::set_global_threads(threads);
        Session {
            nominal_rps: 0.4e3 / single,
            overload_rps: 1.35e3 / full,
            queue_capacity: (QUEUE_DRAIN_MS / full).round() as usize,
            ..Session::tiny(seconds, seed)
        }
    }
}

/// What a session measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub sent: usize,
    pub shed: usize,
    /// Nominal-phase requests shed or never answered.
    pub nominal_failed: usize,
    pub completed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub flip_p99_ms: f64,
    pub goodput_rps: f64,
    pub failed_frac: f64,
    pub gen_late_p99_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub batch_size_mean: f64,
    /// Worker busy time (batch compute) per completed request, ms.
    pub busy_ms_per_request: f64,
    pub clean_acc: f64,
    /// Hash of the final served weight file.
    pub weights_hash: String,
    /// Correctness violations.
    pub failures: Vec<String>,
}

/// One bit per weight-file page, at a seeded byte (inside the weights)
/// and bit.
pub fn storm(file: &WeightFile, seed: u64) -> Vec<(ByteLocation, u8)> {
    let mut state = seed ^ 0x5eed_f11b;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let weights = file.num_weights();
    (0..file.num_pages())
        .map(|page| {
            let used = (weights - page * PAGE_SIZE).min(PAGE_SIZE);
            let offset = (next() % used as u64) as usize;
            (ByteLocation { page, offset }, (next() % 8) as u8)
        })
        .collect()
}

/// A session's materialized schedule: `(due offset µs, test sample)` per
/// request in submission order, nominal phase first.
#[derive(Debug, Clone)]
pub struct Plan {
    session: Session,
    requests: Vec<(u64, usize)>,
    nominal_sent: usize,
    nominal_us: u64,
}

/// Generates the schedule of `session` over a test set of `samples`.
pub fn plan(session: &Session, samples: usize) -> Plan {
    let phase = |seed: u64, rate: f64, seconds: f64| {
        Schedule::generate(
            &TrafficConfig {
                seed,
                requests: (rate * seconds) as usize,
                rate_rps: rate,
                trigger_fraction: 0.0,
            },
            samples,
        )
    };
    let nominal = phase(session.seed, session.nominal_rps, session.nominal_s);
    let overload = phase(
        session.seed ^ 0x0e71_0ad0,
        session.overload_rps,
        session.overload_s,
    );
    let nominal_us = (session.nominal_s * 1e6) as u64;
    let requests = nominal
        .specs()
        .iter()
        .map(|s| (s.arrival_us, s.sample_idx))
        .chain(
            overload
                .specs()
                .iter()
                .map(|s| (nominal_us + s.arrival_us, s.sample_idx)),
        )
        .collect();
    Plan {
        session: *session,
        requests,
        nominal_sent: nominal.len(),
        nominal_us,
    }
}

/// Runs one planned session against `net` (deployed), serving images of
/// `test`. The server runs one worker over a one-thread `rhb-par` pool;
/// the previous pool size is restored before returning.
pub fn run_session(net: Box<dyn Network>, test: &Dataset, plan: &Plan) -> Outcome {
    let threads = rhb_par::current_threads();
    rhb_par::set_global_threads(1);
    let out = session_inner(net, test, plan);
    rhb_par::set_global_threads(threads);
    out
}

fn session_inner(net: Box<dyn Network>, test: &Dataset, plan: &Plan) -> Outcome {
    let _span = trace::span("serve.session");
    let session = &plan.session;
    let requests = &plan.requests;
    let (nominal_sent, nominal_us) = (plan.nominal_sent, plan.nominal_us);
    let base = WeightFile::from_network(net.as_ref());
    let flips = storm(&base, session.seed);
    let window = (nominal_us / 3, 2 * nominal_us / 3);
    let flip_gap = (window.1 - window.0) / flips.len().max(1) as u64;

    let server = VictimServer::start(
        net,
        ServeConfig {
            workers: 1,
            queue_capacity: session.queue_capacity,
            ..ServeConfig::for_input(test.channels(), test.side())
        },
    );
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut flip_file = base.clone();
    let mut last_flip_us = 0u64;
    let (late_ns, shed_seqs) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut late = Vec::with_capacity(requests.len());
            let mut shed = Vec::new();
            for (seq, &(due_us, sample)) in requests.iter().enumerate() {
                let image = test.image(sample).to_vec();
                let due = t0 + Duration::from_micros(due_us);
                let mut now = Instant::now();
                // Sleep through long gaps, leaving the core to the
                // server, and spin the last stretch for precision.
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                    now = Instant::now();
                }
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                late.push(now.duration_since(due).as_nanos() as u64);
                if !server.submit(seq, image, test.label(sample), false) {
                    shed.push(seq);
                }
            }
            (late, shed)
        });
        for (i, &(loc, bit)) in flips.iter().enumerate() {
            let due = t0 + Duration::from_micros(window.0 + flip_gap * i as u64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            server.with_model(|net| {
                flip_file
                    .flip_bit(loc, bit)
                    .expect("storm flip is in range");
                let _span = trace::span("nn.load_into");
                flip_file
                    .load_into(net)
                    .expect("weight file matches the served model");
            });
            last_flip_us = t0.elapsed().as_micros() as u64;
        }
        generator.join().expect("generator thread panicked")
    });
    // The reference the post-storm predictions must match, computed on
    // the served model itself once the generator is done.
    let (final_file, offline) = server.with_model(|net| {
        let idx: Vec<usize> = (0..test.len()).collect();
        let mut offline = Vec::with_capacity(test.len());
        for chunk in idx.chunks(64) {
            let (x, _) = test.batch(chunk);
            offline.extend(argmax_classes(&net.forward(&x, Mode::Int8)));
        }
        (WeightFile::from_network(net), offline)
    });
    let log = server.shutdown();

    let mut out = Outcome {
        sent: requests.len(),
        shed: shed_seqs.len(),
        completed: log.completions.len(),
        weights_hash: Fnv::default().bytes(final_file.bytes()).hex(),
        ..Outcome::default()
    };

    // Every request is answered or shed, exactly once.
    let shed: HashSet<usize> = shed_seqs.iter().copied().collect();
    let mut seen = vec![false; requests.len()];
    for c in &log.completions {
        if c.seq >= requests.len() || seen[c.seq] || shed.contains(&c.seq) {
            out.failures
                .push(format!("serve: request {} answered twice", c.seq));
        } else {
            seen[c.seq] = true;
        }
    }
    let missing = (0..requests.len())
        .filter(|s| !seen[*s] && !shed.contains(s))
        .count();
    if missing > 0 {
        out.failures.push(format!(
            "serve: {missing} requests neither completed nor shed"
        ));
    }

    // The final weights are the base XOR the storm.
    let mut expected = base.clone();
    for &(loc, bit) in &flips {
        expected.flip_bit(loc, bit).expect("storm flip is in range");
    }
    if expected.bytes() != final_file.bytes() {
        out.failures
            .push("serve: final weights differ from base XOR storm".into());
    }

    let mut nominal_ms = Vec::new();
    let mut nominal_windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut good_windows: BTreeMap<u64, f64> = (nominal_us / WINDOW_US
        ..(nominal_us + (session.overload_s * 1e6) as u64) / WINDOW_US)
        .map(|w| (w, 0.0))
        .collect();
    let mut flip_ms = Vec::new();
    let mut queue_ms = Vec::with_capacity(log.completions.len());
    // Batch service time by completion instant (one worker).
    let mut batches: BTreeMap<u64, f64> = BTreeMap::new();
    let (mut clean_total, mut clean_correct) = (0usize, 0usize);
    let mut mismatched = 0usize;
    for c in &log.completions {
        let (due_us, sample) = requests[c.seq];
        // Submission-to-answer time plus how late the generator
        // submitted: the latency from the due time, at ns resolution.
        let latency_ms = c.latency_s * 1e3 + late_ns[c.seq] as f64 / 1e6;
        queue_ms.push(c.queue_wait_s * 1e3);
        let service = batches.entry(c.done_us).or_default();
        *service = service.max(c.latency_s - c.queue_wait_s);
        if c.seq >= nominal_sent {
            if latency_ms <= LATENCY_LIMIT_MS {
                if let Some(g) = good_windows.get_mut(&(due_us / WINDOW_US)) {
                    *g += 1.0;
                }
            }
        } else if (window.0..window.1).contains(&due_us) {
            flip_ms.push(latency_ms);
        } else {
            nominal_ms.push(latency_ms);
            if due_us < nominal_us {
                nominal_windows
                    .entry(due_us / WINDOW_US)
                    .or_default()
                    .push(latency_ms);
            }
            if due_us < window.0 {
                clean_total += 1;
                clean_correct += usize::from(c.predicted == c.true_label);
            }
        }
        if due_us > last_flip_us && c.predicted != offline[sample] {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        out.failures.push(format!(
            "serve: {mismatched} post-storm predictions differ from an offline int8 eval"
        ));
    }
    // The bound applies where the latency figures come from: the
    // nominal phase. In overload both threads are saturated, and a late
    // submission only reorders arrivals into a full queue.
    let late_ms: Vec<f64> = late_ns[..nominal_sent]
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    out.gen_late_p99_ms = quantile(&late_ms, 0.99);
    if out.gen_late_p99_ms > GEN_LATE_BOUND_MS {
        out.failures.push(format!(
            "serve: generator ran {:.3} ms late at p99 (bound {GEN_LATE_BOUND_MS} ms); run invalid",
            out.gen_late_p99_ms
        ));
    }
    out.nominal_failed = (0..nominal_sent).filter(|s| !seen[*s]).count();
    let window_p50: Vec<f64> = nominal_windows.values().map(|v| median(v)).collect();
    out.p50_ms = median(&window_p50);
    out.p99_ms = quantile(&nominal_ms, 0.99);
    out.flip_p99_ms = quantile(&flip_ms, 0.99);
    let window_s = WINDOW_US as f64 / 1e6;
    let goodput: Vec<f64> = good_windows.values().map(|g| g / window_s).collect();
    out.goodput_rps = median(&goodput);
    out.failed_frac = (out.sent - out.completed) as f64 / out.sent.max(1) as f64;
    out.queue_wait_p99_ms = quantile(&queue_ms, 0.99);
    out.batch_size_mean = out.completed as f64 / batches.len().max(1) as f64;
    let busy_s: f64 = batches.values().sum();
    out.busy_ms_per_request = busy_s * 1e3 / out.completed.max(1) as f64;
    out.clean_acc = clean_correct as f64 / clean_total.max(1) as f64;
    out
}

/// Per-layer metrics of the serve layer from one session.
pub fn layer_metrics(o: &Outcome, m: &mut Report) {
    m.metric("serve.p50_ms", o.p50_ms, "ms");
    m.metric("serve.p99_ms", o.p99_ms, "ms");
    m.metric("serve.flip_p99_ms", o.flip_p99_ms, "ms");
    m.metric("serve.goodput_rps", o.goodput_rps, "1/s");
    m.metric("serve.failed_frac", o.failed_frac, "fraction");
    m.metric("serve.gen_late_p99_ms", o.gen_late_p99_ms, "ms");
    m.metric("serve.queue_wait_p99_ms", o.queue_wait_p99_ms, "ms");
    m.metric("serve.batch_size_mean", o.batch_size_mean, "requests");
    m.metric("serve.busy_ms_per_request", o.busy_ms_per_request, "ms");
    m.metric("serve.clean_acc_pct", o.clean_acc * 100.0, "%");
    m.metric("serve.shed", o.shed as f64, "count");
    m.metric("serve.sent", o.sent as f64, "count");
    m.metric("serve.completed", o.completed as f64, "count");
}

struct Setup {
    net: Box<dyn Network>,
    test: Dataset,
    plan: Plan,
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), seed);
    let plan = plan(&Session::tiny(seconds, seed), model.test_data.len());
    Setup {
        net: model.net,
        test: model.test_data,
        plan,
    }
}

/// Runs the `serve` workload.
pub fn run(args: &crate::Args) -> Report {
    let mut report = Report::default();
    let (setup_s, s) = crate::repeated_setup(|| setup(args.seed, args.seconds));
    if !args.trace {
        let o = run_session(s.net, &s.test, &s.plan);
        report.attempted = o.sent as u64;
        report.failed = o.nominal_failed as u64;
        report.exact("serve.weights", &o.weights_hash);
        report.exact("serve.sent", &o.sent.to_string());
        report.failures.extend(o.failures.iter().cloned());
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        report.metric("latency_ms", o.p50_ms, "ms");
        return report;
    }
    // Traced run: the session untraced, then traced on an identical
    // victim, then the layer probes on a third.
    let victim = || pretrained(Architecture::ResNet20, &ZooConfig::tiny(), args.seed).net;
    let untraced = run_session(s.net, &s.test, &s.plan);
    let second = victim();
    let (traced, capture) = trace::traced(|| run_session(second, &s.test, &s.plan));
    report.attempted = (untraced.sent + traced.sent) as u64;
    report.failed = (untraced.nominal_failed + traced.nominal_failed) as u64;
    for o in [&untraced, &traced] {
        report.failures.extend(o.failures.iter().cloned());
        report.exact("serve.weights", &o.weights_hash);
        report.exact("serve.sent", &o.sent.to_string());
    }
    report.overhead(untraced.busy_ms_per_request, traced.busy_ms_per_request);
    layer_metrics(&traced, &mut report);
    // How many flips land between two batches depends on timing.
    report.metric(
        "nn.int8_repacks",
        capture.counter("nn/int8_weight_repacks") as f64,
        "count",
    );
    let mut net = victim();
    let targets = crate::probes::storm_targets(net.as_ref(), args.seed);
    let subject = crate::probes::Subject {
        net: net.as_mut(),
        config: ZooConfig::tiny(),
        test: &s.test,
        trigger: crate::probes::paper_trigger(&s.test),
        targets,
        offline_asr: None,
        r_match: None,
        seed: args.seed,
    };
    crate::probes::run(subject, capture, None, &mut report);
    report
}
