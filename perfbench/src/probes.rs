//! Per-layer probes: timed calls into each crate's public functions on
//! the workload's own victim, plus the roll-up of a traced body.
//!
//! Every probe runs under a benchmark span named `<layer>.<call>`, so
//! the probes also give every layer a self time on every workload.

use crate::serve::{Session, PROBE_SECONDS};
use crate::stats::{median_ms, time_ms};
use crate::trace::{self, Capture};
use crate::Report;
use rhb_core::cft::{self, CftConfig};
use rhb_core::groupsel::WEIGHTS_PER_PAGE;
use rhb_core::metrics::{attack_success_rate, r_match, test_accuracy};
use rhb_core::objective::Objective;
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_dram::hammer::HammerConfig;
use rhb_dram::online::{OnlineAttack, TargetBit};
use rhb_dram::profile::FlipProfile;
use rhb_dram::ChipModel;
use rhb_models::data::Dataset;
use rhb_models::train::{TrainConfig, Trainer};
use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::network::Network;
use rhb_nn::optim::{Sgd, SgdConfig};
use rhb_nn::weightfile::{ByteLocation, WeightFile};
use std::hint::black_box;

/// The target label every workload uses (the repository's convention).
pub const TARGET_LABEL: usize = 2;

/// Samples in the CFT batch (`CftConfig::cft_br`'s default).
const CFT_BATCH: usize = 64;

/// Side of the serial GEMM references.
const GEMM_N: usize = 192;

/// What the probes run against.
pub struct Subject<'a> {
    /// The workload's deployed victim. Probes leave its weights as they
    /// found them.
    pub net: &'a mut dyn Network,
    /// The victim's zoo configuration.
    pub config: ZooConfig,
    /// The victim's test split (the attacker's data).
    pub test: &'a Dataset,
    /// The workload's trigger: the learned one after an attack, the
    /// paper-default black square otherwise.
    pub trigger: Trigger,
    /// Bits the DRAM probe places and hammers, and the weight file they
    /// are flips of.
    pub targets: (WeightFile, Vec<TargetBit>),
    /// ASR after the attack's offline phase; without an attack, the
    /// trigger's ASR on the victim as deployed.
    pub offline_asr: Option<f64>,
    /// The attack's own `r_match`, %; without an attack, the DRAM
    /// probe's.
    pub r_match: Option<f64>,
    /// The workload seed.
    pub seed: u64,
}

/// The paper-default black-square trigger for a dataset.
pub fn paper_trigger(data: &Dataset) -> Trigger {
    Trigger::black_square(TriggerMask::paper_default(data.channels(), data.side()))
}

/// The serve workload's flip storm as DRAM targets: one bit per page
/// of the victim's weight file.
pub fn storm_targets(net: &dyn Network, seed: u64) -> (WeightFile, Vec<TargetBit>) {
    let file = WeightFile::from_network(net);
    let targets = crate::serve::storm(&file, seed)
        .into_iter()
        .map(|(loc, bit)| TargetBit {
            file_page: loc.page,
            bit_offset: loc.offset * 8 + bit as usize,
            zero_to_one: file.read(loc).expect("storm byte is in range") >> bit & 1 == 0,
        })
        .collect();
    (file, targets)
}

/// Runs every probe traced, then reports the per-layer metrics of the
/// traced `body` capture together with the probes'. A workload that does
/// not serve passes a deployed victim for a short serving session, at
/// rates measured on that victim, which supplies its `serve.*` metrics.
pub fn run(
    mut s: Subject<'_>,
    body: Capture,
    serve_probe: Option<Box<dyn Network>>,
    report: &mut Report,
) {
    let serve_probe = serve_probe.map(|mut net| {
        let session = Session::measured(net.as_mut(), s.test, PROBE_SECONDS, s.seed);
        eprintln!(
            "perfbench: serving probe at {:.0} requests/s nominal, {:.0} overload, queue {}",
            session.nominal_rps, session.overload_rps, session.queue_capacity
        );
        let plan = crate::serve::plan(&session, s.test.len());
        (net, plan)
    });
    let ((probe_metrics, served), probes) = trace::traced(|| {
        let metrics = probe_all(&mut s);
        let served = serve_probe.map(|(net, plan)| crate::serve::run_session(net, s.test, &plan));
        (metrics, served)
    });
    if let Some(o) = served {
        report.failures.extend(o.failures.iter().cloned());
        crate::serve::layer_metrics(&o, report);
    }
    for (name, value, unit) in probe_metrics {
        if unit == "count" {
            report.exact_metric(name, value, unit);
        } else {
            report.metric(name, value, unit);
        }
    }

    // Counts come from the body alone: the probes' own work is fixed.
    let (gemm_calls, gemm_flops) = body.observed("nn/gemm_flops");
    report.exact_metric("nn.gemm_calls", gemm_calls as f64, "count");
    report.exact_metric("nn.gemm_flops", gemm_flops, "flop");
    report.exact_metric(
        "core.cft_iterations",
        body.counter("core/cft/iterations") as f64,
        "count",
    );
    report.exact_metric(
        "core.bit_reductions",
        body.counter("core/cft/bit_reductions") as f64,
        "count",
    );
    let steps_per_epoch = s.config.train_samples.div_ceil(32) as u64;
    report.exact_metric(
        "models.train_steps",
        (body.counter("models/epochs_trained") * steps_per_epoch) as f64,
        "count",
    );
    let tasks = body.counter("par/tasks_total");
    let on_workers = body.counter("par/tasks_on_workers");
    let busy = body.counter_sum("par/worker/", "/busy_us");
    let idle = body.counter_sum("par/worker/", "/idle_us");
    report.metric("par.tasks_total", tasks as f64, "count");
    report.metric("par.tasks_on_workers", on_workers as f64, "count");
    report.metric(
        "par.worker_utilization",
        busy as f64 / (busy + idle).max(1) as f64,
        "fraction",
    );

    // Self times: body and probes together, so every layer has one on
    // every workload. The pool has no spans; its self time is the time
    // its workers spent running tasks.
    let mut selfs = body.self_seconds();
    for (layer, secs) in probes.self_seconds() {
        *selfs.get_mut(layer).expect("known layer") += secs;
    }
    let probe_busy = probes.counter_sum("par/worker/", "/busy_us");
    *selfs.get_mut("par").expect("par layer") = (busy + probe_busy) as f64 / 1e6;
    for (layer, secs) in selfs {
        report.metric(&format!("{layer}.self_s"), secs, "s");
    }
}

fn probe_all(s: &mut Subject<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let mut m = Vec::new();
    nn_probes(s, &mut m);
    core_probes(s, &mut m);
    models_probes(s, &mut m);
    dram_probes(s, &mut m);
    m
}

/// How `net`'s `Mode::Int8` logits compare with its f32 reference
/// (`Mode::Eval`) over the test split.
#[derive(Debug, Clone, Copy)]
pub struct Parity {
    /// Samples whose int8 argmax differs from the f32 one.
    pub disagree: usize,
    /// Largest int8-vs-f32 difference of any logit; infinite when an
    /// int8 logit is not finite.
    pub envelope: f32,
    /// Largest f32 top-two margin among the disagreeing samples;
    /// infinite when int8 picked a class other than the f32 runner-up
    /// or the margin is not a number.
    pub worst_margin: f32,
}

/// Compares `net`'s two engines over the test split.
pub fn int8_parity(net: &mut dyn Network, test: &Dataset) -> Parity {
    let idx: Vec<usize> = (0..test.len()).collect();
    let mut p = Parity {
        disagree: 0,
        envelope: 0.0,
        worst_margin: 0.0,
    };
    for chunk in idx.chunks(64) {
        let (x, _) = test.batch(chunk);
        let f = net.forward(&x, Mode::Eval);
        let i = net.forward(&x, Mode::Int8);
        let classes = f.shape().dim(1);
        for (rf, ri) in f.data().chunks(classes).zip(i.data().chunks(classes)) {
            for (a, b) in rf.iter().zip(ri) {
                let d = (a - b).abs();
                p.envelope = p.envelope.max(if d.is_nan() { f32::INFINITY } else { d });
            }
            let top = argmax(rf);
            if argmax(ri) == top {
                continue;
            }
            p.disagree += 1;
            let mut rest = rf.to_vec();
            rest[top] = f32::NEG_INFINITY;
            let runner_up = argmax(&rest);
            let margin = rf[top] - rf[runner_up];
            p.worst_margin = p
                .worst_margin
                .max(if argmax(ri) == runner_up && !margin.is_nan() {
                    margin
                } else {
                    f32::INFINITY
                });
        }
    }
    p
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

fn nn_probes(s: &mut Subject<'_>, m: &mut Vec<(&'static str, f64, &'static str)>) {
    let net = &mut *s.net;
    let (x, y) = s.test.head(CFT_BATCH.min(s.test.len()));
    let reps = 3;
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    for _ in 0..reps {
        net.zero_grad();
        let (logits, f) = time_ms(|| {
            let _span = trace::span("nn.frozen_fwd");
            net.forward(&x, Mode::Frozen)
        });
        let grad = cross_entropy(&logits, &y).grad_logits;
        let (_, b) = time_ms(|| {
            let _span = trace::span("nn.frozen_bwd");
            net.backward(&grad)
        });
        fwd.push(f);
        bwd.push(b);
    }
    net.zero_grad();
    m.push(("nn.frozen_fwd_ms", crate::stats::median(&fwd), "ms"));
    m.push(("nn.frozen_bwd_ms", crate::stats::median(&bwd), "ms"));

    // Whole-test-split eval on each engine, serially (BENCH_6's floor
    // compares the two at one thread).
    let threads = rhb_par::current_threads();
    rhb_par::set_global_threads(1);
    let idx: Vec<usize> = (0..s.test.len()).collect();
    let mut eval_ms = |mode: Mode, name: &'static str| {
        median_ms(reps, || {
            let _span = trace::span(name);
            for chunk in idx.chunks(64) {
                let (xb, _) = s.test.batch(chunk);
                net.forward(&xb, mode);
            }
        })
    };
    let f32_eval = eval_ms(Mode::Eval, "nn.eval_fwd");
    let i8_eval = eval_ms(Mode::Int8, "nn.int8_eval");
    rhb_par::set_global_threads(threads);
    m.push(("nn.eval_fwd_ms", f32_eval, "ms"));
    m.push(("nn.int8_eval_ms", i8_eval, "ms"));
    m.push(("nn.int8_eval_speedup", f32_eval / i8_eval, "ratio"));
    let parity = int8_parity(net, s.test);
    m.push(("nn.int8_argmax_disagree", parity.disagree as f64, "count"));

    // Int8 at the server's max_batch, warm caches.
    let (xi, _) = s.test.head(16.min(s.test.len()));
    net.forward(&xi, Mode::Int8);
    let warm = median_ms(5, || {
        let _span = trace::span("nn.int8_fwd");
        net.forward(&xi, Mode::Int8);
    });
    m.push(("nn.int8_fwd_ms", warm, "ms"));

    // A flip: reload the weight file, then the first int8 forward pays
    // the repack of every packed-weight cache.
    let base = WeightFile::from_network(net);
    let mut flipped = base.clone();
    flipped
        .flip_bit(ByteLocation { page: 0, offset: 0 }, 0)
        .expect("page 0 exists");
    let mut load = Vec::new();
    let mut repack = Vec::new();
    for file in [&flipped, &base, &flipped, &base, &flipped, &base] {
        let (_, l) = time_ms(|| {
            let _span = trace::span("nn.load_into");
            file.load_into(net).expect("weight file matches the victim");
        });
        let (_, first) = time_ms(|| {
            let _span = trace::span("nn.int8_fwd");
            net.forward(&xi, Mode::Int8);
        });
        load.push(l);
        repack.push(first - warm);
    }
    m.push(("nn.load_into_ms", crate::stats::median(&load), "ms"));
    m.push(("nn.repack_ms", crate::stats::median(&repack), "ms"));

    // Training kernels: batch 32 on a fresh victim of the same config.
    let mut rng = Rng::seed_from(s.seed);
    let mut fresh = build(Architecture::ResNet20, &s.config, &mut rng);
    let mut opt = Sgd::new(fresh.as_ref(), SgdConfig::default());
    let (xt, yt) = s.test.head(32.min(s.test.len()));
    let mut tf = Vec::new();
    let mut tb = Vec::new();
    let mut ts = Vec::new();
    for rep in 0..=reps {
        fresh.zero_grad();
        let (logits, f) = time_ms(|| {
            let _span = trace::span("nn.train_fwd");
            fresh.forward(&xt, Mode::Train)
        });
        let grad = cross_entropy(&logits, &yt).grad_logits;
        let (_, b) = time_ms(|| {
            let _span = trace::span("nn.train_bwd");
            fresh.backward(&grad)
        });
        let (_, st) = time_ms(|| {
            let _span = trace::span("nn.sgd_step");
            opt.step(fresh.as_mut())
        });
        // The first step grows the scratch arenas; it is not timed.
        if rep > 0 {
            tf.push(f);
            tb.push(b);
            ts.push(st);
        }
    }
    m.push(("nn.train_fwd_ms", crate::stats::median(&tf), "ms"));
    m.push(("nn.train_bwd_ms", crate::stats::median(&tb), "ms"));
    m.push(("nn.sgd_step_ms", crate::stats::median(&ts), "ms"));

    let (f32_ms, i8_ms) = gemm_reference_ms();
    m.push(("nn.gemm_f32_ms", f32_ms, "ms"));
    m.push(("nn.gemm_i8_ms", i8_ms, "ms"));
    m.push(("nn.gemm_i8_speedup", f32_ms / i8_ms, "ratio"));
}

/// Serial `GEMM_N`³ f32 and i8 GEMMs on fixed pseudo-random operands.
fn gemm_reference_ms() -> (f64, f64) {
    let _span = trace::span("nn.gemm_reference");
    let n = GEMM_N;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a: Vec<f32> = (0..n * n)
        .map(|_| (next() >> 40) as f32 / 16_777_216.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..n * n)
        .map(|_| (next() >> 40) as f32 / 16_777_216.0 - 0.5)
        .collect();
    let ai: Vec<i8> = (0..n * n).map(|_| (next() >> 56) as i8).collect();
    let bi: Vec<i8> = (0..n * n).map(|_| (next() >> 56) as i8).collect();
    let mut c = vec![0.0f32; n * n];
    let mut ci = vec![0i32; n * n];
    rhb_nn::gemm::gemm_serial(&a, &b, &mut c, n, n, n);
    rhb_nn::gemm_i8::gemm_i8_serial(&ai, &bi, &mut ci, n, n, n);
    // black_box keeps the compiler from treating the outputs as dead.
    let f = median_ms(7, || {
        rhb_nn::gemm::gemm_serial(black_box(&a), black_box(&b), black_box(&mut c), n, n, n)
    });
    let i = median_ms(7, || {
        rhb_nn::gemm_i8::gemm_i8_serial(black_box(&ai), black_box(&bi), black_box(&mut ci), n, n, n)
    });
    (f, i)
}

fn core_probes(s: &mut Subject<'_>, m: &mut Vec<(&'static str, f64, &'static str)>) {
    let net = &mut *s.net;
    let (x, y) = s.test.head(CFT_BATCH.min(s.test.len()));
    let objective = Objective::balanced(TARGET_LABEL);
    let eval = median_ms(3, || {
        let _span = trace::span("core.objective_eval");
        net.zero_grad();
        objective.evaluate(net, &x, &y, &s.trigger);
    });
    net.zero_grad();
    m.push(("core.objective_eval_ms", eval, "ms"));

    // One CFT+BR iteration through `cft::run`, restoring the
    // victim after each.
    let base = WeightFile::from_network(net);
    let pages = net.num_params().div_ceil(WEIGHTS_PER_PAGE);
    let config = CftConfig {
        iterations: 1,
        bit_reduction_period: 1,
        ..CftConfig::cft_br(pages.clamp(1, 100), TARGET_LABEL)
    };
    let iter = median_ms(3, || {
        let _span = trace::span("core.cft_iter");
        cft::run(net, s.test, &config, s.trigger.clone());
        base.load_into(net).expect("weight file matches the victim");
    });
    m.push(("core.cft_iter_ms", iter, "ms"));

    let mut acc = 0.0;
    let mut asr = 0.0;
    let eval_ms = median_ms(3, || {
        let _span = trace::span("core.evaluation");
        acc = test_accuracy(net, s.test);
        asr = attack_success_rate(net, s.test, &s.trigger, TARGET_LABEL);
    });
    m.push(("core.eval_s", eval_ms / 1e3, "s"));
    m.push(("core.asr_pct", asr * 100.0, "%"));
    m.push((
        "core.offline_asr_pct",
        s.offline_asr.unwrap_or(asr) * 100.0,
        "%",
    ));
    m.push(("core.clean_acc_pct", acc * 100.0, "%"));
}

fn models_probes(s: &mut Subject<'_>, m: &mut Vec<(&'static str, f64, &'static str)>) {
    let cfg = s.config;
    let dataset = median_ms(3, || {
        let _span = trace::span("models.dataset");
        dataset_for(Architecture::ResNet20, &cfg, s.seed);
    });
    m.push(("models.dataset_s", dataset / 1e3, "s"));
    let (train, _) = dataset_for(Architecture::ResNet20, &cfg, s.seed);
    let mut rng = Rng::seed_from(s.seed);
    let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 1,
            ..crate::train::train_config(&cfg)
        },
        s.seed,
    );
    let (_, epoch) = time_ms(|| {
        let _span = trace::span("models.epoch");
        trainer.fit(net.as_mut(), &train)
    });
    m.push(("models.epoch_s", epoch / 1e3, "s"));
}

fn dram_probes(s: &mut Subject<'_>, m: &mut Vec<(&'static str, f64, &'static str)>) {
    let (file, targets) = &s.targets;
    let mut bytes = file.bytes().to_vec();
    let (profile, template) = time_ms(|| {
        let _span = trace::span("dram.template");
        FlipProfile::template(ChipModel::online_ddr4(), 8192, s.seed)
    });
    let cells = profile.cells().len();
    let mut attack = OnlineAttack::new(profile, HammerConfig::default())
        .expect("online pattern is valid for the chip")
        .with_extended_templating(4_000_000, s.seed ^ 0xd1a5);
    let (matching, match_ms) = time_ms(|| {
        let _span = trace::span("dram.match");
        attack.match_targets(file.num_pages(), targets)
    });
    let (_, place_ms) = time_ms(|| {
        let _span = trace::span("dram.place");
        attack.place(file.num_pages(), &matching)
    });
    let (hammer, hammer_ms) = time_ms(|| {
        let _span = trace::span("dram.hammer");
        attack.hammer(&mut bytes, &matching)
    });
    let intended = hammer.applied.iter().filter(|f| f.intended).count();
    m.push(("dram.template_s", template / 1e3, "s"));
    m.push(("dram.match_s", match_ms / 1e3, "s"));
    m.push(("dram.place_s", place_ms / 1e3, "s"));
    m.push(("dram.hammer_s", hammer_ms / 1e3, "s"));
    m.push(("dram.cells_templated", cells as f64, "count"));
    m.push((
        "dram.targets_matched",
        matching.matched.len() as f64,
        "count",
    ));
    m.push(("dram.bits_flipped", intended as f64, "count"));
    m.push((
        "dram.accidental_flips",
        hammer.accidental_in_target_pages as f64,
        "count",
    ));
    let probed = r_match(
        matching.matched.len(),
        targets.len().max(1),
        hammer.accidental_in_target_pages,
    );
    m.push(("dram.r_match_pct", s.r_match.unwrap_or(probed), "%"));
}
