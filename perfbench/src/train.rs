//! The `train` workload: victim training of ResNet-20 at
//! `ZooConfig::standard()` — 8 epochs of `Trainer::fit`, then deploy and
//! evaluate — with the recipe `rhb_models::zoo::pretrained` uses.

use crate::probes::{self, Subject};
use crate::stats::{min, secs, Fnv};
use crate::trace;
use crate::{Args, Report};
use rhb_models::data::Dataset;
use rhb_models::train::{evaluate, EpochStats, TrainConfig, Trainer};
use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::network::Network;
use rhb_nn::optim::{SgdConfig, StepLr};
use rhb_nn::weightfile::WeightFile;
use std::time::Instant;

/// The zoo's training recipe for a configuration.
pub fn train_config(cfg: &ZooConfig) -> TrainConfig {
    let sgd = SgdConfig {
        lr: 0.08,
        momentum: 0.9,
        weight_decay: 1e-4,
    };
    TrainConfig {
        epochs: cfg.epochs,
        batch_size: 32,
        sgd,
        schedule: Some(StepLr {
            base_lr: sgd.lr,
            step: cfg.epochs.div_ceil(2).max(1),
            gamma: 0.3,
        }),
    }
}

struct Unit {
    secs: f64,
    net: Box<dyn Network>,
    stats: Vec<EpochStats>,
    accuracy: f64,
}

fn unit(seed: u64, train: &Dataset, test: &Dataset) -> Unit {
    let cfg = ZooConfig::standard();
    let start = Instant::now();
    let _span = trace::span("models.victim");
    let mut net = build(Architecture::ResNet20, &cfg, &mut Rng::seed_from(seed));
    let stats = Trainer::new(train_config(&cfg), seed ^ 0xabcd).fit(net.as_mut(), train);
    net.deploy().expect("trained weights are finite");
    let accuracy = evaluate(net.as_mut(), test, 64);
    Unit {
        secs: secs(start),
        net,
        stats,
        accuracy,
    }
}

fn check(u: &mut Unit) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(s) = u.stats.iter().find(|s| !s.mean_loss.is_finite()) {
        failures.push(format!("train: epoch {} loss is {}", s.epoch, s.mean_loss));
    }
    let file = WeightFile::from_network(u.net.as_ref());
    let images = file.to_images().expect("deployed weight file decodes");
    let rebuilt = WeightFile::from_images(&images);
    file.load_into(u.net.as_mut())
        .expect("weight file matches the network");
    let reloaded = WeightFile::from_network(u.net.as_ref());
    if rebuilt.bytes() != file.bytes() || reloaded.bytes() != file.bytes() {
        failures.push("train: deployed weight file does not round-trip".into());
    }
    let chance = 1.0 / 10.0;
    if u.accuracy <= chance {
        failures.push(format!(
            "train: base accuracy {:.3} is not above chance",
            u.accuracy
        ));
    }
    failures
}

fn hash(u: &Unit) -> String {
    Fnv::default()
        .bytes(WeightFile::from_network(u.net.as_ref()).bytes())
        .hex()
}

/// Runs the `train` workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = ZooConfig::standard();
    let (setup_s, (train, test)) = crate::repeated_setup(|| {
        dataset_for(
            Architecture::ResNet20,
            &cfg,
            args.seed.wrapping_mul(0x9e37_79b9),
        )
    });
    let record = |u: &mut Unit, report: &mut Report| {
        report.attempted += 1;
        let failures = check(u);
        report.failed += u64::from(!failures.is_empty());
        report.failures.extend(failures);
        report.exact("train.weights", &hash(u));
    };

    if !args.trace {
        let start = Instant::now();
        // Only the times are kept, so memory does not grow with the
        // number of units.
        let mut times = Vec::new();
        while times.is_empty() || secs(start) < args.seconds {
            let mut u = unit(args.seed, &train, &test);
            record(&mut u, &mut report);
            times.push(u.secs * 1e3);
        }
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        report.metric("latency_ms", min(&times), "ms");
        return report;
    }

    let mut untraced = unit(args.seed, &train, &test);
    record(&mut untraced, &mut report);
    let (mut traced, capture) = trace::traced(|| unit(args.seed, &train, &test));
    record(&mut traced, &mut report);
    report.overhead(untraced.secs, traced.secs);
    report.exact_metric(
        "nn.int8_repacks",
        capture.counter("nn/int8_weight_repacks") as f64,
        "count",
    );
    let subject = Subject {
        net: untraced.net.as_mut(),
        config: cfg,
        test: &test,
        trigger: probes::paper_trigger(&test),
        targets: probes::storm_targets(traced.net.as_ref(), args.seed),
        offline_asr: None,
        r_match: None,
        seed: args.seed,
    };
    probes::run(subject, capture, Some(traced.net), &mut report);
    report
}
