//! The `attack` workload: one full CFT+BR `AttackPipeline` run
//! (`run_offline` then `run_online`) against the tiny ResNet-20 victim,
//! with the paper-default trigger patch and the default chip.
//!
//! Each unit restores the deployed victim from its weight file first,
//! so every unit of a run repeats the same attack and must reproduce it
//! bit for bit.

use crate::probes::{self, Subject, TARGET_LABEL};
use crate::stats::{min, secs, Fnv};
use crate::trace;
use crate::{Args, Report};
use rhb_core::pipeline::{
    reduce_to_one_per_page, AttackMethod, AttackPipeline, OfflineReport, OnlineReport,
};
use rhb_dram::online::TargetBit;
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_nn::weightfile::{ByteLocation, WeightFile};
use std::collections::HashSet;
use std::time::Instant;

struct Unit {
    secs: f64,
    offline: OfflineReport,
    online: OnlineReport,
    corrupted: WeightFile,
}

impl Unit {
    /// Hash of the attack's result: offline weights, trigger, loss
    /// history and the hammered weight file.
    fn hash(&self) -> String {
        let mut h = Fnv::default();
        h.bytes(self.offline.attacked_weights.bytes())
            .f32s(self.offline.trigger.pattern().data());
        for p in &self.offline.loss_history {
            h.bytes(&(p.iteration as u64).to_le_bytes())
                .f32s(&[p.loss])
                .bytes(&[u8::from(p.bit_reduced)]);
        }
        h.bytes(self.corrupted.bytes()).hex()
    }
}

fn unit(pipe: &mut AttackPipeline, base: &WeightFile) -> Unit {
    base.load_into(pipe.model.net.as_mut())
        .expect("base weight file matches the victim");
    let start = Instant::now();
    let (offline, online) = {
        let _span = trace::span("core.attack");
        let offline = pipe.run_offline(AttackMethod::CftBr);
        let online = pipe.run_online(&offline);
        (offline, online)
    };
    let secs = secs(start);
    Unit {
        secs,
        offline,
        online,
        corrupted: WeightFile::from_network(pipe.model.net.as_ref()),
    }
}

/// Checks a unit against the victim's weights before the attack and the
/// int8-vs-f32 logit envelope of that victim; returns the violations and
/// the unit's count of int8 vs f32 argmax disagreements.
fn check(
    u: &Unit,
    pipe: &mut AttackPipeline,
    base: &WeightFile,
    clean_envelope: f32,
) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    if u.online.r_match < 99.0 {
        failures.push(format!("attack: r_match {:.3}% < 99%", u.online.r_match));
    }
    // The served weights are the base XOR the ledger's realized targets
    // XOR accidental flips. The ledger records targets only; accidental
    // flips land in the targeted pages, and those that hit a page's
    // padding past the last weight never reach the network, so the
    // report's accidental count bounds the remainder from above.
    let mut pages = HashSet::new();
    let mut expected = base.clone();
    for rec in u.online.ledger.iter().filter(|r| r.flipped) {
        if !pages.insert(rec.page) {
            failures.push(format!("attack: page {} realized two targets", rec.page));
        }
        expected
            .flip_bit(ByteLocation::from_flat(rec.weight_idx), rec.bit)
            .expect("ledger flips are in range");
    }
    let stray = expected.diff(&u.corrupted);
    let targeted: HashSet<usize> = u.online.ledger.iter().map(|r| r.page).collect();
    if stray.len() > u.online.accidental
        || stray.iter().any(|t| !targeted.contains(&t.location.page))
    {
        failures.push(format!(
            "attack: hammered weights differ from base XOR ledger in {} bits, \
             {} accidental flips reported",
            stray.len(),
            u.online.accidental
        ));
    }
    // Int8 and f32 agree on argmax except on near-ties: the f32 top two
    // may swap only where their margin is within twice the int8 error
    // of the victim before the attack (the parity contract of
    // `crates/nn/tests/int8_parity.rs`, with an envelope that does not
    // come from the outputs under test).
    let parity = probes::int8_parity(pipe.model.net.as_mut(), &pipe.model.test_data);
    if parity.worst_margin > 2.0 * clean_envelope || !parity.envelope.is_finite() {
        failures.push(format!(
            "attack: int8 and f32 disagree on argmax for {} test samples, at f32 \
             margins up to {} (allowed: twice the clean envelope {clean_envelope}); \
             int8 envelope {}",
            parity.disagree, parity.worst_margin, parity.envelope
        ));
    }
    (failures, parity.disagree)
}

/// Runs the `attack` workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (setup_s, model) =
        crate::repeated_setup(|| pretrained(Architecture::ResNet20, &ZooConfig::tiny(), args.seed));
    let mut pipe = AttackPipeline::new(model, TARGET_LABEL, args.seed);
    let base = WeightFile::from_network(pipe.model.net.as_ref());
    let clean_envelope =
        probes::int8_parity(pipe.model.net.as_mut(), &pipe.model.test_data).envelope;
    if !clean_envelope.is_finite() {
        report
            .failures
            .push("attack: the victim's int8 logits are not finite before the attack".into());
    }
    let record = |u: &Unit, pipe: &mut AttackPipeline, report: &mut Report| {
        report.attempted += 1;
        let (failures, disagree) = check(u, pipe, &base, clean_envelope);
        report.failed += u64::from(!failures.is_empty());
        report.failures.extend(failures);
        report.exact("attack.result", &u.hash());
        report.exact("attack.int8_disagree", &disagree.to_string());
    };

    if !args.trace {
        let start = Instant::now();
        // Only the times are kept, so memory does not grow with the
        // number of units.
        let mut times = Vec::new();
        while times.is_empty() || secs(start) < args.seconds {
            let u = unit(&mut pipe, &base);
            record(&u, &mut pipe, &mut report);
            times.push(u.secs * 1e3);
        }
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        report.metric("latency_ms", min(&times), "ms");
        return report;
    }

    // Traced run: untraced, traced, then serially at one thread (the
    // bit-identical-at-any-thread-count contract), then the probes.
    let untraced = unit(&mut pipe, &base);
    record(&untraced, &mut pipe, &mut report);
    let (traced, capture) = trace::traced(|| unit(&mut pipe, &base));
    record(&traced, &mut pipe, &mut report);
    report.exact_metric(
        "nn.int8_repacks",
        capture.counter("nn/int8_weight_repacks") as f64,
        "count",
    );
    let threads = rhb_par::current_threads();
    rhb_par::set_global_threads(1);
    let serial = unit(&mut pipe, &base);
    rhb_par::set_global_threads(threads);
    record(&serial, &mut pipe, &mut report);
    report.overhead(untraced.secs, traced.secs);

    let targets: Vec<TargetBit> =
        reduce_to_one_per_page(&base.diff(&traced.offline.attacked_weights))
            .iter()
            .map(|t| TargetBit {
                file_page: t.location.page,
                bit_offset: t.location.offset * 8 + t.bit as usize,
                zero_to_one: t.zero_to_one,
            })
            .collect();
    let mut victim = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), args.seed).net;
    traced
        .corrupted
        .load_into(victim.as_mut())
        .expect("weight file matches the victim");
    let subject = Subject {
        net: pipe.model.net.as_mut(),
        config: ZooConfig::tiny(),
        test: &pipe.model.test_data,
        trigger: traced.offline.trigger.clone(),
        targets: (base, targets),
        offline_asr: Some(traced.offline.attack_success_rate),
        r_match: Some(traced.online.r_match),
        seed: args.seed,
    };
    probes::run(subject, capture, Some(victim), &mut report);
    report
}
