//! Golden hash of one CFT+BR run: the exactness contract for any change
//! to how Algorithm 1 computes its gradients.
//!
//! The run uses the attack pipeline's CFT+BR configuration (150
//! iterations, bit reduction every 25, η 0.5, ε 0.005) on the tiny
//! ResNet-20 victim, once with the pool forced serial and once at four
//! threads. Both must hash to the constant below, which was recorded
//! before CFT learned to skip the weight gradients it never reads. A
//! change that moves it changed the attack's arithmetic, not just its
//! speed.

use rhb_core::cft::{self, CftConfig, CftResult};
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_nn::weightfile::WeightFile;

const GOLDEN: &str = "f6d4e7ee0764b40b";

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn word(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

fn digest(weights: &WeightFile, result: &CftResult) -> String {
    let mut h = Fnv::new();
    h.bytes(weights.bytes());
    for &v in result.trigger.pattern().data() {
        h.word(u64::from(v.to_bits()));
    }
    for p in &result.loss_history {
        h.word(p.iteration as u64)
            .word(u64::from(p.loss.to_bits()))
            .word(u64::from(p.bit_reduced));
    }
    for &i in &result.final_mask {
        h.word(i as u64);
    }
    for a in &result.alternates {
        h.word(a.group as u64)
            .word(a.weight_idx as u64)
            .word(u64::from(a.bit))
            .word(u64::from(a.zero_to_one));
    }
    format!("{:016x}", h.0)
}

#[test]
fn cft_br_run_matches_golden_hash_at_pool_sizes_1_and_4() {
    let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 41);
    let base = WeightFile::from_network(model.net.as_ref());
    let budget = base.num_pages().clamp(1, 100);
    let config = CftConfig {
        iterations: 150,
        bit_reduction_period: 25,
        eta: 0.5,
        epsilon: 0.005,
        ..CftConfig::cft_br(budget, 2)
    };
    let mask = TriggerMask::paper_default(3, model.test_data.side());

    let mut digests = Vec::new();
    for threads in [1, 4] {
        rhb_par::set_global_threads(threads);
        base.load_into(model.net.as_mut())
            .expect("base weight file matches the victim");
        let result = cft::run(
            model.net.as_mut(),
            &model.test_data,
            &config,
            Trigger::black_square(mask.clone()),
        );
        let attacked = WeightFile::from_network(model.net.as_ref());
        digests.push((threads, digest(&attacked, &result)));
    }
    rhb_par::set_global_threads(rhb_par::default_threads());

    for (threads, d) in &digests {
        assert_eq!(d, GOLDEN, "CFT+BR digest at {threads} threads");
    }
}
