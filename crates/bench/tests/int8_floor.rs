//! Int8-over-f32 evaluation floor at several pool sizes.
//!
//! The repository benchmark (`perfbench/`) times whole-model evaluation at
//! one thread only. This test covers the multi-thread side: on a deployed
//! tiny ResNet-20, `Mode::Int8` evaluation must be no slower than
//! `Mode::Eval` at pool sizes 1, 2 and 4. It guards the regression where
//! batch-parallel dispatch of small int8 GEMMs made two-thread int8 eval
//! slower than f32 (see `BATCH_PAR_MIN_FLOPS` in DESIGN.md).
//!
//! Wall-clock, so it is `#[ignore]`d; run it on a release build:
//!
//! ```text
//! cargo test --release -p rhb-bench --test int8_floor -- --ignored
//! ```

use rhb_models::train::evaluate_mode;
use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use std::time::Instant;

const POOL_SIZES: [usize; 3] = [1, 2, 4];
const REPS: usize = 7;
const BATCH: usize = 32;

/// Minimum wall time over `REPS` runs: the sample least disturbed by
/// other work on a shared host.
fn min_ms(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall-clock floor; run with --release -- --ignored"]
fn int8_eval_is_no_slower_than_f32_at_any_pool_size() {
    let cfg = ZooConfig::tiny();
    let (data, _) = dataset_for(Architecture::ResNet20, &cfg, 75);
    let mut rng = Rng::seed_from(77);
    let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
    for p in net.params_mut() {
        p.deploy().expect("synthetic weights are finite");
    }

    let mut rows = Vec::new();
    for threads in POOL_SIZES {
        rhb_par::set_global_threads(threads);
        // One warm-up pass per engine grows the scratch arenas.
        evaluate_mode(net.as_mut(), &data, BATCH, Mode::Eval);
        evaluate_mode(net.as_mut(), &data, BATCH, Mode::Int8);
        let f32_ms = min_ms(|| {
            evaluate_mode(net.as_mut(), &data, BATCH, Mode::Eval);
        });
        let int8_ms = min_ms(|| {
            evaluate_mode(net.as_mut(), &data, BATCH, Mode::Int8);
        });
        println!("{threads} threads: f32 {f32_ms:.2} ms, int8 {int8_ms:.2} ms");
        rows.push((threads, f32_ms, int8_ms));
    }
    rhb_par::set_global_threads(rhb_par::default_threads());

    for (threads, f32_ms, int8_ms) in rows {
        assert!(
            int8_ms <= f32_ms,
            "int8 eval ({int8_ms:.2} ms) slower than f32 ({f32_ms:.2} ms) at {threads} threads"
        );
    }
}
