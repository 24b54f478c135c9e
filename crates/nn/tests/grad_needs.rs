//! Skip parity for `Parameter::requires_grad`.
//!
//! A backward pass with some parameters' `requires_grad` off must:
//!
//! 1. return the bit-identical input gradient,
//! 2. give every parameter that requires its gradient the bit-identical
//!    `grad` of a pass that computed them all,
//! 3. leave every other parameter's `grad` at zero.
//!
//! Checked for each gradient-carrying layer in every backward mode and
//! for a whole tiny ResNet-20, under seeded random `requires_grad`
//! subsets, with the pool at one and at four threads.

use rhb_models::zoo::{build, Architecture, ZooConfig};
use rhb_nn::conv::{Conv2d, ConvGeometry};
use rhb_nn::init::Rng;
use rhb_nn::layer::{Layer, Mode, Sequential};
use rhb_nn::linear::Linear;
use rhb_nn::network::Network;
use rhb_nn::norm::BatchNorm2d;
use rhb_nn::tensor::Tensor;
use rhb_nn::Parameter;
use std::sync::Mutex;

/// The global pool is process-wide; tests that resize it must not
/// interleave with each other.
static GLOBAL_POOL_LOCK: Mutex<()> = Mutex::new(());

/// One layer wrapped as a network.
struct Single(Sequential);

impl Single {
    fn new(layer: Box<dyn Layer>) -> Self {
        let mut seq = Sequential::new();
        seq.push(layer);
        Single(seq)
    }
}

impl Network for Single {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.0.forward_mode(input, mode)
    }
    fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.0.backward(grad_logits)
    }
    fn params(&self) -> Vec<&Parameter> {
        self.0.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.0.params_mut()
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// Xorshift stream, independent of the vendored rand stub.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn tensor(&mut self, dims: &[usize]) -> Tensor {
        let len = dims.iter().product();
        let data = (0..len)
            .map(|_| ((self.next() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0)
            .collect();
        Tensor::from_vec(data, dims)
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Forward in `mode`, backward a fixed logit gradient; returns the input
/// gradient and every parameter's `grad`.
fn pass(net: &mut dyn Network, x: &Tensor, dy_seed: u64, mode: Mode) -> (Vec<u32>, Vec<Vec<u32>>) {
    net.zero_grad();
    let y = net.forward(x, mode);
    let dy = Stream::new(dy_seed).tensor(y.shape().dims());
    let gin = net.backward(&dy);
    let grads = net.params().iter().map(|p| bits(&p.grad)).collect();
    (bits(&gin), grads)
}

/// Runs the parity check for one subject over `modes`, at pool sizes 1
/// and 4, under the all-off subset and `trials` seeded random subsets.
fn check(name: &str, net: &mut dyn Network, x: &Tensor, modes: &[Mode], trials: usize) {
    let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = net.params().len();
    for &mode in modes {
        let mut serial_reference = None;
        for threads in [1, 4] {
            rhb_par::set_global_threads(threads);
            let (gin_ref, grads_ref) = pass(net, x, 7, mode);
            assert!(
                grads_ref.iter().any(|g| g.iter().any(|&b| b != 0)),
                "{name} {mode:?}: the reference pass produced no gradient"
            );
            match &serial_reference {
                None => serial_reference = Some((gin_ref.clone(), grads_ref.clone())),
                Some(r) => assert!(
                    *r == (gin_ref.clone(), grads_ref.clone()),
                    "{name} {mode:?}: reference differs across pool sizes"
                ),
            }
            let mut stream = Stream::new(n as u64 + threads as u64);
            for trial in 0..=trials {
                let needs: Vec<bool> = (0..n)
                    .map(|_| trial > 0 && stream.next() & 1 == 1)
                    .collect();
                for (p, &need) in net.params_mut().into_iter().zip(&needs) {
                    p.requires_grad = need;
                }
                let (gin, grads) = pass(net, x, 7, mode);
                for p in net.params_mut() {
                    p.requires_grad = true;
                }
                let at = format!("{name} {mode:?} at {threads} threads, subset {needs:?}");
                assert!(gin == gin_ref, "{at}: input gradient differs");
                for (i, ((g, r), &need)) in grads.iter().zip(&grads_ref).zip(&needs).enumerate() {
                    if need {
                        assert!(g == r, "{at}: grad of parameter {i} differs");
                    } else {
                        assert!(g.iter().all(|&b| b == 0), "{at}: parameter {i} not zero");
                    }
                }
            }
        }
    }
    rhb_par::set_global_threads(rhb_par::default_threads());
}

fn conv(bias: bool) -> Single {
    let geom = ConvGeometry {
        in_channels: 3,
        out_channels: 5,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    Single::new(Box::new(Conv2d::new(geom, bias, &mut Rng::seed_from(3))))
}

#[test]
fn conv_with_bias_skips_exactly_the_gradients_not_required() {
    let x = Stream::new(1).tensor(&[6, 3, 6, 6]);
    check(
        "conv+bias",
        &mut conv(true),
        &x,
        &[Mode::Frozen, Mode::Train],
        6,
    );
}

#[test]
fn conv_without_bias_skips_exactly_the_gradients_not_required() {
    let x = Stream::new(2).tensor(&[6, 3, 6, 6]);
    check(
        "conv",
        &mut conv(false),
        &x,
        &[Mode::Frozen, Mode::Train],
        2,
    );
}

#[test]
fn linear_skips_exactly_the_gradients_not_required() {
    let mut net = Single::new(Box::new(Linear::new(12, 7, true, &mut Rng::seed_from(4))));
    let x = Stream::new(3).tensor(&[5, 12]);
    check("linear", &mut net, &x, &[Mode::Frozen, Mode::Train], 6);
}

#[test]
fn batch_norm_skips_exactly_the_gradients_not_required() {
    let mut net = Single::new(Box::new(BatchNorm2d::new(4)));
    // Non-trivial γ so the γ and β gradients differ.
    for (k, p) in net.params_mut().into_iter().enumerate() {
        let v = Stream::new(10 + k as u64).tensor(p.value.shape().dims());
        p.value = v;
    }
    let x = Stream::new(4).tensor(&[6, 4, 5, 5]);
    check("batch norm", &mut net, &x, &[Mode::Frozen, Mode::Train], 6);
}

#[test]
fn resnet20_skips_exactly_the_gradients_not_required() {
    let cfg = ZooConfig::tiny();
    let mut net = build(Architecture::ResNet20, &cfg, &mut Rng::seed_from(5));
    net.deploy().expect("fresh weights are finite");
    let x = Stream::new(5).tensor(&[4, 3, cfg.side, cfg.side]);
    check(
        "resnet20",
        net.as_mut(),
        &x,
        &[Mode::Frozen, Mode::Train],
        4,
    );
}
