//! The [`Layer`] trait: explicit forward/backward building blocks.
//!
//! Rather than a general autograd tape, each layer caches whatever it needs
//! from the forward pass and implements its own backward pass. This keeps the
//! substrate small, auditable, and fast for the CNN shapes the attack uses,
//! while still providing the two gradient flavours the paper's Algorithm 1
//! consumes: gradients w.r.t. *weights* (for locating vulnerable bits) and
//! gradients w.r.t. the *input* (for FGSM trigger learning).

use crate::param::Parameter;
use crate::tensor::Tensor;

/// Forward-pass mode.
///
/// * `Train` — batch-norm uses batch statistics and updates its running
///   averages; activations are cached for backward. Used when training
///   victims from scratch.
/// * `Frozen` — *deployed-model gradients*: normalization layers use their
///   frozen running statistics (exactly the arithmetic inference will
///   run), but activations are still cached so `backward` works. This is
///   the mode backdoor optimization uses: the attacker differentiates the
///   network the victim actually serves.
/// * `Eval` — inference only; running statistics, no caches.
/// * `Int8` — deployed inference on the true int8 engine: GEMM layers
///   multiply `i8` weight steps straight off the weight-file grid against
///   dynamically quantized `i8` activations with `i32` accumulation (see
///   `DESIGN.md`, "Inference engines"). Non-GEMM layers behave exactly as
///   in `Eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode (batch statistics, caching).
    Train,
    /// Deployed-model gradient mode (running statistics, caching).
    Frozen,
    /// Inference mode (running statistics, no caching).
    Eval,
    /// Deployed int8-engine inference (running statistics, no caching).
    Int8,
}

impl Mode {
    /// Whether this mode caches activations for a later backward pass.
    pub fn caches(&self) -> bool {
        !matches!(self, Mode::Eval | Mode::Int8)
    }

    /// Whether normalization layers use frozen running statistics.
    pub fn uses_running_stats(&self) -> bool {
        !matches!(self, Mode::Train)
    }
}

/// A cheap elementwise/pooling tail a GEMM layer can absorb into its
/// int8 requantize sweep.
///
/// In [`Mode::Int8`] the conv/linear epilogue already walks every `i32`
/// accumulator once to requantize it (`acc · deq + bias`); applying the
/// *next* layer's function during that same walk removes a full tensor
/// traversal plus an output-tensor allocation per fused pair. Both
/// fusions are bit-identical to running the layers separately:
///
/// * `Relu` — `max(acc·deq + bias, 0)` is exactly relu-after-requantize.
/// * `MaxPool` — requantization is monotone non-decreasing in `acc`
///   (`deq > 0`), so `max` commutes through it *exactly*, window by
///   window.
///
/// [`Sequential::forward_mode`] runs the peephole: when a layer reports
/// an absorbable epilogue via [`Layer::int8_epilogue`], the preceding
/// layer is offered it through [`Layer::try_forward_int8_fused`] and the
/// absorbed layer is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Epilogue {
    /// Plain requantize: `acc·deq + bias`.
    None,
    /// Fused `max(·, 0)` (an absorbed `Relu`).
    Relu,
    /// Fused non-overlapping spatial max-pool (an absorbed `MaxPool2d`
    /// with `stride == window`), applied after requantization.
    MaxPool {
        /// Pooling window side (= stride).
        window: usize,
    },
}

/// One differentiable building block.
///
/// Contract: `backward` may only be called after a forward in a mode that
/// caches ([`Mode::Train`] or [`Mode::Frozen`], see [`Mode::caches`]), and
/// consumes the caches that forward populated. Gradients accumulate into
/// the `grad` tensor of each parameter whose
/// [`requires_grad`](Parameter::requires_grad) is on; the others are
/// skipped, and the returned input gradient is the same either way.
/// Callers reset gradients with [`Layer::zero_grad`].
pub trait Layer: Send {
    /// Computes the layer output, caching activations when training.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_mode(input, Mode::Train)
    }

    /// Computes the layer output in the given mode.
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `grad_output`, accumulating the gradients of the
    /// parameters that require them and returning the gradient w.r.t. the
    /// layer input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a preceding caching
    /// (`Train` or `Frozen`) forward pass.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Immutable views of the layer's parameters, in deterministic order.
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable views of the layer's parameters, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Clears every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Human-readable layer description for debugging.
    fn describe(&self) -> String;

    /// Short stable op label (`conv2d`, `linear`, …) keying the
    /// per-layer eval-timing histograms (`nn/eval/<op>_<engine>_s`).
    fn op_name(&self) -> &'static str {
        "layer"
    }

    /// If this layer is a cheap elementwise/pooling op the *previous*
    /// GEMM layer could absorb into its int8 requantize sweep, the
    /// epilogue describing it. `None` (the default) means the layer must
    /// run on its own.
    ///
    /// Only layers whose int8 forward is a pure function the fused
    /// epilogue reproduces **bit-identically** may return `Some` —
    /// `Relu`, and `MaxPool2d` with `stride == window`.
    fn int8_epilogue(&self) -> Option<Int8Epilogue> {
        None
    }

    /// Attempts a fused [`Mode::Int8`] forward with `epi` applied inside
    /// this layer's requantize sweep, returning the tensor the *pair*
    /// (this layer + the absorbed one) would have produced.
    ///
    /// Returning `None` means this layer cannot absorb `epi` (or has no
    /// fused path at all — the default); the caller must then run both
    /// layers unfused. Implementations must be bit-identical to the
    /// unfused pair.
    fn try_forward_int8_fused(&mut self, _input: &Tensor, _epi: Int8Epilogue) -> Option<Tensor> {
        None
    }

    /// [`Layer::forward_mode`] plus a per-layer eval-timing sample.
    ///
    /// For the two inference modes this records the layer's wall time
    /// into `nn/eval/<op>_<engine>_s` (`engine` = `f32` for [`Mode::Eval`],
    /// `i8` for [`Mode::Int8`]) — the measurement surface for "where does
    /// inference time go, and does int8 actually win per op?". Training
    /// and frozen forwards, or a disabled registry, skip straight to
    /// `forward_mode`. [`Sequential`] and the model zoo's hand-rolled
    /// forward graphs route every layer call through this.
    fn forward_instrumented(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let engine = match mode {
            Mode::Eval => "f32",
            Mode::Int8 => "i8",
            Mode::Train | Mode::Frozen => return self.forward_mode(input, mode),
        };
        if !rhb_telemetry::enabled() {
            return self.forward_mode(input, mode);
        }
        let t0 = std::time::Instant::now();
        let out = self.forward_mode(input, mode);
        rhb_telemetry::observe_value(
            &format!("nn/eval/{}_{engine}_s", self.op_name()),
            t0.elapsed().as_secs_f64(),
        );
        out
    }
}

/// A stack of layers applied in sequence.
///
/// # Example
///
/// ```
/// use rhb_nn::layer::{Layer, Sequential};
/// use rhb_nn::linear::Linear;
/// use rhb_nn::activation::Relu;
/// use rhb_nn::init::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut net = Sequential::new();
/// net.push(Box::new(Linear::new(8, 4, true, &mut rng)));
/// net.push(Box::new(Relu::new()));
/// let y = net.forward(&rhb_nn::Tensor::zeros(&[2, 8]));
/// assert_eq!(y.shape().dims(), &[2, 4]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Layer for Sequential {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let t0 = rhb_telemetry::enabled().then(std::time::Instant::now);
        let mut x = input.clone();
        let mut i = 0;
        while i < self.layers.len() {
            // Int8 peephole: when the next layer is an absorbable
            // epilogue (Relu / non-overlapping MaxPool2d), offer it to
            // the current layer's fused requantize sweep and skip the
            // absorbed layer. Bit-identical to the unfused pair; timing
            // for the fused call is recorded under the GEMM layer's op.
            if mode == Mode::Int8 && i + 1 < self.layers.len() {
                if let Some(epi) = self.layers[i + 1].int8_epilogue() {
                    let tf = rhb_telemetry::enabled().then(std::time::Instant::now);
                    if let Some(out) = self.layers[i].try_forward_int8_fused(&x, epi) {
                        if let Some(tf) = tf {
                            rhb_telemetry::observe_value(
                                &format!("nn/eval/{}_i8_s", self.layers[i].op_name()),
                                tf.elapsed().as_secs_f64(),
                            );
                        }
                        x = out;
                        i += 2;
                        continue;
                    }
                }
            }
            x = self.layers[i].forward_instrumented(&x, mode);
            i += 1;
        }
        if let Some(t0) = t0 {
            rhb_telemetry::observe_value("nn/seq_forward_s", t0.elapsed().as_secs_f64());
            rhb_telemetry::add_counter("nn/forward_passes", 1);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let t0 = rhb_telemetry::enabled().then(std::time::Instant::now);
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        if let Some(t0) = t0 {
            rhb_telemetry::observe_value("nn/seq_backward_s", t0.elapsed().as_secs_f64());
            rhb_telemetry::add_counter("nn/backward_passes", 1);
        }
        g
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("Sequential[{}]", inner.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::init::Rng;
    use crate::linear::Linear;

    #[test]
    fn sequential_chains_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 5, true, &mut rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Linear::new(5, 3, true, &mut rng)));
        let y = net.forward(&Tensor::zeros(&[4, 6]));
        assert_eq!(y.shape().dims(), &[4, 3]);
    }

    #[test]
    fn sequential_backward_returns_input_grad_shape() {
        let mut rng = Rng::seed_from(1);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 3, true, &mut rng)));
        let x = Tensor::full(&[2, 6], 0.5);
        let y = net.forward(&x);
        let gin = net.backward(&Tensor::full(y.shape().dims(), 1.0));
        assert_eq!(gin.shape().dims(), &[2, 6]);
    }

    #[test]
    fn params_are_deterministically_ordered() {
        let mut rng = Rng::seed_from(2);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(4, 4, true, &mut rng)));
        net.push(Box::new(Linear::new(4, 2, true, &mut rng)));
        let names: Vec<String> = net.params().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(names[0].contains("weight") && names[1].contains("bias"));
    }

    #[test]
    fn eval_modes_record_per_layer_timings_by_op_and_engine() {
        rhb_telemetry::install(std::sync::Arc::new(rhb_telemetry::NoopSink));
        let mut rng = Rng::seed_from(9);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 4, true, &mut rng)));
        net.push(Box::new(Relu::new()));
        let x = Tensor::zeros(&[2, 6]);
        net.forward_mode(&x, Mode::Eval);
        for p in net.params_mut() {
            p.deploy().expect("quantize test parameters");
        }
        net.forward_mode(&x, Mode::Int8);
        net.forward_mode(&x, Mode::Train); // must NOT add eval timings
        let report = rhb_telemetry::report();
        let names: Vec<&str> = report
            .histograms
            .iter()
            .map(|h| h.name.as_str())
            .filter(|n| n.starts_with("nn/eval/"))
            .collect();
        assert!(names.contains(&"nn/eval/linear_f32_s"), "{names:?}");
        assert!(names.contains(&"nn/eval/relu_f32_s"), "{names:?}");
        assert!(names.contains(&"nn/eval/linear_i8_s"), "{names:?}");
        assert!(
            !names.contains(&"nn/eval/relu_i8_s"),
            "int8 relu is absorbed into the linear requantize sweep: {names:?}"
        );
        rhb_telemetry::shutdown();
        rhb_telemetry::reset();
    }

    #[test]
    fn int8_relu_fusion_is_bit_identical_to_unfused_layers() {
        let mut rng = Rng::seed_from(21);
        let mut lin = Linear::new(7, 5, true, &mut rng);
        let mut relu = Relu::new();
        let x = {
            let mut t = Tensor::zeros(&[3, 7]);
            let mut r = Rng::seed_from(22);
            for v in t.data_mut() {
                *v = r.normal();
            }
            t
        };
        for p in lin.params_mut() {
            p.deploy().expect("deploy test weights");
        }
        let unfused = relu.forward_mode(&lin.forward_mode(&x, Mode::Int8), Mode::Int8);

        let mut net = Sequential::new();
        net.push(Box::new(lin));
        net.push(Box::new(relu));
        let fused = net.forward_mode(&x, Mode::Int8);
        assert_eq!(fused, unfused, "fused epilogue must be bit-identical");
    }

    #[test]
    fn op_names_are_stable_labels() {
        let mut rng = Rng::seed_from(10);
        assert_eq!(Linear::new(2, 2, false, &mut rng).op_name(), "linear");
        assert_eq!(Relu::new().op_name(), "relu");
        assert_eq!(Sequential::new().op_name(), "layer", "default label");
    }

    #[test]
    fn zero_grad_clears_all_layers() {
        let mut rng = Rng::seed_from(3);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(3, 3, true, &mut rng)));
        let x = Tensor::full(&[1, 3], 1.0);
        let y = net.forward(&x);
        net.backward(&Tensor::full(y.shape().dims(), 1.0));
        assert!(net.params()[0].grad.max_abs() > 0.0);
        net.zero_grad();
        assert_eq!(net.params()[0].grad.max_abs(), 0.0);
    }
}
