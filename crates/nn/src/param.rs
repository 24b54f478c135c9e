//! Trainable parameters: float master weights, gradients, and deployment
//! (quantization) state.

use crate::error::Result;
use crate::quant::{QuantScheme, QuantizedTensor};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A single trainable parameter tensor.
///
/// During training the float `value` is the source of truth. When a model is
/// *deployed* (see [`Parameter::deploy`]) a [`QuantScheme`] is frozen; from
/// then on the forward pass uses fake-quantized weights so that the effective
/// network is exactly the one whose bytes live in the simulated weight file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Parameter {
    /// Human-readable name, e.g. `layer1.block0.conv1.weight`.
    pub name: String,
    /// Float master weights.
    pub value: Tensor,
    /// Gradient accumulator, same shape as `value`.
    pub grad: Tensor,
    /// Frozen quantization scheme, present once deployed.
    pub scheme: Option<QuantScheme>,
    /// Whether `backward` accumulates into [`grad`](Self::grad). `true`
    /// unless a caller that reads only some gradients turns it off for
    /// the span of its backward passes and turns it back on after; a
    /// layer whose parameters all have it off still returns the exact
    /// input gradient, and leaves their `grad` untouched.
    pub requires_grad: bool,
}

impl Parameter {
    /// Creates a parameter with zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Parameter {
            name: name.into(),
            value,
            grad,
            scheme: None,
            requires_grad: true,
        }
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Freezes a quantization scheme fitted to the current weights and snaps
    /// the weights onto the quantization grid.
    ///
    /// All-zero tensors (freshly initialized biases, batch-norm shifts) get
    /// a unit-range fallback scale so the whole model can always deploy.
    ///
    /// # Errors
    ///
    /// Fails if the weights contain non-finite values.
    pub fn deploy(&mut self) -> Result<()> {
        let scheme = match QuantScheme::fit(&self.value) {
            Ok(s) => s,
            Err(_) if self.value.max_abs() == 0.0 => QuantScheme {
                scale: 1.0 / i8::MAX as f32,
            },
            Err(e) => return Err(e),
        };
        self.value.map_inplace(|v| scheme.fake(v));
        self.scheme = Some(scheme);
        Ok(())
    }

    /// Whether [`deploy`](Self::deploy) has been called.
    pub fn is_deployed(&self) -> bool {
        self.scheme.is_some()
    }

    /// Generation stamp of the current weights — the underlying tensor's
    /// content version (see [`Tensor::version`]).
    ///
    /// This is the invalidation contract for derived caches such as the
    /// int8 engine's packed weight panels: a cache entry built at
    /// generation `g` is valid if and only if `generation()` still
    /// returns `g`. Every path that can change the weights — direct
    /// `data_mut` writes, optimizer steps, CFT perturbations, `deploy`'s
    /// grid snap, and crucially [`load_quantized`](Self::load_quantized)
    /// (the Rowhammer flip injection path) — advances the stamp, so a
    /// mid-run bit flip can never be masked by a stale packed panel.
    pub fn generation(&self) -> u64 {
        self.value.version()
    }

    /// The effective weights used in the forward pass: fake-quantized when
    /// deployed, raw floats otherwise.
    pub fn effective(&self) -> Tensor {
        match self.scheme {
            Some(scheme) => self.value.map(|v| scheme.fake(v)),
            None => self.value.clone(),
        }
    }

    /// Allocation-free variant of [`effective`](Self::effective): writes
    /// the effective weights into a layer-owned scratch buffer and
    /// returns the filled slice. Produces the same bits as `effective()`.
    pub fn effective_into<'a>(&self, buf: &'a mut crate::scratch::ScratchBuffer) -> &'a [f32] {
        let src = self.value.data();
        let out = buf.filled(src.len());
        match self.scheme {
            Some(scheme) => {
                for (o, &v) in out.iter_mut().zip(src) {
                    *o = scheme.fake(v);
                }
            }
            None => out.copy_from_slice(src),
        }
        out
    }

    /// Writes the quantized `i8` steps of a deployed parameter into a
    /// layer-owned scratch arena, returning the steps and the frozen
    /// scheme. Deployed weights are grid-snapped, so these steps are
    /// bit-identical to the parameter's bytes in the weight file (see
    /// the `quantize_recovers_grid_steps_exactly` property) — the int8
    /// engine consumes them without materializing an f32 weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the parameter has not been deployed.
    pub fn quantized_into<'a>(
        &self,
        buf: &'a mut crate::scratch::ScratchI8,
    ) -> (&'a [i8], QuantScheme) {
        let scheme = self
            .scheme
            .expect("int8 inference requires a deployed parameter");
        let src = self.value.data();
        let out = buf.filled(src.len());
        scheme.quantize_into(src, out);
        (out, scheme)
    }

    /// Quantized image of the current weights.
    ///
    /// # Panics
    ///
    /// Panics if the parameter has not been deployed.
    pub fn quantized(&self) -> QuantizedTensor {
        let scheme = self
            .scheme
            .expect("parameter must be deployed before quantizing");
        QuantizedTensor::with_scheme(&self.value, scheme)
    }

    /// Overwrites the float weights from a quantized image (e.g. after the
    /// online attack flipped bits in the weight file).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn load_quantized(&mut self, q: &QuantizedTensor) {
        assert_eq!(q.numel(), self.value.numel(), "parameter size mismatch");
        let t = q.to_tensor();
        self.value = Tensor::from_vec(t.into_vec(), self.value.shape().dims());
        self.scheme = Some(q.scheme());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param() -> Parameter {
        Parameter::new("w", Tensor::from_vec(vec![0.3, -0.8, 0.05, 1.0], &[2, 2]))
    }

    #[test]
    fn deploy_snaps_weights_to_grid() {
        let mut p = param();
        p.deploy().unwrap();
        let scheme = p.scheme.unwrap();
        for &v in p.value.data() {
            assert_eq!(v, scheme.fake(v), "weight {v} not on the grid");
        }
    }

    #[test]
    fn effective_equals_value_once_deployed() {
        let mut p = param();
        p.deploy().unwrap();
        assert_eq!(p.effective(), p.value);
    }

    #[test]
    fn effective_is_raw_before_deploy() {
        let p = param();
        assert_eq!(p.effective(), p.value);
    }

    #[test]
    fn quantized_round_trip_preserves_deployed_weights() {
        let mut p = param();
        p.deploy().unwrap();
        let q = p.quantized();
        let mut p2 = p.clone();
        p2.load_quantized(&q);
        assert_eq!(p.value, p2.value);
    }

    #[test]
    fn load_quantized_applies_bit_flip() {
        let mut p = param();
        p.deploy().unwrap();
        let mut q = p.quantized();
        let before = p.value.data()[3];
        q.flip_bit(3, 7).unwrap();
        p.load_quantized(&q);
        assert_ne!(p.value.data()[3], before);
    }

    #[test]
    fn quantized_into_matches_weight_file_bytes() {
        let mut p = param();
        p.deploy().unwrap();
        let q = p.quantized();
        let mut buf = crate::scratch::ScratchI8::new();
        let (steps, scheme) = p.quantized_into(&mut buf);
        assert_eq!(steps, q.values());
        assert_eq!(scheme, q.scheme());
    }

    #[test]
    fn generation_advances_on_every_weight_mutation_path() {
        let mut p = param();
        let g0 = p.generation();
        p.deploy().unwrap();
        let g1 = p.generation();
        assert!(g1 > g0, "deploy grid-snap must advance the generation");
        let q = p.quantized();
        p.load_quantized(&q);
        let g2 = p.generation();
        assert!(g2 > g1, "load_quantized must advance the generation");
        p.value.data_mut()[0] += 1.0;
        assert!(p.generation() > g2, "direct writes must advance it too");
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = param();
        p.grad.data_mut()[0] = 3.0;
        p.zero_grad();
        assert_eq!(p.grad.data()[0], 0.0);
    }
}
