//! The joint backdoor objective of Eq. (3).
//!
//! `F(Δθ, Δx) = Σ_i [(1−α)·ℓ(f(x_i, θ+Δθ), y_i) + α·ℓ(f(x_i+Δx, θ+Δθ), ỹ)]`
//!
//! F has two terms: a clean pass against the true labels and a triggered
//! pass against the target label, both through the deployed (`Frozen`)
//! network. Algorithm 1 reads three different things off them, and each
//! has its own entry point so no pass computes what its caller drops:
//!
//! * [`Objective::evaluate`] — both forwards and both backwards: the
//!   weight gradients of F (for locating vulnerable bits) plus the
//!   triggered-input gradient. Under [`with_grad_mask`] only the
//!   parameters holding masked weights accumulate theirs;
//! * [`Objective::triggered_input_grad`] — ∂F/∂x on the triggered batch
//!   alone (FGSM trigger learning): one forward, one input-only backward;
//! * [`Objective::loss`] — F alone: two forwards, no backward.

use crate::trigger::Trigger;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::network::Network;
use rhb_nn::tensor::Tensor;

/// Configuration of the joint objective.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Trade-off α between clean-data loss (weight 1−α) and triggered loss
    /// (weight α). The paper uses α = 0.5 everywhere.
    pub alpha: f32,
    /// The target label ỹ.
    pub target_label: usize,
}

/// One evaluation of the joint objective.
#[derive(Debug, Clone)]
pub struct ObjectiveEval {
    /// Total weighted loss F.
    pub loss: f32,
    /// Clean-term loss (unweighted).
    pub clean_loss: f32,
    /// Triggered-term loss (unweighted).
    pub triggered_loss: f32,
    /// Gradient of F w.r.t. the *triggered* input batch, for FGSM.
    pub grad_triggered_input: Tensor,
}

/// One term of F after its forward pass: the unweighted loss and the
/// weighted logit gradient its backward pass starts from.
struct Term {
    loss: f32,
    grad_logits: Tensor,
}

impl Objective {
    /// Creates the paper's default objective (α = 0.5) for a target label.
    pub fn balanced(target_label: usize) -> Self {
        Objective {
            alpha: 0.5,
            target_label,
        }
    }

    /// Evaluates F on a batch and **accumulates weight gradients** into the
    /// network (callers zero them first). Returns the losses and the
    /// triggered-input gradient.
    ///
    /// # Panics
    ///
    /// Panics if the batch and label counts disagree.
    pub fn evaluate(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
    ) -> ObjectiveEval {
        let clean = self.clean_term(net, batch, labels);
        net.backward(&clean.grad_logits);
        let trig = self.triggered_term(net, batch, trigger);
        let grad_triggered_input = net.backward(&trig.grad_logits);
        ObjectiveEval {
            loss: self.combine(clean.loss, trig.loss),
            clean_loss: clean.loss,
            triggered_loss: trig.loss,
            grad_triggered_input,
        }
    }

    /// The gradient of F w.r.t. the triggered input batch — bit-identical
    /// to [`evaluate`](Self::evaluate)'s `grad_triggered_input` — from the
    /// triggered pass alone, with every parameter's gradient skipped. No
    /// parameter's `grad` changes.
    pub fn triggered_input_grad(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        trigger: &Trigger,
    ) -> Tensor {
        let trig = self.triggered_term(net, batch, trigger);
        with_grad_mask(net, &[], |net| net.backward(&trig.grad_logits))
    }

    /// F alone — bit-identical to [`evaluate`](Self::evaluate)'s `loss` —
    /// from the two forward passes, with no backward.
    ///
    /// # Panics
    ///
    /// Panics if the batch and label counts disagree.
    pub fn loss(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
    ) -> f32 {
        let clean = self.clean_term(net, batch, labels).loss;
        let trig = self.triggered_term(net, batch, trigger).loss;
        self.combine(clean, trig)
    }

    fn combine(&self, clean_loss: f32, triggered_loss: f32) -> f32 {
        (1.0 - self.alpha) * clean_loss + self.alpha * triggered_loss
    }

    /// Clean pass: (1−α)·ℓ(f(x), y). `Frozen` mode differentiates the
    /// deployed network — frozen batch-norm statistics, exactly the
    /// arithmetic inference runs — which is what the attacker targets.
    fn clean_term(&self, net: &mut dyn Network, batch: &Tensor, labels: &[usize]) -> Term {
        assert_eq!(batch.shape().dim(0), labels.len(), "one label per sample");
        let logits = net.forward(batch, Mode::Frozen);
        let out = cross_entropy(&logits, labels);
        let mut grad_logits = out.grad_logits;
        grad_logits.scale(1.0 - self.alpha);
        Term {
            loss: out.loss,
            grad_logits,
        }
    }

    /// Triggered pass: α·ℓ(f(x+Δx), ỹ).
    fn triggered_term(&self, net: &mut dyn Network, batch: &Tensor, trigger: &Trigger) -> Term {
        let triggered = trigger.apply(batch);
        let target_labels = vec![self.target_label; batch.shape().dim(0)];
        let logits = net.forward(&triggered, Mode::Frozen);
        let out = cross_entropy(&logits, &target_labels);
        let mut grad_logits = out.grad_logits;
        grad_logits.scale(self.alpha);
        Term {
            loss: out.loss,
            grad_logits,
        }
    }
}

/// Runs `f` with [`requires_grad`](rhb_nn::param::Parameter::requires_grad)
/// on only for the parameter tensors that hold at least one of the flat
/// weight indices in `mask`, then turns it back on for every parameter.
///
/// `mask` indexes the weights in [`Network::params`] order and must be
/// sorted ascending (as `Group_Sort_Select` and the baseline scopes
/// produce it); an empty mask turns every gradient off. Backward passes
/// inside `f` still return exact input gradients and give the masked
/// tensors bit-identical `grad`s; the other tensors' `grad`s are left
/// untouched.
pub fn with_grad_mask<R>(
    net: &mut dyn Network,
    mask: &[usize],
    f: impl FnOnce(&mut dyn Network) -> R,
) -> R {
    debug_assert!(mask.is_sorted(), "gradient mask must be sorted");
    let mut base = 0usize;
    for p in net.params_mut() {
        let end = base + p.numel();
        let first = mask.partition_point(|&i| i < base);
        p.requires_grad = mask.get(first).is_some_and(|&i| i < end);
        base = end;
    }
    let out = f(net);
    for p in net.params_mut() {
        p.requires_grad = true;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::TriggerMask;
    use rhb_models::zoo::{pretrained, Architecture, ZooConfig};

    fn setup() -> (Box<dyn Network>, Tensor, Vec<usize>, Trigger) {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 3);
        let (x, y) = model.test_data.head(8);
        let trigger = Trigger::black_square(TriggerMask::paper_default(3, model.test_data.side()));
        (model.net, x, y, trigger)
    }

    #[test]
    fn evaluate_accumulates_weight_gradients() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective::balanced(2);
        obj.evaluate(net.as_mut(), &x, &y, &trigger);
        let any_grad = net.params().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(any_grad, "no weight gradient accumulated");
    }

    #[test]
    fn loss_is_weighted_sum_of_terms() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective {
            alpha: 0.25,
            target_label: 1,
        };
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        let expect = 0.75 * eval.clean_loss + 0.25 * eval.triggered_loss;
        assert!((eval.loss - expect).abs() < 1e-5);
    }

    #[test]
    fn alpha_zero_ignores_trigger_term_gradient() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective {
            alpha: 0.0,
            target_label: 1,
        };
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        assert_eq!(eval.grad_triggered_input.max_abs(), 0.0);
    }

    #[test]
    fn triggered_input_gradient_has_batch_shape() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective::balanced(0);
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        assert_eq!(eval.grad_triggered_input.shape(), x.shape());
    }

    #[test]
    fn input_grad_and_loss_match_the_full_evaluation_bit_for_bit() {
        let (mut net, x, y, trigger) = setup();
        let obj = Objective::balanced(2);
        net.zero_grad();
        let full = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        net.zero_grad();
        let grad_x = obj.triggered_input_grad(net.as_mut(), &x, &trigger);
        assert!(net.params().iter().all(|p| p.grad.max_abs() == 0.0));
        assert!(net.params().iter().all(|p| p.requires_grad));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grad_x), bits(&full.grad_triggered_input));
        let loss = obj.loss(net.as_mut(), &x, &y, &trigger);
        assert_eq!(loss.to_bits(), full.loss.to_bits());
    }

    #[test]
    fn grad_mask_limits_accumulation_to_tensors_holding_masked_weights() {
        let (mut net, x, y, trigger) = setup();
        let obj = Objective::balanced(2);
        net.zero_grad();
        obj.evaluate(net.as_mut(), &x, &y, &trigger);
        let full: Vec<Tensor> = net.params().iter().map(|p| p.grad.clone()).collect();
        // One weight in the stem's kernel and one in the last tensor.
        let sizes: Vec<usize> = net.params().iter().map(|p| p.numel()).collect();
        let total: usize = sizes.iter().sum();
        let mask = [3, total - 1];
        net.zero_grad();
        with_grad_mask(net.as_mut(), &mask, |net| {
            obj.evaluate(net, &x, &y, &trigger);
        });
        let last = sizes.len() - 1;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (p, f)) in net.params().iter().zip(&full).enumerate() {
            assert!(p.requires_grad, "flag of tensor {i} not restored");
            if i == 0 || i == last {
                assert_eq!(bits(&p.grad), bits(f), "masked tensor {i}");
            } else {
                assert_eq!(p.grad.max_abs(), 0.0, "unmasked tensor {i}");
            }
        }
    }
}
