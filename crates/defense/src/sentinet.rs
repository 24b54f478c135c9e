//! SentiNet / GradCAM saliency analysis (paper §VI-B, Fig. 8).
//!
//! SentiNet filters adversarial inputs by asking *where the model looks*:
//! a saliency heatmap of the predicted class. On a backdoored model, the
//! heatmap of any triggered input collapses onto the trigger patch
//! regardless of image content — but on a clean model the focus also
//! shifts to a trigger that happens to overlap the object's features, so
//! the filter produces false positives (the paper's Fig. 8 argument).
//!
//! The heatmap here is input-gradient saliency (|∂logit/∂pixel| summed
//! over channels), the differentiable core GradCAM approximates from
//! activations; the focus-shift metric of Fig. 8 is identical either way.

use rhb_core::objective::with_grad_mask;
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_nn::layer::Mode;
use rhb_nn::network::Network;
use rhb_nn::tensor::Tensor;

/// A per-pixel saliency heatmap for one image.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// `side × side` saliency values, non-negative.
    pub values: Vec<f32>,
    /// Image side length.
    pub side: usize,
    /// The class the map explains.
    pub class: usize,
}

impl Heatmap {
    /// Fraction of total saliency mass inside the trigger mask region —
    /// the quantitative version of Fig. 8's "focus shifts to the trigger".
    pub fn mass_in_mask(&self, mask: &TriggerMask) -> f64 {
        let mut inside = 0.0f64;
        let mut total = 0.0f64;
        for y in 0..self.side {
            for x in 0..self.side {
                let v = f64::from(self.values[y * self.side + x]);
                total += v;
                if mask.contains(0, y, x) {
                    inside += v;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            inside / total
        }
    }
}

/// Computes the saliency heatmap of `image` (`[1, C, H, W]`) for the
/// model's *predicted* class.
///
/// # Panics
///
/// Panics if the input is not a single image.
pub fn saliency(net: &mut dyn Network, image: &Tensor) -> Heatmap {
    let dims = image.shape().dims().to_vec();
    assert_eq!(dims[0], 1, "saliency expects a single image");
    let side = dims[2];
    // Forward in frozen (deployed-gradient) mode, then backpropagate a
    // one-hot logit gradient for the argmax class.
    let logits = net.forward(image, Mode::Frozen);
    let classes = logits.shape().dim(1);
    let class = logits.argmax() % classes;
    let mut grad = Tensor::zeros(&[1, classes]);
    grad.data_mut()[class] = 1.0;
    // Only the input gradient is read: skip every weight gradient.
    let gin = with_grad_mask(net, &[], |net| net.backward(&grad));
    // Channel-summed absolute input gradient.
    let mut values = vec![0.0f32; side * side];
    for c in 0..dims[1] {
        for y in 0..side {
            for x in 0..side {
                values[y * side + x] += gin.at(&[0, c, y, x]).abs();
            }
        }
    }
    Heatmap {
        values,
        side,
        class,
    }
}

/// Fig. 8's comparison: mean trigger-region saliency mass over a batch of
/// triggered inputs. A clean model keeps most focus on object features; a
/// backdoored model's focus collapses onto the patch.
pub fn mean_trigger_focus(net: &mut dyn Network, images: &Tensor, trigger: &Trigger) -> f64 {
    let dims = images.shape().dims().to_vec();
    let image_len: usize = dims[1..].iter().product();
    let triggered = trigger.apply(images);
    let mut total = 0.0f64;
    for b in 0..dims[0] {
        let img = Tensor::from_vec(
            triggered.data()[b * image_len..(b + 1) * image_len].to_vec(),
            &[1, dims[1], dims[2], dims[3]],
        );
        total += saliency(net, &img).mass_in_mask(trigger.mask());
    }
    total / dims[0] as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_models::zoo::{pretrained, Architecture, ZooConfig};

    #[test]
    fn saliency_is_nonnegative_and_nonzero() {
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 12);
        let (batch, _) = model.test_data.head(1);
        let map = saliency(model.net.as_mut(), &batch);
        assert!(map.values.iter().all(|&v| v >= 0.0));
        assert!(map.values.iter().any(|&v| v > 0.0));
        assert_eq!(map.values.len(), 64);
    }

    #[test]
    fn saliency_matches_the_full_gradient_backward_bit_for_bit() {
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 12);
        let (batch, _) = model.test_data.head(1);
        let map = saliency(model.net.as_mut(), &batch);
        assert!(model.net.params().iter().all(|p| p.requires_grad));

        // The backward the skip replaced: every weight gradient computed.
        let logits = model.net.forward(&batch, Mode::Frozen);
        let mut grad = Tensor::zeros(logits.shape().dims());
        grad.data_mut()[map.class] = 1.0;
        let gin = model.net.backward(&grad);
        let mut values = vec![0.0f32; map.side * map.side];
        for c in 0..3 {
            for y in 0..map.side {
                for x in 0..map.side {
                    values[y * map.side + x] += gin.at(&[0, c, y, x]).abs();
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&map.values), bits(&values));
    }

    #[test]
    fn mass_in_mask_is_a_fraction() {
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 12);
        let (batch, _) = model.test_data.head(1);
        let map = saliency(model.net.as_mut(), &batch);
        let mask = TriggerMask::paper_default(3, 8);
        let frac = map.mass_in_mask(&mask);
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn full_image_mask_captures_all_mass() {
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 12);
        let (batch, _) = model.test_data.head(1);
        let map = saliency(model.net.as_mut(), &batch);
        let mask = TriggerMask::bottom_right_square(3, 8, 8);
        assert!((map.mass_in_mask(&mask) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn trigger_focus_averages_over_batch() {
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 12);
        let (batch, _) = model.test_data.head(6);
        let trigger = rhb_core::trigger::Trigger::black_square(TriggerMask::paper_default(3, 8));
        let f = mean_trigger_focus(model.net.as_mut(), &batch, &trigger);
        assert!((0.0..=1.0).contains(&f));
    }
}
