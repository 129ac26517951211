//! Model zoo: the workloads of the paper's evaluations.
//!
//! Two flavours live here:
//!
//! * **Functional models** (`mlp`, `lenet`, `small_cnn`, `dcgan`) — live
//!   [`Network`]s/[`Gan`]s that actually train; sized so the demonstrations
//!   run in seconds on a laptop.
//! * **Geometry specs** (`*_spec`) — [`NetworkSpec`]s of the paper-scale
//!   networks (MNIST CNNs, AlexNet/VGG-class ImageNet models, DCGAN at the
//!   four ReGAN dataset resolutions) used by the timing/energy experiments,
//!   which never materialize activations (see DESIGN.md, substitutions).

use crate::activations::Activation;
use crate::layers::{
    ActivationLayer, BatchNorm, Conv2d, Flatten, FracConv2d, Linear, NormMode, Pool2d,
};
use crate::{Gan, LayerSpec, Network, NetworkSpec};
use rand::Rng;
use reram_tensor::Shape4;

/// A multilayer perceptron with ReLU hidden layers.
pub fn mlp(inputs: usize, hidden: &[usize], outputs: usize, rng: &mut impl Rng) -> Network {
    let mut net = Network::new("mlp", Shape4::new(1, inputs, 1, 1));
    let mut prev = inputs;
    for &h in hidden {
        net.push_boxed(Box::new(Linear::new(prev, h, rng)));
        net.push_boxed(Box::new(ActivationLayer::relu()));
        prev = h;
    }
    net.push_boxed(Box::new(Linear::new(prev, outputs, rng)));
    net
}

/// LeNet-style CNN for 28×28 single-channel images, 10 classes — the
/// classic MNIST topology of PipeLayer's benchmark suite.
pub fn lenet(rng: &mut impl Rng) -> Network {
    Network::new("lenet", Shape4::new(1, 1, 28, 28))
        .push(Conv2d::new(1, 6, 5, 1, 2, rng))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Conv2d::new(6, 16, 5, 1, 0, rng))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(Linear::new(16 * 5 * 5, 120, rng))
        .push(ActivationLayer::relu())
        .push(Linear::new(120, 84, rng))
        .push(ActivationLayer::relu())
        .push(Linear::new(84, 10, rng))
}

/// A compact CNN for `hw × hw` images with `in_c` channels.
///
/// # Panics
///
/// Panics if `hw` is not divisible by 4.
pub fn small_cnn(in_c: usize, hw: usize, classes: usize, rng: &mut impl Rng) -> Network {
    assert_eq!(hw % 4, 0, "small_cnn needs hw divisible by 4");
    Network::new("small_cnn", Shape4::new(1, in_c, hw, hw))
        .push(Conv2d::new(in_c, 8, 3, 1, 1, rng))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Conv2d::new(8, 16, 3, 1, 1, rng))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(Linear::new(16 * (hw / 4) * (hw / 4), classes, rng))
}

/// DCGAN-style generator: latent vector → `out_c × hw × hw` image in
/// `[-1, 1]`, via an FC projection (mapped to ReRAM arrays per §III-B.4)
/// and a chain of fractional-strided convolutions (Fig. 7).
///
/// # Panics
///
/// Panics if `hw` is not a multiple of 4 at least 8.
pub fn dcgan_generator(
    latent: usize,
    base_c: usize,
    out_c: usize,
    hw: usize,
    rng: &mut impl Rng,
) -> Network {
    assert!(
        hw >= 8 && hw.is_multiple_of(4),
        "generator output {hw} must be 4k >= 8"
    );
    // Upsample twice: hw/4 -> hw/2 -> hw.
    let s0 = hw / 4;
    Network::new("dcgan_g", Shape4::new(1, latent, 1, 1))
        .push(Linear::new(latent, 2 * base_c * s0 * s0, rng))
        .push(Reshape::new(Shape4::new(1, 2 * base_c, s0, s0)))
        .push(BatchNorm::new(2 * base_c, NormMode::Virtual))
        .push(ActivationLayer::relu())
        .push(FracConv2d::new(2 * base_c, base_c, 4, 2, 1, rng))
        .push(BatchNorm::new(base_c, NormMode::Virtual))
        .push(ActivationLayer::relu())
        .push(FracConv2d::new(base_c, out_c, 4, 2, 1, rng))
        .push(ActivationLayer::new(Activation::Tanh))
}

/// DCGAN-style discriminator: `in_c × hw × hw` image → one logit, via
/// strided convolutions ("D acts as the general CNN which down-samples the
/// input to produce classification", §II-A.3).
///
/// # Panics
///
/// Panics if `hw` is not a multiple of 4 at least 8.
pub fn dcgan_discriminator(in_c: usize, base_c: usize, hw: usize, rng: &mut impl Rng) -> Network {
    assert!(
        hw >= 8 && hw.is_multiple_of(4),
        "discriminator input {hw} must be 4k >= 8"
    );
    let s = hw / 4;
    Network::new("dcgan_d", Shape4::new(1, in_c, hw, hw))
        .push(Conv2d::new(in_c, base_c, 4, 2, 1, rng))
        .push(ActivationLayer::new(Activation::LeakyRelu))
        .push(Conv2d::new(base_c, 2 * base_c, 4, 2, 1, rng))
        .push(BatchNorm::new(2 * base_c, NormMode::Batch))
        .push(ActivationLayer::new(Activation::LeakyRelu))
        .push(Flatten::new())
        .push(Linear::new(2 * base_c * s * s, 1, rng))
}

/// A complete functional DCGAN sized for fast experiments.
pub fn dcgan(latent: usize, base_c: usize, channels: usize, hw: usize, rng: &mut impl Rng) -> Gan {
    let g = dcgan_generator(latent, base_c, channels, hw, rng);
    let d = dcgan_discriminator(channels, base_c, hw, rng);
    Gan::new(g, d, latent)
}

/// Fixed reshape layer used inside the generator (projection → feature map).
#[derive(Debug, Clone)]
struct Reshape {
    /// Per-entry target shape.
    target: Shape4,
    cached: Option<Shape4>,
}

impl Reshape {
    fn new(target: Shape4) -> Self {
        Self {
            target: target.with_batch(1),
            cached: None,
        }
    }
}

impl crate::Layer for Reshape {
    fn name(&self) -> &'static str {
        "reshape"
    }

    fn class(&self) -> crate::LayerClass {
        crate::LayerClass::Auxiliary
    }

    fn forward(&mut self, input: &reram_tensor::Tensor, train: bool) -> reram_tensor::Tensor {
        if train {
            self.cached = Some(input.shape());
        }
        input.reshape(self.target.with_batch(input.shape().n))
    }

    fn backward(&mut self, grad_out: &reram_tensor::Tensor) -> reram_tensor::Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let shape = self.cached.expect("reshape backward before forward");
        grad_out.reshape(shape)
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        self.target.with_batch(input.n)
    }

    fn spec(&self, _input: Shape4) -> Option<LayerSpec> {
        None
    }
}

// ---------------------------------------------------------------------------
// Paper-scale geometry specs (timing/energy experiments only).
// ---------------------------------------------------------------------------

fn conv(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize, in_h: usize) -> LayerSpec {
    LayerSpec::Conv {
        in_c,
        out_c,
        k,
        stride,
        pad,
        in_h,
        in_w: in_h,
    }
}

fn pool(c: usize, k: usize, in_h: usize) -> LayerSpec {
    LayerSpec::Pool {
        c,
        k,
        stride: k,
        in_h,
        in_w: in_h,
    }
}

/// LeNet-5 geometry on MNIST (PipeLayer benchmark class "MNIST-A").
pub fn lenet_spec() -> NetworkSpec {
    NetworkSpec::new(
        "lenet-mnist",
        Shape4::new(1, 1, 28, 28),
        vec![
            conv(1, 6, 5, 1, 2, 28),
            pool(6, 2, 28),
            conv(6, 16, 5, 1, 0, 14),
            pool(16, 2, 10),
            LayerSpec::Fc {
                in_features: 400,
                out_features: 120,
            },
            LayerSpec::Fc {
                in_features: 120,
                out_features: 84,
            },
            LayerSpec::Fc {
                in_features: 84,
                out_features: 10,
            },
        ],
    )
}

/// A deeper MNIST CNN (PipeLayer benchmark class "MNIST-B").
pub fn mnist_deep_spec() -> NetworkSpec {
    NetworkSpec::new(
        "mnist-deep",
        Shape4::new(1, 1, 28, 28),
        vec![
            conv(1, 32, 3, 1, 1, 28),
            conv(32, 32, 3, 1, 1, 28),
            pool(32, 2, 28),
            conv(32, 64, 3, 1, 1, 14),
            conv(64, 64, 3, 1, 1, 14),
            pool(64, 2, 14),
            LayerSpec::Fc {
                in_features: 64 * 7 * 7,
                out_features: 256,
            },
            LayerSpec::Fc {
                in_features: 256,
                out_features: 10,
            },
        ],
    )
}

/// AlexNet geometry on 227×227 ImageNet inputs.
pub fn alexnet_spec() -> NetworkSpec {
    NetworkSpec::new(
        "alexnet-imagenet",
        Shape4::new(1, 3, 227, 227),
        vec![
            conv(3, 96, 11, 4, 0, 227),
            pool(96, 2, 55),
            conv(96, 256, 5, 1, 2, 27),
            pool(256, 2, 27),
            conv(256, 384, 3, 1, 1, 13),
            conv(384, 384, 3, 1, 1, 13),
            conv(384, 256, 3, 1, 1, 13),
            pool(256, 2, 12),
            LayerSpec::Fc {
                in_features: 256 * 6 * 6,
                out_features: 4096,
            },
            LayerSpec::Fc {
                in_features: 4096,
                out_features: 4096,
            },
            LayerSpec::Fc {
                in_features: 4096,
                out_features: 1000,
            },
        ],
    )
}

/// VGG-A (11-layer) geometry on 224×224 ImageNet inputs — the deepest
/// PipeLayer benchmark class.
pub fn vgg_a_spec() -> NetworkSpec {
    NetworkSpec::new(
        "vgg-a-imagenet",
        Shape4::new(1, 3, 224, 224),
        vec![
            conv(3, 64, 3, 1, 1, 224),
            pool(64, 2, 224),
            conv(64, 128, 3, 1, 1, 112),
            pool(128, 2, 112),
            conv(128, 256, 3, 1, 1, 56),
            conv(256, 256, 3, 1, 1, 56),
            pool(256, 2, 56),
            conv(256, 512, 3, 1, 1, 28),
            conv(512, 512, 3, 1, 1, 28),
            pool(512, 2, 28),
            conv(512, 512, 3, 1, 1, 14),
            conv(512, 512, 3, 1, 1, 14),
            pool(512, 2, 14),
            LayerSpec::Fc {
                in_features: 512 * 7 * 7,
                out_features: 4096,
            },
            LayerSpec::Fc {
                in_features: 4096,
                out_features: 4096,
            },
            LayerSpec::Fc {
                in_features: 4096,
                out_features: 1000,
            },
        ],
    )
}

/// GoogLeNet (Inception-v1) geometry on 224×224 ImageNet inputs — the
/// network the paper's introduction cites for its "3.9 billion operations"
/// per image.
///
/// Each inception module's four branches are emitted as a flat layer list:
/// the cost models sum per-layer work, so the flattening is exact for
/// FLOPs, weights and crossbar arrays. For the pipeline model it serializes
/// the parallel branches, which over-counts `L` slightly — a conservative
/// approximation recorded here.
pub fn googlenet_spec() -> NetworkSpec {
    /// One inception module's branch widths:
    /// `(in_c, #1x1, #3x3reduce, #3x3, #5x5reduce, #5x5, pool_proj, hw)`.
    type Inception = (usize, usize, usize, usize, usize, usize, usize, usize);
    const INCEPTION: [Inception; 9] = [
        (192, 64, 96, 128, 16, 32, 32, 28),     // 3a
        (256, 128, 128, 192, 32, 96, 64, 28),   // 3b
        (480, 192, 96, 208, 16, 48, 64, 14),    // 4a
        (512, 160, 112, 224, 24, 64, 64, 14),   // 4b
        (512, 128, 128, 256, 24, 64, 64, 14),   // 4c
        (512, 112, 144, 288, 32, 64, 64, 14),   // 4d
        (528, 256, 160, 320, 32, 128, 128, 14), // 4e
        (832, 256, 160, 320, 32, 128, 128, 7),  // 5a
        (832, 384, 192, 384, 48, 128, 128, 7),  // 5b
    ];
    let mut layers = vec![
        conv(3, 64, 7, 2, 3, 224),
        pool(64, 2, 112),
        conv(64, 64, 1, 1, 0, 56),
        conv(64, 192, 3, 1, 1, 56),
        pool(192, 2, 56),
    ];
    for &(in_c, c1, r3, c3, r5, c5, pp, hw) in &INCEPTION {
        layers.push(conv(in_c, c1, 1, 1, 0, hw)); // 1x1 branch
        layers.push(conv(in_c, r3, 1, 1, 0, hw)); // 3x3 reduce
        layers.push(conv(r3, c3, 3, 1, 1, hw)); // 3x3
        layers.push(conv(in_c, r5, 1, 1, 0, hw)); // 5x5 reduce
        layers.push(conv(r5, c5, 5, 1, 2, hw)); // 5x5
        layers.push(conv(in_c, pp, 1, 1, 0, hw)); // pool projection
    }
    layers.push(pool(1024, 7, 7)); // global average pool
    layers.push(LayerSpec::Fc {
        in_features: 1024,
        out_features: 1000,
    });
    NetworkSpec::new("googlenet-imagenet", Shape4::new(1, 3, 224, 224), layers)
}

/// DCGAN generator geometry for `hw × hw` images with `channels` output
/// channels (ReGAN workload at a dataset's native resolution).
///
/// # Panics
///
/// Panics if `hw < 16` or `hw` is not a power of two.
pub fn dcgan_generator_spec(latent: usize, channels: usize, hw: usize) -> NetworkSpec {
    assert!(
        hw >= 16 && hw.is_power_of_two(),
        "hw {hw} must be a power of two >= 16"
    );
    let mut layers = vec![LayerSpec::Fc {
        in_features: latent,
        out_features: 1024 * 4 * 4,
    }];
    let mut c = 1024;
    let mut size = 4;
    while size < hw {
        let next_c = if size * 2 == hw { channels } else { c / 2 };
        layers.push(LayerSpec::BatchNorm {
            elems: c * size * size,
        });
        layers.push(LayerSpec::FracConv {
            in_c: c,
            out_c: next_c,
            k: 4,
            stride: 2,
            pad: 1,
            in_h: size,
            in_w: size,
        });
        c = next_c;
        size *= 2;
    }
    layers.push(LayerSpec::Activation {
        elems: channels * hw * hw,
    });
    NetworkSpec::new(
        format!("dcgan-g-{hw}"),
        Shape4::new(1, latent, 1, 1),
        layers,
    )
}

/// DCGAN discriminator geometry matching [`dcgan_generator_spec`].
///
/// # Panics
///
/// Panics if `hw < 16` or `hw` is not a power of two.
pub fn dcgan_discriminator_spec(channels: usize, hw: usize) -> NetworkSpec {
    assert!(
        hw >= 16 && hw.is_power_of_two(),
        "hw {hw} must be a power of two >= 16"
    );
    let mut layers = Vec::new();
    let mut c = channels;
    let mut size = hw;
    let mut out_c = 128;
    while size > 4 {
        layers.push(conv(c, out_c, 4, 2, 1, size));
        layers.push(LayerSpec::Activation {
            elems: out_c * (size / 2) * (size / 2),
        });
        c = out_c;
        out_c = (out_c * 2).min(1024);
        size /= 2;
    }
    layers.push(LayerSpec::Fc {
        in_features: c * 4 * 4,
        out_features: 1,
    });
    NetworkSpec::new(
        format!("dcgan-d-{hw}"),
        Shape4::new(1, channels, hw, hw),
        layers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_tensor::init::seeded_rng;
    use reram_tensor::Tensor;

    #[test]
    fn mlp_shapes() {
        let mut rng = seeded_rng(1);
        let mut net = mlp(10, &[16, 8], 4, &mut rng);
        let y = net.forward(&Tensor::ones(Shape4::new(2, 10, 1, 1)), false);
        assert_eq!(y.shape(), Shape4::new(2, 4, 1, 1));
        assert_eq!(net.weighted_layer_count(), 3);
    }

    #[test]
    fn lenet_forward_shape() {
        let mut rng = seeded_rng(2);
        let mut net = lenet(&mut rng);
        let y = net.forward(&Tensor::ones(Shape4::new(1, 1, 28, 28)), false);
        assert_eq!(y.shape(), Shape4::new(1, 10, 1, 1));
        assert_eq!(net.weighted_layer_count(), 5);
    }

    #[test]
    fn small_cnn_forward_shape() {
        let mut rng = seeded_rng(3);
        let mut net = small_cnn(3, 16, 10, &mut rng);
        let y = net.forward(&Tensor::ones(Shape4::new(2, 3, 16, 16)), false);
        assert_eq!(y.shape(), Shape4::new(2, 10, 1, 1));
    }

    #[test]
    fn dcgan_generator_emits_images() {
        let mut rng = seeded_rng(4);
        let mut g = dcgan_generator(8, 4, 1, 16, &mut rng);
        let z = Tensor::ones(Shape4::new(2, 8, 1, 1));
        let img = g.forward(&z, false);
        assert_eq!(img.shape(), Shape4::new(2, 1, 16, 16));
        assert!(img.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn dcgan_discriminator_emits_logit() {
        let mut rng = seeded_rng(5);
        let mut d = dcgan_discriminator(1, 4, 16, &mut rng);
        let y = d.forward(&Tensor::ones(Shape4::new(3, 1, 16, 16)), false);
        assert_eq!(y.shape(), Shape4::new(3, 1, 1, 1));
    }

    #[test]
    fn dcgan_pair_is_consistent() {
        let mut rng = seeded_rng(6);
        let mut gan = dcgan(8, 4, 1, 16, &mut rng);
        let mut rng2 = seeded_rng(7);
        let z = gan.sample_latent(2, &mut rng2);
        let fake = gan.generate(&z);
        assert_eq!(fake.shape(), Shape4::new(2, 1, 16, 16));
    }

    #[test]
    fn lenet_spec_matches_functional_lenet() {
        let mut rng = seeded_rng(8);
        let net = lenet(&mut rng);
        let live = net.spec();
        let spec = lenet_spec();
        assert_eq!(
            live.weighted_layer_count(),
            spec.weighted_layer_count(),
            "live and static L differ"
        );
        // Same crossbar matrices for the weighted layers.
        let a: Vec<_> = live
            .weighted_layers()
            .map(super::super::spec::LayerSpec::crossbar_matrix)
            .collect();
        let b: Vec<_> = spec
            .weighted_layers()
            .map(super::super::spec::LayerSpec::crossbar_matrix)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn alexnet_scale_sanity() {
        let spec = alexnet_spec();
        // ~0.7 GMAC forward, ~60M params: the well-known AlexNet scale.
        let gmac = spec.forward_macs() as f64 / 1e9;
        assert!((0.5..1.5).contains(&gmac), "AlexNet GMAC {gmac}");
        let params = spec.total_weights() as f64 / 1e6;
        assert!((40.0..80.0).contains(&params), "AlexNet Mparams {params}");
    }

    #[test]
    fn vgg_scale_sanity() {
        let spec = vgg_a_spec();
        let gmac = spec.forward_macs() as f64 / 1e9;
        assert!((5.0..10.0).contains(&gmac), "VGG-A GMAC {gmac}");
        assert_eq!(spec.weighted_layer_count(), 11);
    }

    #[test]
    fn googlenet_matches_intro_citation() {
        // "GoogleNet in 2014 required 3.9 billion [operations]" (§I).
        // Counting one MAC as two operations, forward ≈ 1.5-2 GMAC.
        let spec = googlenet_spec();
        let ops = 2.0 * spec.forward_macs() as f64 / 1e9;
        assert!(
            (2.0..4.5).contains(&ops),
            "GoogLeNet ops {ops}e9 vs cited 3.9e9"
        );
        // ~7M parameters (the famous 12x reduction vs AlexNet).
        let mparams = spec.total_weights() as f64 / 1e6;
        assert!((4.0..10.0).contains(&mparams), "params {mparams}M");
        // 2 stem convs + 1x1 conv + 9 modules x 6 convs + 1 FC = 58 weighted.
        assert_eq!(spec.weighted_layer_count(), 58);
    }

    #[test]
    fn dcgan_specs_mirror_each_other() {
        for hw in [16usize, 32, 64] {
            let g = dcgan_generator_spec(100, 3, hw);
            let d = dcgan_discriminator_spec(3, hw);
            assert!(g.weighted_layer_count() >= 2);
            assert!(d.weighted_layer_count() >= 2);
            // Generator's final FCNN emits the image the discriminator consumes.
            let last = g
                .weighted_layers()
                .last()
                .expect("generator has weighted layers");
            if let LayerSpec::FracConv { out_c, .. } = last {
                assert_eq!(*out_c, 3);
            } else {
                panic!("generator must end in a fractional-strided conv");
            }
        }
    }
}
