//! Synthetic stand-ins for the paper's benchmark datasets.
//!
//! PipeLayer evaluates on MNIST and ImageNet; ReGAN on MNIST, cifar-10,
//! celebA and LSUN (§III-C). We cannot ship those datasets, and the
//! accelerator's cycle/energy behaviour depends only on tensor *shapes* and
//! layer topology — never on pixel values — so each dataset is replaced by a
//! deterministic generator producing images of the matching shape with a
//! separable class structure (fixed per-class prototype patterns plus
//! noise). Functional experiments still train end-to-end: classifiers reach
//! high accuracy and GANs converge on these sets, exercising the identical
//! code paths. The substitution is recorded in DESIGN.md.
//!
//! # Example
//!
//! ```
//! use reram_datasets::Dataset;
//! use reram_tensor::init::seeded_rng;
//!
//! let ds = Dataset::mnist_like();
//! let mut rng = seeded_rng(0);
//! let (images, labels) = ds.batch(4, &mut rng);
//! assert_eq!(images.shape().n, 4);
//! assert_eq!(labels.len(), 4);
//! ```

#![warn(missing_docs)]

use rand::Rng;
use reram_tensor::{init, Shape4, Tensor};

/// Which of the paper's datasets a generator mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MNIST \[21\]: 1×28×28 grayscale digits, 10 classes.
    Mnist,
    /// cifar-10 \[23\]: 3×32×32 colour images, 10 classes.
    Cifar10,
    /// celebA \[24\]: 3×64×64 face crops (2 attribute classes here).
    CelebA,
    /// LSUN \[25\]: 3×64×64 scene images (10 scene classes).
    Lsun,
    /// ImageNet \[22\]: 3×224×224, 1000 classes.
    ImageNet,
}

/// A deterministic synthetic dataset with class-conditional structure.
///
/// Class `c`'s samples are a fixed low-frequency prototype pattern (derived
/// from the dataset seed and `c`) plus i.i.d. noise, clamped to `[-1, 1]`.
/// Prototypes are mutually distinct, so the classes are separable and
/// training demonstrably converges.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    shape: Shape4,
    classes: usize,
    seed: u64,
    noise: f32,
}

impl Dataset {
    /// Creates a generator for the given dataset kind with default seed.
    pub fn new(kind: DatasetKind) -> Self {
        let (shape, classes) = match kind {
            DatasetKind::Mnist => (Shape4::new(1, 1, 28, 28), 10),
            DatasetKind::Cifar10 => (Shape4::new(1, 3, 32, 32), 10),
            DatasetKind::CelebA => (Shape4::new(1, 3, 64, 64), 2),
            DatasetKind::Lsun => (Shape4::new(1, 3, 64, 64), 10),
            DatasetKind::ImageNet => (Shape4::new(1, 3, 224, 224), 1000),
        };
        Self {
            kind,
            shape,
            classes,
            seed: 0x5eed,
            noise: 0.25,
        }
    }

    /// MNIST-shaped generator.
    pub fn mnist_like() -> Self {
        Self::new(DatasetKind::Mnist)
    }

    /// cifar-10-shaped generator.
    pub fn cifar10_like() -> Self {
        Self::new(DatasetKind::Cifar10)
    }

    /// celebA-shaped generator.
    pub fn celeba_like() -> Self {
        Self::new(DatasetKind::CelebA)
    }

    /// LSUN-shaped generator.
    pub fn lsun_like() -> Self {
        Self::new(DatasetKind::Lsun)
    }

    /// ImageNet-shaped generator.
    pub fn imagenet_like() -> Self {
        Self::new(DatasetKind::ImageNet)
    }

    /// Same dataset downscaled to `hw × hw` images (for fast functional
    /// runs; cost experiments use the native shape).
    ///
    /// # Panics
    ///
    /// Panics if `hw == 0`.
    pub fn with_resolution(mut self, hw: usize) -> Self {
        assert!(hw > 0, "zero resolution");
        self.shape = Shape4::new(1, self.shape.c, hw, hw);
        self
    }

    /// Same dataset with a different generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same dataset with a different per-sample noise amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative.
    pub fn with_noise(mut self, noise: f32) -> Self {
        assert!(noise >= 0.0, "negative noise amplitude");
        self.noise = noise;
        self
    }

    /// The mimicked dataset.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Per-entry image shape.
    pub fn image_shape(&self) -> Shape4 {
        self.shape
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The fixed prototype image of class `c`.
    ///
    /// A smooth pseudo-random pattern: two spatial sinusoids whose
    /// frequencies and phases are derived from `(seed, c, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.classes()`.
    pub fn prototype(&self, c: usize) -> Tensor {
        assert!(c < self.classes, "class {c} out of range {}", self.classes);
        let s = self.shape;
        Tensor::from_fn(s, |_, ch, h, w| {
            let key = self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((c as u64) << 32) | ch as u64);
            let fx = 1.0 + (key % 5) as f32;
            let fy = 1.0 + ((key >> 8) % 5) as f32;
            let phase = ((key >> 16) % 628) as f32 / 100.0;
            let u = h as f32 / s.h as f32;
            let v = w as f32 / s.w as f32;
            0.7 * ((fx * u * std::f32::consts::TAU + phase).sin()
                * (fy * v * std::f32::consts::TAU + 0.5 * phase).cos())
        })
    }

    /// Draws a labelled batch: `(images, labels)` with labels uniform over
    /// the classes.
    pub fn batch(&self, batch: usize, rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        let labels: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..self.classes)).collect();
        let images = self.batch_for_labels(&labels, rng);
        (images, labels)
    }

    /// Draws samples of specific classes.
    ///
    /// # Panics
    ///
    /// Panics if any label is out of range.
    pub fn batch_for_labels(&self, labels: &[usize], rng: &mut impl Rng) -> Tensor {
        let parts: Vec<Tensor> = labels
            .iter()
            .map(|&c| {
                let mut img = self.prototype(c);
                if self.noise > 0.0 {
                    let noise = init::normal(self.shape, self.noise, rng);
                    img += &noise;
                }
                img.map_inplace(|v| v.clamp(-1.0, 1.0));
                img
            })
            .collect();
        Tensor::stack_batches(&parts)
    }

    /// Draws an unlabelled batch (GAN training data).
    pub fn unlabeled_batch(&self, batch: usize, rng: &mut impl Rng) -> Tensor {
        self.batch(batch, rng).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_tensor::init::seeded_rng;

    #[test]
    fn shapes_match_paper_datasets() {
        assert_eq!(
            Dataset::mnist_like().image_shape(),
            Shape4::new(1, 1, 28, 28)
        );
        assert_eq!(
            Dataset::cifar10_like().image_shape(),
            Shape4::new(1, 3, 32, 32)
        );
        assert_eq!(
            Dataset::celeba_like().image_shape(),
            Shape4::new(1, 3, 64, 64)
        );
        assert_eq!(
            Dataset::lsun_like().image_shape(),
            Shape4::new(1, 3, 64, 64)
        );
        assert_eq!(
            Dataset::imagenet_like().image_shape(),
            Shape4::new(1, 3, 224, 224)
        );
        assert_eq!(Dataset::imagenet_like().classes(), 1000);
    }

    #[test]
    fn batch_shape_and_labels_in_range() {
        let ds = Dataset::mnist_like();
        let mut rng = seeded_rng(1);
        let (x, y) = ds.batch(8, &mut rng);
        assert_eq!(x.shape(), Shape4::new(8, 1, 28, 28));
        assert_eq!(y.len(), 8);
        assert!(y.iter().all(|&c| c < 10));
    }

    #[test]
    fn values_clamped_to_unit_range() {
        let ds = Dataset::cifar10_like().with_noise(2.0);
        let mut rng = seeded_rng(2);
        let (x, _) = ds.batch(4, &mut rng);
        assert!(x.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn prototypes_are_distinct() {
        let ds = Dataset::mnist_like();
        for a in 0..10 {
            for b in (a + 1)..10 {
                let d = ds.prototype(a).squared_distance(&ds.prototype(b));
                assert!(d > 1.0, "classes {a} and {b} overlap (d={d})");
            }
        }
    }

    #[test]
    fn same_class_samples_cluster_near_prototype() {
        let ds = Dataset::mnist_like();
        let mut rng = seeded_rng(3);
        let x = ds.batch_for_labels(&[3, 3], &mut rng);
        let proto = ds.prototype(3);
        let per_pixel_a = x.batch_entry(0).squared_distance(&proto) / proto.len() as f32;
        // Noise sigma 0.25 -> expected per-pixel squared distance ~0.0625.
        assert!(
            per_pixel_a < 0.2,
            "sample too far from prototype: {per_pixel_a}"
        );
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let ds = Dataset::lsun_like();
        let (a, la) = ds.batch(3, &mut seeded_rng(7));
        let (b, lb) = ds.batch(3, &mut seeded_rng(7));
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::mnist_like().with_seed(1).prototype(0);
        let b = Dataset::mnist_like().with_seed(2).prototype(0);
        assert!(a.squared_distance(&b) > 0.1);
    }

    #[test]
    fn resolution_override() {
        let ds = Dataset::celeba_like().with_resolution(16);
        assert_eq!(ds.image_shape(), Shape4::new(1, 3, 16, 16));
        let mut rng = seeded_rng(4);
        assert_eq!(
            ds.unlabeled_batch(2, &mut rng).shape(),
            Shape4::new(2, 3, 16, 16)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prototype_rejects_bad_class() {
        let _ = Dataset::mnist_like().prototype(10);
    }

    #[test]
    fn a_classifier_can_learn_this_data() {
        // End-to-end separability proof: logistic regression on two MNIST
        // classes reaches perfect training accuracy within a few steps.
        fn sigmoid(z: f32) -> f32 {
            1.0 / (1.0 + (-z).exp())
        }
        let ds = Dataset::mnist_like().with_resolution(8);
        let mut rng = seeded_rng(5);
        let mut weights = vec![0.0f32; 64];
        let mut bias = 0.0f32;
        let mut acc = 0.0;
        for _ in 0..60 {
            let x = ds.batch_for_labels(&[0, 1], &mut rng);
            let mut correct = 0;
            for (i, target) in [0.0f32, 1.0].iter().enumerate() {
                let img = x.batch_entry(i);
                let z: f32 = img
                    .data()
                    .iter()
                    .zip(&weights)
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    + bias;
                let p = sigmoid(z);
                if (p > 0.5) == (*target > 0.5) {
                    correct += 1;
                }
                let g = p - target;
                for (w, &xv) in weights.iter_mut().zip(img.data()) {
                    *w -= 0.5 * g * xv;
                }
                bias -= 0.5 * g;
            }
            acc = correct as f32 / 2.0;
        }
        assert_eq!(acc, 1.0, "synthetic classes must be separable");
    }
}
