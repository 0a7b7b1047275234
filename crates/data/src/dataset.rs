use preduce_tensor::Tensor;

/// A labeled classification dataset with dense `f32` features.
///
/// Features are stored row-major as an `[n, d]` tensor; labels are class
/// indices in `0..num_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

/// A minibatch extracted from a [`Dataset`]: `[batch, d]` features plus the
/// matching class labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// `[batch, d]` feature rows.
    pub features: Tensor,
    /// Class index per row.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

impl Dataset {
    /// Builds a dataset from an `[n, d]` feature tensor and labels.
    ///
    /// # Panics
    /// Panics if `features` is not rank-2, the label count differs from the
    /// row count, or a label is out of `0..num_classes`.
    pub fn new(features: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            features.shape().rank(),
            2,
            "dataset features must be [n, d], got {}",
            features.shape()
        );
        assert_eq!(
            features.shape().dim(0),
            labels.len(),
            "feature rows ({}) and labels ({}) disagree",
            features.shape().dim(0),
            labels.len()
        );
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "label out of range for {num_classes} classes"
        );
        Dataset {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality `d`.
    pub fn feature_dim(&self) -> usize {
        self.features.shape().dim(1)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full `[n, d]` feature tensor.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Copies the examples at `indices` into a new [`Batch`].
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        assert!(!indices.is_empty(), "cannot gather an empty batch");
        let d = self.feature_dim();
        let mut data = Vec::with_capacity(indices.len() * d);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        Batch {
            features: Tensor::from_vec(data, [indices.len(), d])
                .expect("gather volume matches by construction"),
            labels,
        }
    }

    /// Splits off the last `n_test` examples as a held-out test set,
    /// returning `(train, test)`.
    ///
    /// # Panics
    /// Panics if `n_test >= len()`.
    pub fn split_test(self, n_test: usize) -> (Dataset, Dataset) {
        assert!(
            n_test < self.len(),
            "test split ({n_test}) must be smaller than the dataset ({})",
            self.len()
        );
        let n_train = self.len() - n_test;
        let d = self.feature_dim();
        // The test rows move out; the training rows stay where they are.
        let mut train_data = self.features.into_vec();
        let test_data = train_data.split_off(n_train * d);
        train_data.shrink_to_fit();
        let mut train_labels = self.labels;
        let test_labels = train_labels.split_off(n_train);
        train_labels.shrink_to_fit();
        (
            Dataset::new(
                Tensor::from_vec(train_data, [n_train, d]).expect("sizes match"),
                train_labels,
                self.num_classes,
            ),
            Dataset::new(
                Tensor::from_vec(test_data, [n_test, d]).expect("sizes match"),
                test_labels,
                self.num_classes,
            ),
        )
    }

    /// Builds a dataset from a subset of this one (used by sharding).
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let b = self.gather(indices);
        Dataset::new(b.features, b.labels, self.num_classes)
    }

    /// Returns a copy with a `fraction` of labels replaced by uniform
    /// random classes (label noise). Applied to *training* data only by
    /// the experiment harness: it keeps the gradient variance high near
    /// the accuracy plateau, the regime in which batch averaging — and
    /// therefore synchronous data parallelism — earns its keep.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_label_noise<R: rand::Rng + ?Sized>(
        mut self,
        fraction: f64,
        rng: &mut R,
    ) -> Dataset {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "noise fraction must lie in [0, 1]"
        );
        let c = self.num_classes;
        for y in &mut self.labels {
            if rng.gen_bool(fraction) {
                *y = rng.gen_range(0..c);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features =
            Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0], [4, 2]).unwrap();
        Dataset::new(features, vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.labels(), &[0, 1, 0, 1]);
    }

    #[test]
    fn gather_copies_rows() {
        let d = toy();
        let b = d.gather(&[2, 0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.features.row(0), &[2.0, 2.0]);
        assert_eq!(b.features.row(1), &[0.0, 0.0]);
        assert_eq!(b.labels, vec![0, 0]);
    }

    #[test]
    fn split_test_partitions() {
        let (train, test) = toy().split_test(1);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.labels(), &[1]);
        assert_eq!(test.features().row(0), &[3.0, 3.0]);
    }

    #[test]
    fn subset_preserves_num_classes() {
        let s = toy().subset(&[1, 3]);
        assert_eq!(s.num_classes(), 2);
        assert_eq!(s.labels(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        Dataset::new(Tensor::zeros([1, 2]), vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn rejects_label_count_mismatch() {
        Dataset::new(Tensor::zeros([2, 2]), vec![0], 2);
    }
}
