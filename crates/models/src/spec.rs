//! Network architecture descriptions.
//!
//! Workers never ship layer objects to each other; they share a
//! [`NetworkSpec`] + seed and build identical replicas locally, mirroring the
//! paper's "model replication on each worker with the same initialization"
//! (§4). The spec is also what the model zoo returns.

use rand::SeedableRng;

use crate::network::Network;

/// An MLP architecture: `input → h₁ → ReLU → h₂ → ReLU → … → classes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Expected input feature count.
    pub input_dim: usize,
    /// Hidden layer widths, in execution order.
    pub hidden: Vec<usize>,
    /// Output (logit) count.
    pub num_classes: usize,
}

impl NetworkSpec {
    /// An MLP with the given hidden widths.
    pub fn mlp(input_dim: usize, hidden: &[usize], num_classes: usize) -> Self {
        NetworkSpec {
            input_dim,
            hidden: hidden.to_vec(),
            num_classes,
        }
    }

    /// Builds the network, initializing all parameters from `seed`.
    ///
    /// Two calls with the same spec and seed produce bit-identical networks —
    /// this is how every worker starts from the same replica.
    ///
    /// # Panics
    /// Panics if any width is zero.
    pub fn build(&self, seed: u64) -> Network {
        let mut widths = vec![self.input_dim];
        widths.extend(&self.hidden);
        widths.push(self.num_classes);
        Network::new(widths, &mut rand::rngs::StdRng::seed_from_u64(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_spec_shape() {
        let net = NetworkSpec::mlp(10, &[32, 16], 4).build(0);
        assert_eq!(
            format!("{net:?}"),
            "Network(10 -> 32 -> 16 -> 4, params=948)"
        );
        assert_eq!(net.param_count(), 10 * 32 + 32 + 32 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn build_is_seed_deterministic() {
        let s = NetworkSpec::mlp(8, &[16], 3);
        let a = s.build(42);
        let b = s.build(42);
        assert_eq!(a.param_vector(), b.param_vector());
        let c = s.build(43);
        assert_ne!(a.param_vector(), c.param_vector());
    }

    #[test]
    #[should_panic(expected = "zero-sized dense layer")]
    fn build_rejects_a_zero_width() {
        NetworkSpec::mlp(10, &[8, 0], 4).build(0);
    }
}
