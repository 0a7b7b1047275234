//! Fixture for the allow grammar: a reasonless allow and an
//! unknown-pass allow are both `allow-syntax` findings, and neither
//! suppresses the underlying `weight-stochasticity` finding.

pub fn f(p: usize) -> Vec<f32> {
    vec![1.0 / p as f32; p] // lint: allow(weight-stochasticity)
}

pub fn g(p: usize) -> Vec<f32> {
    vec![1.0 / p as f32; p] // lint: allow(not-a-pass) the reason is present but the pass is unknown
}
