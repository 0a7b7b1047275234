//! The in-process group average over arbitrary rank subsets.
//!
//! Partial reduce needs collectives over *dynamic temporary groups*
//! (Algorithm 2, line 6-7): the controller names `P` ranks and exactly those
//! ranks run a model average. In-process it runs star-shaped, like the TCP
//! star in [`crate::mesh`]: the first member of the assignment
//! (`group[0]`) is the leader, and it folds every contribution in
//! group-position order — per element `0 + w₀·x₀ + w₁·x₁ + …`, the order of
//! the simulator's `kernels::weighted_sum_acc` and of the TCP star, so all
//! three produce the same bits from the same models and weights.
//!
//! The model travels in `p` segments, at most two of them in flight
//! per member: a member sends two, then sends segment `s + 2` once the
//! average of `s` is back and written. Each member's transport buffers
//! thus hold `2/p` of its model, not all of it, and the leader finds the
//! next segment waiting whenever it finishes one. The leader sends every
//! member its own buffer back with the average in it, so buffers return to
//! their owner's pool ([`Endpoint::recycle`]) and a steady-state round
//! allocates no payload.
//!
//! Tag discipline: each logical collective must use a caller-unique
//! `base_tag`; segment `s` travels on `base_tag + s` in both directions.
//! Callers should space base tags by at least [`TAG_STRIDE`].

use preduce_tensor::kernels;

use crate::endpoint::Endpoint;
use crate::error::CommError;
use crate::mesh::{check_len, GroupAverager};
use crate::Result;

/// Minimum spacing between base tags of concurrent collectives.
pub const TAG_STRIDE: u64 = 1 << 16;

/// Segments a member keeps in flight: when the leader sends segment `s`
/// back, segment `s + 1` is already waiting for it.
const WINDOW: usize = 2;

/// Validates a group and returns the caller's position within it.
fn position_in_group(ep: &Endpoint, group: &[usize]) -> Result<usize> {
    if group.is_empty() {
        return Err(CommError::InvalidGroup("empty group".into()));
    }
    let world = ep.world_size();
    if let Some(&bad) = group.iter().find(|&&r| r >= world) {
        return Err(CommError::InvalidGroup(format!(
            "rank {bad} out of range for world of {world}"
        )));
    }
    let mut sorted = group.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w.first() == w.last()) {
        return Err(CommError::InvalidGroup("duplicate member".into()));
    }
    group.iter().position(|&r| r == ep.rank()).ok_or_else(|| {
        CommError::InvalidGroup(format!("caller rank {} not in group {group:?}", ep.rank()))
    })
}

/// `data` cut into `p` contiguous segments, the first `len % p` of them one
/// element longer. Empty segments are included, so both ends of an average
/// exchange exactly `p` messages and any length disagreement shows up as a
/// segment of the wrong length.
fn segments(data: &mut [f32], p: usize) -> impl Iterator<Item = &mut [f32]> {
    let (base, extra) = (data.len() / p, data.len() % p);
    let mut rest = data;
    (0..p).map(move |s| {
        let len = base + usize::from(s < extra);
        let (segment, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        segment
    })
}

/// Leader role: per segment, take every member's contribution, fold all of
/// them into the leader's own slice in group-position order, and send each
/// member its buffer back holding the result. A segment is folded only once
/// every contribution to it has arrived.
fn lead(
    ep: &mut Endpoint,
    members: &[usize],
    base_tag: u64,
    data: &mut [f32],
    own_weight: f32,
    member_weights: &[f32],
) -> Result<()> {
    let mut inbox = Vec::with_capacity(members.len());
    for (tag, segment) in (base_tag..).zip(segments(data, members.len() + 1)) {
        for &member in members {
            let x = ep.recv(member, tag)?;
            check_len(segment.len(), x.len())?;
            inbox.push(x);
        }
        // `0.0 +` keeps a negative-zero product bit-identical to what a
        // from-zero accumulator yields.
        for x in segment.iter_mut() {
            *x = 0.0 + own_weight * *x;
        }
        for (x, &w) in inbox.iter().zip(member_weights) {
            kernels::axpy(segment, w, x);
        }
        for (&member, mut buf) in members.iter().zip(inbox.drain(..)) {
            buf.copy_from_slice(segment);
            ep.send(member, tag, buf)?;
        }
    }
    Ok(())
}

/// Member role: send each segment to the leader, at most [`WINDOW`] ahead
/// of the averages received, and overwrite it with the average that comes
/// back.
fn join(ep: &mut Endpoint, leader: usize, p: usize, base_tag: u64, data: &mut [f32]) -> Result<()> {
    let mut segs: Vec<&mut [f32]> = segments(data, p).collect();
    for (tag, segment) in (base_tag..).zip(&segs).take(WINDOW) {
        ep.send_from_slice(leader, tag, segment)?;
    }
    for (s, tag) in (0..p).zip(base_tag..) {
        let average = ep.recv(leader, tag)?;
        if let Some(segment) = segs.get_mut(s) {
            check_len(segment.len(), average.len())?;
            segment.copy_from_slice(&average);
        }
        ep.recycle(average);
        if let Some(next) = segs.get(s + WINDOW) {
            ep.send_from_slice(leader, tag + WINDOW as u64, next)?;
        }
    }
    Ok(())
}

/// The in-process group average: `Σ_j weights[j] · data_j` on every
/// member, the aggregation step of constant (`weights = [1/P; P]`) and
/// dynamic (Eq. 9) partial reduce alike, folded on `group[0]` in
/// group-position order.
impl GroupAverager for Endpoint {
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let me = position_in_group(self, group)?;
        let (Some((&leader, members)), Some((&own_weight, member_weights))) =
            (group.split_first(), weights.split_first())
        else {
            return Err(CommError::InvalidGroup("no weights".into()));
        };
        if weights.len() != group.len() {
            return Err(CommError::InvalidGroup(format!(
                "group of {} with {} weights",
                group.len(),
                weights.len()
            )));
        }
        if me == 0 {
            lead(self, members, base_tag, data, own_weight, member_weights)
        } else {
            join(self, leader, group.len(), base_tag, data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::CommWorld;
    use std::thread;

    /// Runs `f(rank, endpoint)` on every rank in its own thread and returns
    /// the per-rank results in rank order.
    fn run_world<T: Send + 'static>(
        n: usize,
        f: impl Fn(usize, &mut Endpoint) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let eps = CommWorld::new(n).into_endpoints();
        let f = std::sync::Arc::new(f);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                let f = f.clone();
                thread::spawn(move || f(rank, &mut ep))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Non-representable values, different on every rank, so that fold
    /// order is observable.
    fn model(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| 0.1 + (i % 97) as f32 * 0.3 + rank as f32 * 0.7)
            .collect()
    }

    fn assert_bit_equal(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// Sums with unit weights on every rank of `group`, the rest idle.
    fn unit_sum(n: usize, group: &'static [usize], len: usize) -> Vec<Vec<f32>> {
        run_world(n, move |rank, ep| {
            let mut data = vec![rank as f32 + 1.0; len];
            if group.contains(&rank) {
                ep.group_weighted_average(group, 0, &mut data, &vec![1.0; group.len()])
                    .unwrap();
            }
            data
        })
    }

    #[test]
    fn full_world_sums() {
        for r in unit_sum(4, &[0, 1, 2, 3], 10) {
            assert_eq!(r, vec![10.0; 10]); // 1+2+3+4
        }
    }

    #[test]
    fn subgroup_leaves_outsiders_alone() {
        let results = unit_sum(4, &[1, 3], 7);
        assert_eq!(results[0], vec![1.0; 7]);
        assert_eq!(results[1], vec![6.0; 7]); // 2 + 4
        assert_eq!(results[2], vec![3.0; 7]);
        assert_eq!(results[3], vec![6.0; 7]);
    }

    #[test]
    fn data_shorter_than_group() {
        // len < p exercises empty segments.
        for r in unit_sum(4, &[0, 1, 2, 3], 2) {
            assert_eq!(r, vec![10.0; 2]);
        }
    }

    #[test]
    fn segments_partition() {
        for (len, p) in [(10usize, 3usize), (2, 4), (7, 7), (0, 2), (16, 4)] {
            let mut data: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let lens: Vec<usize> = segments(&mut data, p).map(|s| s.len()).collect();
            assert_eq!(lens.len(), p);
            assert_eq!(lens.iter().sum::<usize>(), len);
            assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            let joined: Vec<f32> = segments(&mut data, p).flat_map(|s| s.to_vec()).collect();
            assert_eq!(joined, data);
        }
    }

    #[test]
    fn group_average_is_the_kernel_fold_in_group_position_order() {
        // Longer than one 64 Ki-element segment of the TCP star, with an
        // uneven tail for every P, and the leader not rank 0: every member
        // ends with the bits of the simulator's kernel, a from-zero
        // accumulator fed the models in group order.
        let len = (1 << 16) + 4_099;
        for p in 2..=4usize {
            let group: Vec<usize> = (0..p).rev().collect();
            let weights: Vec<f32> = (0..p).map(|j| (j + 1) as f32 / 7.0).collect();
            let models: Vec<Vec<f32>> = group.iter().map(|&r| model(r, len)).collect();
            let views: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
            let mut want = vec![0.0; len];
            kernels::weighted_sum_acc(&mut want, &views, &weights);
            let (g, w) = (group.clone(), weights.clone());
            let results = run_world(p, move |rank, ep| {
                let mut data = model(rank, len);
                ep.group_weighted_average(&g, 0, &mut data, &w).unwrap();
                data
            });
            for got in &results {
                assert_bit_equal(got, &want);
            }
        }
    }

    #[test]
    fn group_average_with_uniform_weights_is_mean() {
        let results = run_world(3, |rank, ep| {
            let mut data = vec![(rank * 3) as f32; 5];
            let w = [1.0 / 3.0; 3];
            ep.group_weighted_average(&[0, 1, 2], 0, &mut data, &w)
                .unwrap();
            data
        });
        for r in results {
            for v in r {
                assert!((v - 3.0).abs() < 1e-6); // (0+3+6)/3
            }
        }
    }

    #[test]
    fn group_average_respects_weights() {
        let results = run_world(2, |rank, ep| {
            let mut data = vec![if rank == 0 { 10.0 } else { 20.0 }];
            let w = [0.9, 0.1];
            ep.group_weighted_average(&[0, 1], 0, &mut data, &w)
                .unwrap();
            data
        });
        for r in results {
            assert!((r[0] - 11.0).abs() < 1e-5); // 0.9·10 + 0.1·20
        }
    }

    #[test]
    fn group_average_singleton_scales_in_place() {
        let mut eps = CommWorld::new(1).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![2.0, 6.0];
        e0.group_weighted_average(&[0], 0, &mut data, &[0.5])
            .unwrap();
        assert_eq!(data, vec![1.0, 3.0]);
    }

    #[test]
    fn group_average_repeats_its_bits() {
        let run = || {
            run_world(3, |rank, ep| {
                let mut data = model(rank, 17);
                let w = [0.3f32, 0.4, 0.3];
                ep.group_weighted_average(&[0, 1, 2], 0, &mut data, &w)
                    .unwrap();
                data
            })
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            assert_bit_equal(ra, rb);
            assert_bit_equal(ra, &a[0]);
        }
    }

    #[test]
    fn group_averages_on_adjacent_base_tags_do_not_interfere() {
        // Two rounds of two concurrent pairs, base tags one stride apart
        // and no barrier in between: a fast rank's round-two segments reach
        // a peer still inside round one and must wait for their own tag.
        let results = run_world(4, |rank, ep| {
            let half = [0.5f32, 0.5];
            let mut data = vec![rank as f32 * 4.0; 9];
            let (first, tag) = if rank < 2 {
                ([0, 1], 0)
            } else {
                ([2, 3], TAG_STRIDE)
            };
            ep.group_weighted_average(&first, tag, &mut data, &half)
                .unwrap();
            let (second, tag) = if rank == 1 || rank == 2 {
                ([1, 2], 2 * TAG_STRIDE)
            } else {
                ([3, 0], 3 * TAG_STRIDE)
            };
            ep.group_weighted_average(&second, tag, &mut data, &half)
                .unwrap();
            data
        });
        // Round one: {0, 4} → 2 and {8, 12} → 10; round two mixes one
        // member of each pair: (2 + 10) / 2 on every rank.
        for r in results {
            assert_eq!(r, vec![6.0; 9]);
        }
    }

    #[test]
    fn group_average_rejects_a_short_weight_row() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![1.0];
        assert!(matches!(
            e0.group_weighted_average(&[0, 1], 0, &mut data, &[1.0]),
            Err(CommError::InvalidGroup(_))
        ));
        assert_eq!(data, vec![1.0], "rejected before scaling");
    }

    #[test]
    fn concurrent_groups_do_not_interfere() {
        // Two disjoint pairs average concurrently with distinct tags.
        let results = run_world(4, |rank, ep| {
            let group: Vec<usize> = if rank < 2 { vec![0, 1] } else { vec![2, 3] };
            let tag = if rank < 2 { 0 } else { TAG_STRIDE };
            let mut data = vec![rank as f32; 4];
            ep.group_weighted_average(&group, tag, &mut data, &[1.0, 1.0])
                .unwrap();
            data
        });
        assert_eq!(results[0], vec![1.0; 4]);
        assert_eq!(results[1], vec![1.0; 4]);
        assert_eq!(results[2], vec![5.0; 4]);
        assert_eq!(results[3], vec![5.0; 4]);
    }

    #[test]
    fn rejects_caller_outside_group_and_duplicate_members() {
        let mut eps = CommWorld::new(3).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![0.0];
        for group in [[1, 2], [0, 0]] {
            assert!(matches!(
                e0.group_weighted_average(&group, 0, &mut data, &[0.5, 0.5]),
                Err(CommError::InvalidGroup(_))
            ));
        }
    }

    #[test]
    fn steady_state_rounds_reuse_the_members_buffers() {
        // After the first round every member's pool holds the buffers the
        // leader sent back, one per segment in flight, and the leader's
        // pool stays empty.
        let pools = run_world(3, |rank, ep| {
            let w = [0.5f32, 0.25, 0.25];
            for round in 0..5 {
                let mut data = model(rank, 10);
                ep.group_weighted_average(&[0, 1, 2], round * TAG_STRIDE, &mut data, &w)
                    .unwrap();
            }
            ep.pooled()
        });
        assert_eq!(pools, vec![0, WINDOW, WINDOW]);
    }
}
