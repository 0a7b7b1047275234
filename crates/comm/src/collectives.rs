//! Group collectives over arbitrary rank subsets.
//!
//! Partial reduce needs collectives over *dynamic temporary groups*
//! (Algorithm 2, line 6-7): the controller names `P` ranks and exactly those
//! ranks run a model average. These routines implement the standard ring
//! algorithms restricted to a group, matching the bandwidth-optimal pattern
//! used by Gloo/NCCL (`2(p−1)/p · bytes` on the wire per rank for
//! all-reduce).
//!
//! Tag discipline: each logical collective must use a caller-unique
//! `base_tag`; internal steps consume `base_tag + step` (a ring
//! all-reduce spends `2·(p−1)` tags). Callers should space base tags by
//! at least [`TAG_STRIDE`].
//!
//! Hot-path sends go through the endpoint's reclaimed-buffer pool
//! ([`Endpoint::send_from_slice`] / [`Endpoint::recycle`]): each
//! received chunk is folded into the accumulator and its buffer
//! recycled into the next send, so steady-state ring traffic performs
//! no per-step allocation.

use crate::endpoint::Endpoint;
use crate::error::CommError;
use crate::mesh::GroupAverager;
use crate::Result;

/// Minimum spacing between base tags of concurrent collectives.
pub const TAG_STRIDE: u64 = 1 << 16;

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

/// The byte range of chunk `idx` of `len` elements split into `p` chunks.
fn chunk_range(len: usize, p: usize, idx: usize) -> std::ops::Range<usize> {
    let base = len / p;
    let extra = len % p;
    let start = idx * base + idx.min(extra);
    let size = base + usize::from(idx < extra);
    start..start + size
}

/// One ring step for the member at position `me` of `group`, over the
/// `group.len()` chunks of `data`: sends chunk `send_idx` to the next
/// member and receives the chunk before it from the previous one, either
/// adding it into place (`fold`, the reduce-scatter half) or overwriting
/// with it (the all-gather half). The received buffer goes back to the
/// endpoint's pool.
#[allow(
    clippy::indexing_slicing,
    reason = "ring neighbours are taken `% p` with `p = group.len()`, and `chunk_range` of an index below `p` lies inside `0..data.len()`"
)]
fn ring_step(
    ep: &mut Endpoint,
    group: &[usize],
    me: usize,
    tag: u64,
    data: &mut [f32],
    send_idx: usize,
    fold: bool,
) -> Result<()> {
    let p = group.len();
    let next = group[(me + 1) % p];
    let prev = group[(me + p - 1) % p];
    ep.send_from_slice(next, tag, &data[chunk_range(data.len(), p, send_idx)])?;
    let incoming = ep.recv(prev, tag)?;
    let range = chunk_range(data.len(), p, (send_idx + p - 1) % p);
    if incoming.len() != range.len() {
        return Err(CommError::PayloadMismatch {
            expected: range.len(),
            actual: incoming.len(),
        });
    }
    if fold {
        for (d, x) in data[range].iter_mut().zip(incoming.iter()) {
            *d += x;
        }
    } else {
        data[range].copy_from_slice(&incoming);
    }
    ep.recycle(incoming);
    Ok(())
}

/// In-place ring all-reduce (sum) of `data` across `group`: a
/// reduce-scatter on tags `base_tag..base_tag + p − 1`, then an
/// all-gather on the next `p − 1`.
///
/// Every member must call this with the same `group` ordering, the same
/// `base_tag`, and equal-length `data`. After return, every member holds the
/// elementwise sum, bit for bit the same one: position `i` folds chunk `i`
/// in ring order and every other member copies it. A singleton group is a
/// no-op.
fn ring_allreduce(
    ep: &mut Endpoint,
    group: &[usize],
    base_tag: u64,
    data: &mut [f32],
) -> Result<()> {
    reduce_scatter(ep, group, base_tag, data)?;
    all_gather(ep, group, base_tag + (group.len() as u64 - 1), data)
}

/// The in-process group average: every member scales its own model by its
/// own weight, then one plain `ring_allreduce` sums the group — `Σ_j
/// weights[j] · data_j` on every member, the aggregation step of constant
/// (`weights = [1/P; P]`) and dynamic (Eq. 9) partial reduce alike, at the
/// wire cost of an all-reduce. Channels deliver a whole chunk in one
/// hand-off, so there is no transport for a segment pipeline to overlap
/// (the TCP star in [`crate::mesh`] is where segments pay).
impl GroupAverager for Endpoint {
    fn group_weighted_average(
        &mut self,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let me = position_in_group(self, group)?;
        let w = match weights.get(me) {
            Some(&w) if weights.len() == group.len() => w,
            _ => {
                return Err(CommError::InvalidGroup(format!(
                    "group of {} with {} weights",
                    group.len(),
                    weights.len()
                )))
            }
        };
        for d in data.iter_mut() {
            *d *= w;
        }
        ring_allreduce(self, group, base_tag, data)
    }
}

/// Reduce-scatter: after the call, the member at position `i` of `group`
/// holds the fully-summed chunk `i` of `data` (`data` split into
/// `group.len()` near-equal contiguous chunks, ownership as in MPI's
/// `Reduce_scatter`); other chunks are left in an unspecified
/// partially-reduced state. Returns the caller's owned chunk range.
/// Uses tags `base_tag..base_tag + p − 1`.
fn reduce_scatter(
    ep: &mut Endpoint,
    group: &[usize],
    base_tag: u64,
    data: &mut [f32],
) -> Result<std::ops::Range<usize>> {
    let me = position_in_group(ep, group)?;
    let p = group.len();
    // Each step passes on the chunk folded in the step before, starting
    // from chunk `me − 1`, so the last chunk folded is the caller's own.
    for s in 0..p - 1 {
        let send_idx = (me + p - 1 - s) % p;
        ring_step(ep, group, me, base_tag + s as u64, data, send_idx, true)?;
    }
    Ok(chunk_range(data.len(), p, me))
}

/// All-gather: the member at position `i` contributes chunk `i` of `data`
/// (the rest of its buffer is overwritten); after the call every member
/// holds all chunks. Chunk partition and tag use as in
/// [`reduce_scatter`].
fn all_gather(ep: &mut Endpoint, group: &[usize], base_tag: u64, data: &mut [f32]) -> Result<()> {
    let me = position_in_group(ep, group)?;
    let p = group.len();
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        ring_step(ep, group, me, base_tag + s as u64, data, send_idx, false)?;
    }
    Ok(())
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

    /// What a group average must be, spelled out with the plain
    /// collective: scale by the caller's own weight, then one whole-buffer
    /// ring all-reduce.
    fn scale_then_ring(
        ep: &mut Endpoint,
        group: &[usize],
        base_tag: u64,
        data: &mut [f32],
        weights: &[f32],
    ) -> Result<()> {
        let me = position_in_group(ep, group)?;
        for d in data.iter_mut() {
            *d *= weights[me];
        }
        ring_allreduce(ep, group, base_tag, data)
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

    #[test]
    fn allreduce_full_world_sums() {
        let results = run_world(4, |rank, ep| {
            let mut data = vec![rank as f32 + 1.0; 10];
            ring_allreduce(ep, &[0, 1, 2, 3], 0, &mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![10.0; 10]); // 1+2+3+4
        }
    }

    #[test]
    fn allreduce_subgroup_leaves_outsiders_alone() {
        let results = run_world(4, |rank, ep| {
            let mut data = vec![rank as f32; 7];
            if rank == 1 || rank == 3 {
                ring_allreduce(ep, &[1, 3], 100, &mut data).unwrap();
            }
            data
        });
        assert_eq!(results[0], vec![0.0; 7]);
        assert_eq!(results[1], vec![4.0; 7]); // 1 + 3
        assert_eq!(results[2], vec![2.0; 7]);
        assert_eq!(results[3], vec![4.0; 7]);
    }

    #[test]
    fn allreduce_data_shorter_than_group() {
        // len < p exercises empty chunks.
        let results = run_world(4, |rank, ep| {
            let mut data = vec![rank as f32 + 1.0; 2];
            ring_allreduce(ep, &[0, 1, 2, 3], 0, &mut data).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![10.0; 2]);
        }
    }

    #[test]
    fn allreduce_uneven_chunks() {
        let results = run_world(3, |rank, ep| {
            let mut data: Vec<f32> = (0..11).map(|i| (i * (rank + 1)) as f32).collect();
            ring_allreduce(ep, &[0, 1, 2], 0, &mut data).unwrap();
            data
        });
        let expected: Vec<f32> = (0..11).map(|i| (i * 6) as f32).collect();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn group_average_is_scale_then_one_plain_ring() {
        // Longer than one 64 Ki-element segment of the TCP star, with an
        // uneven tail for every P: in-process the average is not
        // segmented — it is the plain ring, bit for bit — and every member
        // ends with the same bits.
        let len = (1 << 16) + 4_099;
        for p in 2..=4usize {
            let results = run_world(p, move |rank, ep| {
                let group: Vec<usize> = (0..p).rev().collect();
                let weights: Vec<f32> = (0..p).map(|j| (j + 1) as f32 / 7.0).collect();
                let mut got = model(rank, len);
                let mut want = got.clone();
                ep.group_weighted_average(&group, 0, &mut got, &weights)
                    .unwrap();
                scale_then_ring(ep, &group, TAG_STRIDE, &mut want, &weights).unwrap();
                (got, want)
            });
            for (got, want) in &results {
                assert_bit_equal(got, want);
                assert_bit_equal(got, &results[0].0);
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
        // and no barrier in between: a fast rank's round-two chunks reach
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
        // Two disjoint pairs all-reduce concurrently with distinct tags.
        let results = run_world(4, |rank, ep| {
            let group: Vec<usize> = if rank < 2 { vec![0, 1] } else { vec![2, 3] };
            let tag = if rank < 2 { 0 } else { TAG_STRIDE };
            let mut data = vec![rank as f32; 4];
            ring_allreduce(ep, &group, tag, &mut data).unwrap();
            data
        });
        assert_eq!(results[0], vec![1.0; 4]);
        assert_eq!(results[1], vec![1.0; 4]);
        assert_eq!(results[2], vec![5.0; 4]);
        assert_eq!(results[3], vec![5.0; 4]);
    }

    #[test]
    fn rejects_caller_outside_group() {
        let mut eps = CommWorld::new(3).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![0.0];
        assert!(matches!(
            ring_allreduce(&mut e0, &[1, 2], 0, &mut data),
            Err(CommError::InvalidGroup(_))
        ));
    }

    #[test]
    fn rejects_duplicate_members() {
        let mut eps = CommWorld::new(3).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![0.0];
        assert!(matches!(
            ring_allreduce(&mut e0, &[0, 0], 0, &mut data),
            Err(CommError::InvalidGroup(_))
        ));
    }

    #[test]
    fn singleton_group_is_noop() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![3.0, 4.0];
        ring_allreduce(&mut e0, &[0], 0, &mut data).unwrap();
        assert_eq!(data, vec![3.0, 4.0]);
    }

    #[test]
    fn chunk_ranges_partition() {
        for (len, p) in [(10usize, 3usize), (2, 4), (7, 7), (0, 2), (16, 4)] {
            let mut total = 0;
            let mut prev_end = 0;
            for i in 0..p {
                let r = chunk_range(len, p, i);
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
                total += r.len();
            }
            assert_eq!(total, len);
            assert_eq!(prev_end, len);
        }
    }

    #[test]
    fn reduce_scatter_owns_summed_chunk() {
        let results = run_world(3, |rank, ep| {
            let mut data: Vec<f32> = (0..9).map(|i| (i + rank) as f32).collect();
            let range = reduce_scatter(ep, &[0, 1, 2], 0, &mut data).unwrap();
            (range.clone(), data[range].to_vec())
        });
        // Sum over ranks of (i + rank) = 3i + 3.
        for (pos, (range, owned)) in results.iter().enumerate() {
            assert_eq!(range.start, pos * 3);
            for (off, v) in owned.iter().enumerate() {
                let i = range.start + off;
                assert_eq!(*v, (3 * i + 3) as f32, "rank {pos} idx {i}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_allreduce() {
        let results = run_world(4, |rank, ep| {
            let mut a: Vec<f32> = (0..10).map(|i| (i * (rank + 1)) as f32).collect();
            let mut b = a.clone();
            ring_allreduce(ep, &[0, 1, 2, 3], 0, &mut a).unwrap();
            reduce_scatter(ep, &[0, 1, 2, 3], TAG_STRIDE, &mut b).unwrap();
            all_gather(ep, &[0, 1, 2, 3], 2 * TAG_STRIDE, &mut b).unwrap();
            (a, b)
        });
        // Σ_rank i·(rank + 1) = 10·i — checked against the sum itself,
        // since `ring_allreduce` is this very composition.
        let expected: Vec<f32> = (0..10).map(|i| (i * 10) as f32).collect();
        for (a, b) in results {
            assert_eq!(a, expected);
            assert_eq!(b, expected);
        }
    }

    #[test]
    fn singleton_reduce_scatter_owns_everything() {
        let mut eps = CommWorld::new(1).into_endpoints();
        let mut e0 = eps.remove(0);
        let mut data = vec![1.0, 2.0];
        let range = reduce_scatter(&mut e0, &[0], 0, &mut data).unwrap();
        assert_eq!(range, 0..2);
        all_gather(&mut e0, &[0], 0, &mut data).unwrap();
        assert_eq!(data, vec![1.0, 2.0]);
    }
}
