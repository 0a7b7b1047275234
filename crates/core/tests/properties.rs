//! Property-based tests for the partial-reduce core: weight generation,
//! synchronization matrices, controller behaviour, sync-graph invariants.

use std::sync::Arc;

use partial_reduce::{
    constant_weights, dynamic_weights, min_history_window, spectral_gap, sync_matrix,
    weighted_sync_matrix, AggregationMode, Controller, ControllerConfig, FailureDetector,
    GapPolicy, GroupHistory, InvariantChecker, LivenessPolicy, RingSink, StreamingChecker,
    SyncGraph, TraceEvent, TraceSink, WindowedConnectivity,
};
use proptest::prelude::*;

fn group_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    // A random subset of 2..=n workers out of n.
    prop::collection::btree_set(0..n, 2..=n).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn constant_weights_sum_to_one(p in 1usize..64) {
        let w = constant_weights(p);
        prop_assert_eq!(w.len(), p);
        let s: f32 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn dynamic_weights_normalized_for_arbitrary_iterations(
        iterations in prop::collection::vec(1u64..10_000, 1..12),
        alpha in 0.05f64..0.95,
    ) {
        let w = dynamic_weights(&iterations, alpha, GapPolicy::Initial);
        prop_assert_eq!(w.len(), iterations.len());
        let s: f32 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-4, "sum = {s}");
        prop_assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn all_tied_iterations_degenerate_to_uniform(
        p in 1usize..16,
        iteration in 1u64..100_000,
        alpha in 0.05f64..0.95,
    ) {
        // Every member at the same iteration: no staleness to penalize, so
        // the weights must be exactly constant 1/P.
        let w = dynamic_weights(&vec![iteration; p], alpha, GapPolicy::Initial);
        for &x in w.iter() {
            prop_assert!(
                (x - 1.0 / p as f32).abs() < 1e-6,
                "tied weights not uniform: {w:?}"
            );
        }
    }

    #[test]
    fn single_member_gets_full_weight(
        iteration in 1u64..100_000,
        alpha in 0.05f64..0.95,
    ) {
        let w = dynamic_weights(&[iteration], alpha, GapPolicy::Initial);
        prop_assert_eq!(w.into_vec(), vec![1.0f32]);
    }

    #[test]
    fn dynamic_weights_freshest_unique_member_beats_constant(
        stale_count in 1usize..6,
        gap in 1u64..50,
        alpha in 0.05f64..0.5,
    ) {
        // One member strictly fresher than all others (who tie): for
        // α ≤ 0.5 the fresh member's weight (1−α)/(1−α^k̂max) ≥ 1−α ≥ 1/2
        // ≥ 1/P, so it always beats the uniform share. (Above α ≈ 0.55
        // the conservative gap policy can push enough mass to the stalest
        // member to break this — the reason `dynamic_default` uses 0.3.)
        let p = stale_count + 1;
        let mut iterations = vec![100u64; 1];
        iterations.extend(std::iter::repeat_n(100 - gap, stale_count));
        let w = dynamic_weights(&iterations, alpha, GapPolicy::Initial);
        prop_assert!(
            w[0] >= 1.0 / p as f32 - 1e-6,
            "fresh weight {} below uniform {}",
            w[0],
            1.0 / p as f32
        );
    }

    #[test]
    fn sync_matrix_doubly_stochastic_for_any_group(
        group in group_strategy(10),
    ) {
        let w = sync_matrix(10, &group);
        // Row and column sums are 1, entries non-negative, symmetric.
        for i in 0..10 {
            let mut row = 0.0f32;
            let mut col = 0.0f32;
            for j in 0..10 {
                let x = w.at(&[i, j]);
                prop_assert!(x >= 0.0);
                prop_assert!((x - w.at(&[j, i])).abs() < 1e-7);
                row += x;
                col += w.at(&[j, i]);
            }
            prop_assert!((row - 1.0).abs() < 1e-5);
            prop_assert!((col - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn weighted_sync_matrix_column_stochastic(
        group in group_strategy(8),
        seed in any::<u64>(),
    ) {
        // Random normalized weights.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut weights: Vec<f32> =
            (0..group.len()).map(|_| rng.gen_range(0.01f32..1.0)).collect();
        let total: f32 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let m = weighted_sync_matrix(8, &group, &weights);
        for j in 0..8 {
            let col: f32 = (0..8).map(|i| m.at(&[i, j])).sum();
            prop_assert!((col - 1.0).abs() < 1e-4, "column {j} sums to {col}");
        }
    }

    #[test]
    fn spectral_gap_of_any_schedule_is_in_unit_interval(
        groups in prop::collection::vec(group_strategy(6), 1..20),
    ) {
        let e_w = partial_reduce::expected_sync_matrix(6, &groups);
        let r = spectral_gap(&e_w).unwrap();
        prop_assert!((0.0..=1.0).contains(&r.rho), "rho = {}", r.rho);
        prop_assert!((r.eigenvalues[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn controller_fifo_without_avoidance(
        seed in any::<u64>(),
    ) {
        // Push workers in a seeded random order; with frozen avoidance off
        // the first P queued always form the group, in queue order.
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut workers: Vec<usize> = (0..8).collect();
        workers.shuffle(&mut rng);
        let mut c = Controller::new(ControllerConfig {
            num_workers: 8,
            group_size: 3,
            mode: AggregationMode::Constant,
            history_window: Some(3),
            frozen_avoidance: false,
        });
        for &w in &workers {
            c.push_ready(w, 0);
        }
        let mut formed = Vec::new();
        while let Some(d) = c.try_form_group() {
            prop_assert!(!d.repaired);
            formed.extend(d.group);
        }
        // 8 workers, P = 3 ⇒ two groups of 3 in FIFO order; 2 left queued.
        prop_assert_eq!(formed.as_slice(), &workers[..6]);
        prop_assert_eq!(c.pending(), 2);
    }

    #[test]
    fn controller_groups_always_valid_under_random_traffic(
        seed in any::<u64>(),
        p in 2usize..5,
        rounds in 1usize..30,
    ) {
        use rand::{Rng, SeedableRng};
        let n = 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut c = Controller::new(ControllerConfig {
            num_workers: n,
            group_size: p,
            mode: AggregationMode::dynamic_default(),
            history_window: None,
            frozen_avoidance: true,
        });
        let mut queued = vec![false; n];
        let mut iter = vec![0u64; n];
        for _ in 0..rounds {
            // Random subset of free workers signal ready.
            for w in 0..n {
                if !queued[w] && rng.gen_bool(0.6) {
                    iter[w] += rng.gen_range(1..4u64);
                    c.push_ready(w, iter[w]);
                    queued[w] = true;
                }
            }
            while let Some(d) = c.try_form_group() {
                prop_assert_eq!(d.group.len(), p);
                let mut g = d.group.clone();
                g.sort_unstable();
                g.dedup();
                prop_assert_eq!(g.len(), p, "duplicates");
                let ws: f32 = d.weights.iter().sum();
                prop_assert!((ws - 1.0).abs() < 1e-4);
                let max_iter = d.group.iter().map(|&m| iter[m]).max().unwrap();
                prop_assert_eq!(d.new_iteration, max_iter);
                for &m in &d.group {
                    queued[m] = false;
                    iter[m] = d.new_iteration;
                }
            }
        }
    }

    #[test]
    fn traced_random_traffic_satisfies_invariants(
        seed in any::<u64>(),
        p in 2usize..5,
        rounds in 1usize..30,
        dynamic in any::<bool>(),
    ) {
        // Whatever the controller does under random traffic — departures,
        // restores, batched ingestion with malformed entries, below-quorum
        // drains — every `&mut self` call that changes what its accessors report
        // narrates it, and the trace, closed by the controller's own
        // counters, replays clean through the invariant checker.
        use rand::{Rng, SeedableRng};
        let n = 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sink = Arc::new(RingSink::new(8192));
        // One missed window is the whole budget.
        let policy = LivenessPolicy::new(std::time::Duration::from_millis(1), 1);
        let mut c = Controller::with_liveness(
            ControllerConfig {
                num_workers: n,
                group_size: p,
                mode: if dynamic {
                    AggregationMode::dynamic_default()
                } else {
                    AggregationMode::Constant
                },
                history_window: None,
                frozen_avoidance: true,
            },
            sink.clone(),
            Some(policy),
        );
        let mut queued = vec![false; n];
        let mut iter = vec![0u64; n];
        for _ in 0..rounds {
            let mut batch = Vec::new();
            for w in 0..n {
                if c.has_left(w) {
                    // Rare restore, from the last iteration it reported.
                    if rng.gen_bool(0.1) {
                        narrated(&mut c, &sink, |c| c.mark_restored(w, iter[w]))?;
                    }
                    continue;
                }
                // Rare departure, possibly with a signal still queued; half
                // of them evictions after a reported silence.
                if rng.gen_bool(0.02) {
                    if rng.gen_bool(0.5) {
                        narrated(&mut c, &sink, |c| c.mark_left(w))?;
                    } else {
                        sink.record(TraceEvent::HeartbeatMissed { worker: w, misses: 1 });
                        narrated(&mut c, &sink, |c| c.evict(w))?;
                    }
                    queued[w] = false;
                    continue;
                }
                if !queued[w] && rng.gen_bool(0.6) {
                    // DYN only has to pass the adopted max; a CON member
                    // counts its own updates.
                    let step = rng.gen_range(1..4u64);
                    iter[w] += if dynamic { step } else { 1 };
                    batch.push((w, iter[w]));
                    queued[w] = true;
                }
            }
            if rng.gen_bool(0.5) {
                for (w, it) in batch {
                    prop_assert!(narrated(&mut c, &sink, |c| c.push_ready(w, it))?);
                }
            } else {
                // A serving transport's batch: an out-of-range rank and a
                // re-signal ride along and are skipped.
                let accepted = batch.len();
                let mut signals = batch.clone();
                signals.push((n, 1));
                signals.extend(batch.first().copied());
                prop_assert_eq!(narrated(&mut c, &sink, |c| c.ingest_ready(&signals))?, accepted);
            }
            // Below quorum, every queued signal goes out alone.
            for (w, _) in narrated(&mut c, &sink, |c| c.release_below_quorum())? {
                queued[w] = false;
            }
            while let Some(d) = narrated(&mut c, &sink, |c| c.try_form_group())? {
                for &m in &d.group {
                    queued[m] = false;
                    if dynamic {
                        // §3.3.3 adoption, as the threaded trainer does.
                        iter[m] = d.new_iteration;
                    }
                }
            }
        }
        c.close();
        prop_assert_eq!(sink.dropped(), 0);
        let report = InvariantChecker::check(&sink.snapshot());
        prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn the_detector_evicts_exactly_at_the_kth_missed_window(
        seed in any::<u64>(),
        n in 2usize..17,
        k in 1u64..9,
        interval_ms in 1u64..50,
        late in any::<bool>(),
    ) {
        // Every worker beats at random gaps shorter than the budget, then
        // falls silent for good. The detector reports each count `m` of a
        // silence once, in order, and evicts at the K-th: swept at each
        // `next_deadline`, exactly at `last heard + m` windows; swept
        // `late`, up to two windows past a deadline (never past the next
        // beat), at that sweep. Random sweeps before any deadline narrate
        // nothing. The clock is the test's: nothing sleeps.
        use rand::{Rng, SeedableRng};
        use std::time::Duration;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let window = interval_ms * 1000;
        let us = Duration::from_micros;
        let policy = LivenessPolicy::new(us(window), k);
        let sink = Arc::new(RingSink::new(1 << 16));
        let mut c =
            Controller::with_liveness(ControllerConfig::constant(n, 2), sink.clone(), Some(policy));
        let mut detector = FailureDetector::new(policy, n);

        // The beats, and the oracle: per worker, when each miss falls due
        // (µs) with its count, the eviction last as count `None`.
        let mut beats: Vec<(u64, usize)> = Vec::new();
        let mut want: Vec<Vec<(u64, Option<u64>)>> = Vec::new();
        for w in 0..n {
            let (mut heard, mut told) = (0, Vec::new());
            for _ in 0..rng.gen_range(0..20usize) {
                // Half the gaps end exactly on a window boundary.
                let gap = if k > 1 && rng.gen_bool(0.5) {
                    rng.gen_range(1..k) * window
                } else {
                    rng.gen_range(1..k * window)
                };
                let due = (1..k).map(|m| (heard + m * window, Some(m)));
                told.extend(due.take_while(|&(t, _)| t <= heard + gap));
                heard += gap;
                beats.push((heard, w));
            }
            told.extend((1..=k).map(|m| (heard + m * window, Some(m))));
            told.push((heard + k * window, None));
            want.push(told);
        }
        beats.sort_unstable();

        let mut got: Vec<Vec<(u64, Option<u64>)>> = vec![Vec::new(); n];
        let (mut clock, mut beats) = (0, beats.into_iter().peekable());
        loop {
            let due = detector.next_deadline().map(|d| d.as_micros() as u64);
            let beat = beats.peek().map(|b| b.0);
            let Some(next) = due.into_iter().chain(beat).min() else {
                break;
            };
            if next > clock && rng.gen_bool(0.3) {
                let before = sink.len();
                detector.sweep(us(rng.gen_range(clock..next)), &mut c);
                prop_assert_eq!(sink.len(), before, "a sweep before any deadline narrated");
            }
            // A deadline is swept before a beat at the same time is heard.
            if due == Some(next) {
                clock = if late {
                    (next + rng.gen_range(0..=2 * window)).min(beat.unwrap_or(u64::MAX))
                } else {
                    next
                };
                let before = sink.len();
                detector.sweep(us(clock), &mut c);
                for event in &sink.snapshot()[before..] {
                    match *event {
                        TraceEvent::HeartbeatMissed { worker, misses } => {
                            got[worker].push((clock, Some(misses)));
                        }
                        TraceEvent::WorkerEvicted { worker, .. } => got[worker].push((clock, None)),
                        _ => {}
                    }
                }
            } else if let Some((t, w)) = beats.next() {
                clock = t;
                detector.heard(w, us(t));
            }
        }
        for (w, (got, want)) in got.iter().zip(&want).enumerate() {
            let counts = |told: &[(u64, Option<u64>)]| told.iter().map(|e| e.1).collect::<Vec<_>>();
            prop_assert_eq!(counts(got), counts(want), "worker {}", w);
            for (&(at, count), &(due, _)) in got.iter().zip(want) {
                prop_assert!(at >= due && (late || at == due), "worker {w}: {count:?} due at {due} µs, told at {at}");
            }
        }
        c.close();
        let report = InvariantChecker::check(&sink.snapshot());
        prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn history_graph_edges_only_from_recent_groups(
        groups in prop::collection::vec(group_strategy(6), 1..30),
        window in 1usize..6,
    ) {
        let mut h = GroupHistory::new(window);
        for g in &groups {
            h.record(g.clone());
        }
        let graph = h.sync_graph(6);
        // Every edge must be witnessed by one of the last `window` groups.
        let recent: Vec<&Vec<usize>> =
            groups.iter().rev().take(window).collect();
        for a in 0..6 {
            for b in 0..6 {
                if a != b && graph.has_edge(a, b) {
                    let witnessed = recent.iter().any(|g| {
                        g.contains(&a) && g.contains(&b)
                    });
                    prop_assert!(witnessed, "stale edge {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn chained_groups_connect_iff_enough_links(
        n in 3usize..10,
        p in 2usize..4,
    ) {
        prop_assume!(p < n);
        // A chain of minimal groups: exactly T = ⌈(N−1)/(P−1)⌉ groups can
        // connect N workers.
        let t = min_history_window(n, p);
        let mut g = SyncGraph::new(n);
        let mut covered = 1usize; // worker 0
        let mut added = 0;
        while covered < n {
            let start = covered - 1;
            let members: Vec<usize> =
                (start..(start + p).min(n)).collect();
            g.add_group(&members);
            covered = (start + p).min(n);
            added += 1;
        }
        prop_assert!(g.is_connected());
        prop_assert!(added <= t, "needed {added} groups, bound was {t}");
    }

    #[test]
    fn windowed_connectivity_matches_dfs_components(
        groups in prop::collection::vec(group_strategy(7), 1..40),
        subsets in prop::collection::vec(prop::collection::vec(0usize..7, 1..5), 40),
        window in 1usize..8,
        probe_every in 1usize..4,
    ) {
        // The membership table and the lazily caught-up union-find must
        // agree with the reference DFS over the same window after every
        // record — connectivity verdict, component partition, the "spans two
        // components" answer for an arbitrary list of workers (repeats
        // included), and warm-up state alike. Probing at a random stride
        // covers runs of several records between catch-ups.
        let n = 7;
        let mut h = GroupHistory::new(window);
        let mut c = WindowedConnectivity::new(n, window);
        for (i, (g, subset)) in groups.iter().zip(&subsets).enumerate() {
            h.record(g.clone());
            c.record(g);
            prop_assert_eq!(c.is_warm(), h.is_warm());
            prop_assert_eq!(c.total_recorded(), h.total_recorded());
            if i % probe_every == 0 {
                let reference = h.sync_graph(n);
                let labels = reference.components();
                let spanned: std::collections::BTreeSet<usize> =
                    subset.iter().map(|&w| labels[w]).collect();
                let absent = subset.iter().any(|&w| h.iter().all(|g| !g.contains(&w)));
                let rebuilds = c.stats().rebuilds;
                prop_assert_eq!(
                    c.spans_components(subset.iter().copied()),
                    spanned.len() >= 2,
                    "subset {:?} after group {}", subset, i
                );
                if absent {
                    // An absent worker is its own component: it settles
                    // the answer either way, the forest stays stale.
                    prop_assert_eq!(c.stats().rebuilds, rebuilds);
                }
                prop_assert_eq!(
                    c.is_connected(),
                    reference.is_connected(),
                    "verdict diverged after group {}", i
                );
                prop_assert_eq!(
                    partition(&mut c, n),
                    reference.components(),
                    "partition diverged after group {}", i
                );
            }
        }
        // Final state always agrees, whatever the probe stride skipped.
        let reference = h.sync_graph(n);
        prop_assert_eq!(partition(&mut c, n), reference.components());
    }

    #[test]
    fn windowed_connectivity_matches_dfs_on_both_catch_up_paths(
        seed in any::<u64>(),
        n in 4usize..12,
        p in 2usize..5,
        window_kind in 0usize..4,
    ) {
        // One stream, both ways the forest catches up with the window:
        // runs of single records, each followed by a query (a replay: one
        // eviction and one insertion), and stretches longer than the
        // window with no query (a reload), with departures and restores
        // in between and groups that list a worker more than once, at
        // windows of 1 and below, at and above T = ⌈(N−1)/(P−1)⌉.
        use rand::{Rng, SeedableRng};
        prop_assume!(p <= n);
        let t = min_history_window(n, p);
        let window = match window_kind {
            0 => 1,
            1 => t.saturating_sub(1).max(1),
            2 => t,
            _ => t + 3,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = GroupHistory::new(window);
        let mut c = WindowedConnectivity::new(n, window);
        let mut departed = vec![false; n];
        for segment in 0..12 {
            let stretch = segment % 3 == 2;
            let records = if stretch {
                window + 1 + rng.gen_range(0..window + 2)
            } else {
                rng.gen_range(1..6usize)
            };
            for r in 0..records {
                if rng.gen_range(0..4u32) == 0 {
                    let w = rng.gen_range(0..n);
                    departed[w] = !departed[w];
                    c.set_departed(w, departed[w]);
                }
                let group: Vec<usize> = (0..rng.gen_range(1..p + 2))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                h.record(group.clone());
                c.record(&group);
                if stretch && r + 1 < records {
                    continue;
                }
                let reloads = c.stats().rebuilds;
                matches_oracle(&mut c, &h, &departed, &mut rng)?;
                // Which path the catch-up took: a stretch always reloads
                // (every listed worker present is asked about); a single
                // warm record replays once an eviction and an insertion
                // cost less than the window, from T = 5 on.
                let reloaded = c.stats().rebuilds - reloads;
                if stretch {
                    prop_assert_eq!(reloaded, 1, "stretch of {} at window {}", records, window);
                } else if window >= 5 && h.is_warm() && segment > 0 {
                    prop_assert_eq!(reloaded, 0, "single record at window {}", window);
                }
            }
        }
    }

    #[test]
    fn queued_component_counts_match_dfs(
        seed in any::<u64>(),
        n in 4usize..41,
        p in 2usize..6,
        window in 1usize..9,
    ) {
        // The count of components the queued workers touch, against the
        // DFS over the same window, after every step of one stream that
        // takes each path the counts are kept on: single records (a
        // replay), stretches longer than the window with no query (the
        // forest is given up, then reloaded and recounted from the
        // flags), departures and restores, and workers queued and
        // unqueued at random before and after each record, so on a
        // caught-up, a stale and a given-up forest alike.
        use rand::{Rng, SeedableRng};
        prop_assume!(p <= n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = GroupHistory::new(window);
        let mut c = WindowedConnectivity::new(n, window);
        let mut departed = vec![false; n];
        let mut queued = vec![false; n];
        let mut toggle = |c: &mut WindowedConnectivity, rng: &mut rand::rngs::StdRng| {
            for _ in 0..rng.gen_range(0..4usize) {
                let w = rng.gen_range(0..n);
                queued[w] = !queued[w];
                c.set_queued(w, queued[w]);
                prop_assert!(c.is_queued(w) == queued[w]);
            }
            Ok(queued.clone())
        };
        for segment in 0..12 {
            let stretch = segment % 3 == 2;
            let records = if stretch { window + 1 + rng.gen_range(0..window + 2) } else { 1 };
            for r in 0..records {
                if rng.gen_range(0..4u32) == 0 {
                    let w = rng.gen_range(0..n);
                    departed[w] = !departed[w];
                    c.set_departed(w, departed[w]);
                }
                toggle(&mut c, &mut rng)?;
                let group: Vec<usize> = (0..rng.gen_range(1..p + 2))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                h.record(group.clone());
                c.record(&group);
                let now = toggle(&mut c, &mut rng)?;
                if stretch && r + 1 < records {
                    continue;
                }
                queue_matches_dfs(&mut c, &h, &now, rng.gen_range(1..n))?;
                // Once more after queueing on the caught-up forest.
                let now = toggle(&mut c, &mut rng)?;
                queue_matches_dfs(&mut c, &h, &now, rng.gen_range(1..n))?;
            }
        }
    }

    #[test]
    fn streaming_checker_matches_batch_on_random_traces(
        seed in any::<u64>(),
        p in 2usize..5,
        rounds in 1usize..30,
        dynamic in any::<bool>(),
    ) {
        // Feed the trace of a random controller run through the streaming
        // checker one event at a time: the verdict must be identical to
        // the batch wrapper's (same counters, same violations, in order).
        use rand::{Rng, SeedableRng};
        let n = 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sink = Arc::new(RingSink::new(8192));
        let mut c = Controller::with_sink(
            ControllerConfig {
                num_workers: n,
                group_size: p,
                mode: if dynamic {
                    AggregationMode::dynamic_default()
                } else {
                    AggregationMode::Constant
                },
                history_window: None,
                frozen_avoidance: true,
            },
            sink.clone(),
        );
        let mut queued = vec![false; n];
        let mut iter = vec![0u64; n];
        for _ in 0..rounds {
            for w in 0..n {
                if !queued[w] && rng.gen_bool(0.6) {
                    let step = rng.gen_range(1..4u64);
                    iter[w] += if dynamic { step } else { 1 };
                    c.push_ready(w, iter[w]);
                    queued[w] = true;
                }
            }
            while let Some(d) = c.try_form_group() {
                for &m in &d.group {
                    queued[m] = false;
                    if dynamic {
                        iter[m] = d.new_iteration;
                    }
                }
            }
        }
        let events = sink.snapshot();
        let batch = InvariantChecker::check(&events);
        let mut streaming = StreamingChecker::new();
        for e in &events {
            streaming.feed(e);
        }
        prop_assert_eq!(streaming.finish(), batch);
    }

    #[test]
    fn hostile_streams_cannot_panic_the_checker(
        seed in any::<u64>(),
        n in 2usize..17,
        len in 0usize..120,
        start in 0u8..4,
        oversized_p in any::<bool>(),
        dynamic in any::<bool>(),
    ) {
        // `preduce trace --check FILE` feeds bytes from outside the
        // program into a table indexed by rank. Whatever the stream says —
        // ranks at and beyond N, `RunStarted` absent (0), first (1), late
        // (2) or repeated (3), P > N, member lists with repeats and the
        // wrong length, counters at the integer limits — the checker must
        // not panic, must count every event, must be deterministic, and
        // must name every rank >= N that a per-worker event carries. A
        // `RunStarted` the controller would refuse — α outside (0, 0.99], a
        // window of 0, a miss threshold of 0 — is named as one, and DYN
        // groups whose iterations lie 2^40 apart are checked at once.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = if oversized_p { n + 1 } else { rng.gen_range(2..n + 1) };
        let alpha = match rng.gen_range(0..8u8) {
            0 => 0.0,
            1 => 1.0,
            2 => 1.5,
            3 => f64::NAN,
            4 => 0.999_999_999_999,
            _ => rng.gen_range(0.01..0.99f64),
        };
        let config = ControllerConfig {
            num_workers: n,
            group_size: p,
            mode: if dynamic {
                AggregationMode::Dynamic { alpha, gap_policy: GapPolicy::Initial }
            } else {
                AggregationMode::Constant
            },
            history_window: Some(rng.gen_range(0..6usize)),
            frozen_avoidance: rng.gen_bool(0.8),
        };
        let mut last_group = Vec::new();
        let mut events: Vec<TraceEvent> = (0..len)
            .map(|_| hostile_event(&mut rng, n, p, &mut last_group))
            .collect();
        let liveness = rng.gen_bool(0.5).then(|| {
            let decoded = format!(
                r#"{{"interval_us":1000,"miss_threshold":{}}}"#,
                rng.gen_range(0..4u64)
            );
            serde_json::from_str::<LivenessPolicy>(&decoded).expect("a policy decodes")
        });
        let refused = config.check().is_err() || liveness.is_some_and(|l| l.check().is_err());
        let started = TraceEvent::RunStarted { config, liveness };
        match start {
            0 => {}
            1 => events.insert(0, started),
            2 => events.insert(rng.gen_range(0..len + 1), started),
            _ => {
                events.insert(rng.gen_range(0..len + 1), started.clone());
                events.insert(0, started);
            }
        }

        let report = InvariantChecker::check(&events);
        prop_assert_eq!(report.events, events.len());
        prop_assert_eq!(&InvariantChecker::check(&events), &report);

        let mut n_known = false;
        for (i, event) in events.iter().enumerate() {
            if matches!(event, TraceEvent::RunStarted { .. }) {
                prop_assert!(
                    n_known || !refused || report.violations.iter().any(|v| {
                        v.index == i && v.message.starts_with("invalid ")
                    }),
                    "a refused RunStarted at {i} went unreported in {report}"
                );
                n_known = true;
            }
            if !n_known {
                continue;
            }
            for rank in ranks_with_records(event).into_iter().filter(|&r| r >= n) {
                let named = format!("out-of-range worker {rank} ");
                prop_assert!(
                    report.violations.iter().any(|v| v.index == i && v.message.contains(&named)),
                    "event {i} ({event:?}) carries rank {rank} >= N = {n}, unreported in {report}"
                );
            }
        }
    }
}

/// The queue's questions against the DFS over the same window:
/// `queued_components` (uncapped and capped at `at_most`) is the number
/// of distinct components among the `queued` workers, and `queue_spans`
/// says whether that is two or more.
fn queue_matches_dfs(
    c: &mut WindowedConnectivity,
    h: &GroupHistory,
    queued: &[bool],
    at_most: usize,
) -> Result<(), TestCaseError> {
    let labels = h.sync_graph(queued.len()).components();
    let touched: std::collections::BTreeSet<usize> = (0..queued.len())
        .filter(|&w| queued[w])
        .map(|w| labels[w])
        .collect();
    prop_assert_eq!(
        c.queued_components(at_most),
        touched.len().min(at_most),
        "capped"
    );
    prop_assert_eq!(c.queue_spans(), touched.len() >= 2, "queued {:?}", queued);
    prop_assert_eq!(
        c.queued_components(usize::MAX),
        touched.len(),
        "queued {:?}",
        queued
    );
    Ok(())
}

/// Every question [`WindowedConnectivity`] answers, against the DFS over
/// the same window: `spans_components` on random worker lists (repeats
/// included), `is_connected` over the live fleet (workers not departed,
/// plus departed ones still in a retained group) and the partition
/// every worker's `component_of` makes.
fn matches_oracle(
    c: &mut WindowedConnectivity,
    h: &GroupHistory,
    departed: &[bool],
    rng: &mut rand::rngs::StdRng,
) -> Result<(), TestCaseError> {
    use rand::Rng;
    let n = departed.len();
    let labels = h.sync_graph(n).components();
    for _ in 0..3 {
        let list: Vec<usize> = (0..rng.gen_range(0..5usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let distinct: std::collections::BTreeSet<usize> = list.iter().map(|&w| labels[w]).collect();
        prop_assert_eq!(
            c.spans_components(list.iter().copied()),
            distinct.len() >= 2,
            "list {:?}",
            list
        );
    }
    let mut live = (0..n)
        .filter(|&w| !departed[w] || h.iter().any(|g| g.contains(&w)))
        .map(|w| labels[w]);
    let first = live.next();
    prop_assert_eq!(c.is_connected(), live.all(|l| Some(l) == first));
    prop_assert_eq!(partition(c, n), labels);
    Ok(())
}

/// `c`'s components over `n` workers, each labelled by its smallest
/// member, as `SyncGraph::components` labels them: equal vectors are
/// equal partitions, whatever labels `component_of` gives.
fn partition(c: &mut WindowedConnectivity, n: usize) -> Vec<usize> {
    let labels: Vec<usize> = (0..n).map(|w| c.component_of(w)).collect();
    labels
        .iter()
        .map(|l| labels.iter().position(|m| m == l).unwrap_or(usize::MAX))
        .collect()
}

/// Everything a controller's accessors report about its state.
fn counters(c: &Controller) -> (usize, u64, u64, u64, usize, Vec<usize>) {
    (
        c.pending(),
        c.groups_formed(),
        c.repairs(),
        c.deferrals(),
        c.active(),
        (0..c.config().num_workers)
            .filter(|&w| c.has_left(w))
            .collect(),
    )
}

/// Makes one `&mut self` call on `c` and fails the case if the call
/// changed what the accessors report without recording an event.
fn narrated<T>(
    c: &mut Controller,
    sink: &RingSink,
    call: impl FnOnce(&mut Controller) -> T,
) -> Result<T, TestCaseError> {
    let recorded = |sink: &RingSink| sink.len() as u64 + sink.dropped();
    let (before, events) = (counters(c), recorded(sink));
    let out = call(c);
    let after = counters(c);
    prop_assert!(
        after == before || recorded(sink) > events,
        "state went from {before:?} to {after:?} and nothing was narrated"
    );
    Ok(out)
}

/// A rank from `{0..N, N, N + 1, usize::MAX}`, in range two times in three.
fn hostile_rank(rng: &mut rand::rngs::StdRng, n: usize) -> usize {
    use rand::Rng;
    match rng.gen_range(0..9u8) {
        0 => n,
        1 => n + 1,
        2 => usize::MAX,
        _ => rng.gen_range(0..n),
    }
}

/// One event from the whole vocabulary but `RunStarted`, every field drawn
/// without regard for what came before it — except that a completion
/// usually names the last formed group, so in-flight groups do get
/// completed, partly completed and completed twice.
fn hostile_event(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    p: usize,
    last_group: &mut Vec<usize>,
) -> TraceEvent {
    use rand::Rng;
    let worker = hostile_rank(rng, n);
    let iteration = rng.gen_range(0..40u64);
    let count = match rng.gen_range(0..8u8) {
        0 => usize::MAX,
        _ => rng.gen_range(0..n + 2),
    };
    // Usually P members, sometimes none, one, or too many; repeats allowed.
    let len = match rng.gen_range(0..6u8) {
        0 => rng.gen_range(0..p + 3),
        _ => p,
    };
    let members: Vec<usize> = (0..len).map(|_| hostile_rank(rng, n)).collect();
    match rng.gen_range(0..17u8) {
        0 => TraceEvent::SignalEnqueued {
            worker,
            iteration,
            queued: count,
        },
        1 => TraceEvent::SignalRejected { worker, iteration },
        2 => TraceEvent::GroupDeferred {
            queued: count,
            active: count,
        },
        3 | 4 => {
            let aligned = if rng.gen_bool(0.8) {
                len
            } else {
                rng.gen_range(0..len + 2)
            };
            last_group.clone_from(&members);
            TraceEvent::GroupFormed {
                sequence: if rng.gen_bool(0.1) {
                    u64::MAX
                } else {
                    rng.gen_range(0..30u64)
                },
                members,
                // Now and then a member 2^40 iterations ahead of the rest.
                iterations: (0..aligned)
                    .map(|_| match rng.gen_range(0..8u8) {
                        0 => 1 << 40,
                        _ => rng.gen_range(0..40u64),
                    })
                    .collect(),
                weights: (0..aligned).map(|_| 1.0 / aligned as f32).collect(),
                new_iteration: iteration,
                repaired: rng.gen_bool(0.3),
            }
        }
        5 => TraceEvent::AssignmentSent {
            worker,
            members,
            base_tag: iteration,
        },
        6 | 7 if !last_group.is_empty() && rng.gen_bool(0.7) => TraceEvent::ReduceCompleted {
            worker: last_group[rng.gen_range(0..last_group.len())],
            members: last_group.clone(),
            new_iteration: iteration,
        },
        6 | 7 => TraceEvent::ReduceCompleted {
            worker,
            members,
            new_iteration: iteration,
        },
        8 => TraceEvent::WorkerLeft {
            worker,
            active: count,
            purged_signal: rng.gen_bool(0.5),
        },
        9 => TraceEvent::PendingDrained {
            signals: members.into_iter().map(|w| (w, iteration)).collect(),
        },
        10 => TraceEvent::SingletonIssued { worker, iteration },
        11 => TraceEvent::FaultInjected {
            worker,
            fault: "crash@1".to_string(),
            iteration,
        },
        12 => TraceEvent::ProcessJoined {
            worker,
            addr: "127.0.0.1:1".to_string(),
        },
        13 => TraceEvent::ProcessDisconnected { worker },
        14 => TraceEvent::HeartbeatMissed {
            worker,
            misses: rng.gen_range(0..3u64),
        },
        15 => TraceEvent::WorkerEvicted {
            worker,
            active: count,
        },
        _ => match rng.gen_range(0..3u8) {
            0 => TraceEvent::SnapshotTaken { worker, iteration },
            1 => TraceEvent::WorkerRestored {
                worker,
                iteration,
                active: count,
            },
            _ => TraceEvent::RunFinished {
                groups_formed: iteration,
                repairs: 0,
                deferrals: 0,
                singletons: 0,
            },
        },
    }
}

/// The ranks an event asks the checker to look up a record for. (An
/// `AssignmentSent` is checked against its own member list only.)
fn ranks_with_records(event: &TraceEvent) -> Vec<usize> {
    match event {
        TraceEvent::SignalEnqueued { worker, .. }
        | TraceEvent::SignalRejected { worker, .. }
        | TraceEvent::ReduceCompleted { worker, .. }
        | TraceEvent::WorkerLeft { worker, .. }
        | TraceEvent::SingletonIssued { worker, .. }
        | TraceEvent::FaultInjected { worker, .. }
        | TraceEvent::ProcessJoined { worker, .. }
        | TraceEvent::ProcessDisconnected { worker }
        | TraceEvent::HeartbeatMissed { worker, .. }
        | TraceEvent::WorkerEvicted { worker, .. }
        | TraceEvent::WorkerRestored { worker, .. }
        | TraceEvent::SnapshotTaken { worker, .. } => vec![*worker],
        TraceEvent::GroupFormed { members, .. } => members.clone(),
        TraceEvent::PendingDrained { signals } => signals.iter().map(|&(w, _)| w).collect(),
        _ => Vec::new(),
    }
}
