//! The sync-graph and group-history database behind *group frozen
//! avoidance* (§4).
//!
//! A partial-reduce schedule can, in adversarial arrival patterns, freeze
//! into isolated sub-clusters (e.g. workers {1,2} always pairing and {3,4}
//! always pairing) — two independent training runs wasting half the fleet.
//! The paper's defense: connect the members of each of the last `T` groups
//! in a *sync-graph* and check connectivity; each P-reduce adds `P − 1`
//! edges, so `T ≥ ⌈(N−1)/(P−1)⌉` is the minimum window at which a connected
//! schedule is possible at all.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Minimum history window `T = ⌈(N−1)/(P−1)⌉` for which a connected
/// sync-graph is achievable (§4).
///
/// # Panics
/// Panics if `n == 0` or `p < 2`.
pub fn min_history_window(n: usize, p: usize) -> usize {
    assert!(n > 0, "empty cluster");
    assert!(p >= 2, "groups must have at least two members");
    (n - 1).div_ceil(p - 1)
}

/// An undirected graph over the `N` workers, built from recent groups.
///
/// Not used by the controller: it stays public only as the adjacency-
/// matrix + BFS *reference oracle* that `core/tests/properties.rs` and
/// `tests/schedule_properties.rs` pin [`WindowedConnectivity`] against.
#[derive(Debug, Clone)]
pub struct SyncGraph {
    n: usize,
    /// Adjacency matrix, row-major (symmetric).
    adj: Vec<bool>,
}

impl SyncGraph {
    /// Creates an edgeless graph over `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "empty cluster");
        SyncGraph {
            n,
            adj: vec![false; n * n],
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.n
    }

    /// Connects all members of `group` pairwise (a P-reduce among them).
    ///
    /// # Panics
    /// Panics if any member is out of range.
    pub fn add_group(&mut self, group: &[usize]) {
        for &w in group {
            assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        }
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                self.adj[a * self.n + b] = true;
                self.adj[b * self.n + a] = true;
            }
        }
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "worker out of range");
        self.adj[a * self.n + b]
    }

    /// Connected-component label per worker (labels are the component's
    /// smallest member).
    pub fn components(&self) -> Vec<usize> {
        let mut label = vec![usize::MAX; self.n];
        for start in 0..self.n {
            if label[start] != usize::MAX {
                continue;
            }
            // BFS from `start`.
            let mut queue = VecDeque::from([start]);
            label[start] = start;
            while let Some(u) = queue.pop_front() {
                let row = &self.adj[u * self.n..(u + 1) * self.n];
                for (v, lv) in label.iter_mut().enumerate() {
                    if row[v] && *lv == usize::MAX {
                        *lv = start;
                        queue.push_back(v);
                    }
                }
            }
        }
        label
    }

    /// Whether the graph is connected (a single component).
    pub fn is_connected(&self) -> bool {
        let labels = self.components();
        labels.iter().all(|&l| l == labels[0])
    }
}

/// A bounded FIFO of the most recent P-reduce groups — the paper's "group
/// history database" (Fig. 6) in its plainest form.
///
/// The controller stores its window once, inside
/// [`WindowedConnectivity`]; this type stays public only as the window
/// half of the DFS reference oracle (see [`SyncGraph`]).
#[derive(Debug, Clone)]
pub struct GroupHistory {
    window: usize,
    groups: VecDeque<Vec<usize>>,
    total_recorded: u64,
}

impl GroupHistory {
    /// Creates a history retaining the last `window` groups.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "history window must be positive");
        GroupHistory {
            window,
            groups: VecDeque::with_capacity(window),
            total_recorded: 0,
        }
    }

    /// The retention window `T`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Records a formed group, evicting the oldest beyond the window.
    pub fn record(&mut self, group: Vec<usize>) {
        if self.groups.len() == self.window {
            self.groups.pop_front();
        }
        self.groups.push_back(group);
        self.total_recorded += 1;
    }

    /// Number of groups currently retained.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups are retained.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total groups ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Whether the window is full — only then is a disconnection
    /// *meaningful* (§4: below `T` groups the graph may simply not have had
    /// time to connect).
    pub fn is_warm(&self) -> bool {
        self.groups.len() == self.window
    }

    /// Builds the sync-graph of the retained groups over `n` workers.
    pub fn sync_graph(&self, n: usize) -> SyncGraph {
        let mut g = SyncGraph::new(n);
        for group in &self.groups {
            g.add_group(group);
        }
        g
    }

    /// Iterates over retained groups, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.groups.iter().map(|g| g.as_slice())
    }
}

/// Counters describing how much work a [`WindowedConnectivity`] has done
/// (the `scale` bench reports these per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityStats {
    /// Union-find merges applied (all of them inside rebuilds).
    pub merges: u64,
    /// Window rebuilds (O(window · P · α) each): one per query that
    /// follows a `record`.
    pub rebuilds: u64,
    /// Always 0: the edge-multiplicity bookkeeping that counted these is
    /// gone. The field survives only because the frozen
    /// `crates/benchmark/src/replay.rs` reads it; the next `benchmark` PR
    /// is the place to drop it.
    pub clean_evictions: u64,
}

/// Windowed sync-graph connectivity: the last `T` groups plus one
/// union-find over the workers, rebuilt lazily.
///
/// Semantics are **exactly** those of
/// `GroupHistory::sync_graph(n).components()` over the same window of
/// groups (checked against the DFS by the seeded oracle test below and
/// the proptest in `crates/core/tests/properties.rs`). [`Self::record`]
/// only pushes the group, evicts the oldest beyond the window and marks
/// the union-find dirty; the first query after a record rebuilds it from
/// the window — an O(N) fill plus `window · (P − 1)` spanning unions,
/// O(window · P · α), versus the O(N²) matrix rebuild + DFS of the
/// oracle. Queries with no record in between reuse the rebuilt forest.
///
/// Component labels are the component's smallest member, matching
/// [`SyncGraph::components`].
#[derive(Debug, Clone)]
pub struct WindowedConnectivity {
    n: usize,
    window: usize,
    groups: VecDeque<Vec<u32>>,
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Smallest member of the component rooted at each index.
    min_member: Vec<u32>,
    /// Component count in the union-find (singletons included).
    components: usize,
    /// Whether `groups` changed since the union-find was last rebuilt.
    dirty: bool,
    total_recorded: u64,
    stats: ConnectivityStats,
}

impl WindowedConnectivity {
    /// Creates an empty structure over `n` workers retaining the last
    /// `window` groups.
    ///
    /// # Panics
    /// Panics if `n == 0`, `window == 0`, or `n > u32::MAX`.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(n > 0, "empty cluster");
        assert!(window > 0, "history window must be positive");
        assert!(n <= u32::MAX as usize, "worker ranks are stored as u32");
        let ids = n as u32;
        WindowedConnectivity {
            n,
            window,
            groups: VecDeque::with_capacity(window),
            parent: (0..ids).collect(),
            size: vec![1; n],
            min_member: (0..ids).collect(),
            components: n,
            dirty: false,
            total_recorded: 0,
            stats: ConnectivityStats::default(),
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.n
    }

    /// The retention window `T`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of groups currently retained.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups are retained.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total groups ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Whether the window is full (mirrors [`GroupHistory::is_warm`]).
    pub fn is_warm(&self) -> bool {
        self.groups.len() == self.window
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ConnectivityStats {
        self.stats
    }

    /// Iterates over the retained groups, oldest first.
    pub fn groups(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        self.groups
            .iter()
            .map(|g| g.iter().map(|&w| w as usize).collect())
    }

    /// Records a formed group, evicting the oldest beyond the window.
    ///
    /// # Panics
    /// Panics if any member is out of range.
    pub fn record(&mut self, group: &[usize]) {
        for &w in group {
            assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        }
        if self.groups.len() == self.window {
            self.groups.pop_front();
        }
        self.groups
            .push_back(group.iter().map(|&w| w as u32).collect());
        self.total_recorded += 1;
        self.dirty = true;
    }

    /// Finds the root of `w` with path compression.
    fn find(&mut self, w: u32) -> u32 {
        let mut root = w;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = w;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        let m = self.min_member[small as usize].min(self.min_member[big as usize]);
        self.min_member[big as usize] = m;
        self.components -= 1;
        self.stats.merges += 1;
    }

    /// Brings the union-find up to date with the window: if a group was
    /// recorded since the last query, resets every worker to a singleton
    /// and re-unions each retained group's `P − 1` spanning edges.
    fn ensure_fresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.stats.rebuilds += 1;
        for (w, p) in self.parent.iter_mut().enumerate() {
            *p = w as u32;
        }
        self.min_member.copy_from_slice(&self.parent);
        self.size.fill(1);
        self.components = self.n;
        // Detach the window so spanning edges can be re-unioned without
        // aliasing `self` (the deque is put back untouched).
        let groups = std::mem::take(&mut self.groups);
        for group in &groups {
            for pair in group.windows(2) {
                self.union(pair[0], pair[1]);
            }
        }
        self.groups = groups;
    }

    /// Whether the window's sync-graph is connected (a single component,
    /// isolated workers counting as their own — the same contract as
    /// [`SyncGraph::is_connected`]).
    pub fn is_connected(&mut self) -> bool {
        self.ensure_fresh();
        self.components == 1
    }

    /// Component label of worker `w`: the smallest member of its
    /// component (matches [`SyncGraph::components`] labeling).
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn component_of(&mut self, w: usize) -> usize {
        assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        self.ensure_fresh();
        let root = self.find(w as u32);
        self.min_member[root as usize] as usize
    }

    /// Connected-component label per worker; equals
    /// `GroupHistory::sync_graph(n).components()` for the same window.
    pub fn components(&mut self) -> Vec<usize> {
        (0..self.n).map(|w| self.component_of(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_window_formula() {
        assert_eq!(min_history_window(8, 3), 4); // ⌈7/2⌉
        assert_eq!(min_history_window(8, 5), 2); // ⌈7/4⌉
        assert_eq!(min_history_window(4, 2), 3);
        assert_eq!(min_history_window(2, 2), 1);
        assert_eq!(min_history_window(1, 2), 0);
    }

    #[test]
    fn empty_graph_components_are_singletons() {
        let g = SyncGraph::new(3);
        assert_eq!(g.components(), vec![0, 1, 2]);
        assert!(!g.is_connected());
        let g1 = SyncGraph::new(1);
        assert!(g1.is_connected());
    }

    #[test]
    fn group_connects_members_pairwise() {
        let mut g = SyncGraph::new(5);
        g.add_group(&[0, 2, 4]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 4));
        assert!(g.has_edge(0, 4));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.components(), vec![0, 1, 0, 3, 0]);
    }

    #[test]
    fn chain_of_groups_connects_cluster() {
        let mut g = SyncGraph::new(6);
        g.add_group(&[0, 1]);
        g.add_group(&[1, 2]);
        g.add_group(&[2, 3]);
        g.add_group(&[3, 4]);
        assert!(!g.is_connected()); // 5 still isolated
        g.add_group(&[4, 5]);
        assert!(g.is_connected());
    }

    #[test]
    fn isolated_pairs_stay_disconnected() {
        let mut g = SyncGraph::new(4);
        for _ in 0..10 {
            g.add_group(&[0, 1]);
            g.add_group(&[2, 3]);
        }
        assert!(!g.is_connected());
        let comps = g.components();
        assert_eq!(comps[0], comps[1]);
        assert_eq!(comps[2], comps[3]);
        assert_ne!(comps[0], comps[2]);
    }

    #[test]
    fn history_evicts_beyond_window() {
        let mut h = GroupHistory::new(2);
        assert!(!h.is_warm());
        h.record(vec![0, 1]);
        h.record(vec![1, 2]);
        assert!(h.is_warm());
        h.record(vec![2, 3]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.total_recorded(), 3);
        // Oldest group (0,1) evicted: its edge is gone from the graph.
        let g = h.sync_graph(4);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn sync_graph_reflects_window_only() {
        let mut h = GroupHistory::new(3);
        h.record(vec![0, 1]);
        h.record(vec![2, 3]);
        let g = h.sync_graph(4);
        assert!(!g.is_connected());
        h.record(vec![1, 2]);
        assert!(h.sync_graph(4).is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_group_checks_bounds() {
        SyncGraph::new(2).add_group(&[0, 5]);
    }

    /// Replays the same groups through a [`GroupHistory`] + DFS and a
    /// [`WindowedConnectivity`], asserting identical verdicts after every
    /// record.
    fn assert_tracks_dfs(n: usize, window: usize, groups: &[Vec<usize>]) {
        let mut h = GroupHistory::new(window);
        let mut c = WindowedConnectivity::new(n, window);
        for g in groups {
            h.record(g.clone());
            c.record(g);
            let reference = h.sync_graph(n);
            assert_eq!(c.is_connected(), reference.is_connected(), "{groups:?}");
            assert_eq!(c.components(), reference.components(), "{groups:?}");
            assert_eq!(c.len(), h.len());
            assert_eq!(c.is_warm(), h.is_warm());
        }
    }

    #[test]
    fn windowed_chain_connects_cluster() {
        let mut c = WindowedConnectivity::new(6, 8);
        for pair in [[0, 1], [1, 2], [2, 3], [3, 4]] {
            c.record(&pair);
        }
        assert!(!c.is_connected()); // 5 still isolated
        c.record(&[4, 5]);
        assert!(c.is_connected());
        assert_eq!(c.components(), vec![0; 6]);
    }

    #[test]
    fn windowed_isolated_pairs_stay_disconnected() {
        let mut c = WindowedConnectivity::new(4, 20);
        for _ in 0..10 {
            c.record(&[0, 1]);
            c.record(&[2, 3]);
        }
        assert!(!c.is_connected());
        assert_eq!(c.components(), vec![0, 0, 2, 2]);
    }

    #[test]
    fn windowed_eviction_disconnects() {
        // Window 2: recording (0,1), (1,2), (2,3) evicts (0,1), whose
        // edge appears nowhere younger — worker 0 is isolated again.
        let mut c = WindowedConnectivity::new(4, 2);
        c.record(&[0, 1]);
        c.record(&[1, 2]);
        assert!(c.is_warm());
        c.record(&[2, 3]);
        assert_eq!(c.components(), vec![0, 1, 1, 1]);
        assert!(!c.is_connected());
        assert_eq!(c.total_recorded(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn windowed_matches_dfs_on_scripted_sequences() {
        assert_tracks_dfs(
            6,
            3,
            &[
                vec![0, 1, 2],
                vec![2, 3, 4],
                vec![4, 5, 0],
                vec![1, 3, 5],
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![3, 4, 5],
                vec![0, 1, 2],
            ],
        );
        assert_tracks_dfs(
            8,
            4,
            &[
                vec![0, 1],
                vec![2, 3],
                vec![4, 5],
                vec![6, 7],
                vec![1, 2],
                vec![3, 4],
                vec![5, 6],
                vec![7, 0],
                vec![0, 1],
                vec![2, 3],
            ],
        );
        // Duplicate members contribute no edge.
        assert_tracks_dfs(
            4,
            2,
            &[vec![1, 1], vec![2, 2, 3], vec![0, 0, 0], vec![3, 1, 3]],
        );
    }

    /// Fleet-sized companion of the DFS-oracle property in
    /// `tests/properties.rs` (N=7 there): random groups at N=64, P=4
    /// through windows below, at and above `T = ⌈63/3⌉ = 21`, probed every
    /// 1, 2 and 3 records so runs of several records between queries are
    /// covered.
    #[test]
    fn windowed_matches_dfs_on_seeded_random_stream() {
        const N: usize = 64;
        assert_eq!(min_history_window(N, 4), 21);
        let mut verdicts = [0usize; 2];
        for (window, stride) in [1, 21, 40]
            .into_iter()
            .flat_map(|w| [1, 2, 3].map(|s| (w, s)))
        {
            let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ (window * 8 + stride) as u64;
            let mut next = |bound: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % bound
            };
            let mut h = GroupHistory::new(window);
            let mut c = WindowedConnectivity::new(N, window);
            let mut rebuilds = 0;
            for i in 0..2_000 {
                // Alternate 64-group phases: a sweep of overlapping
                // consecutive quads (any 21 in a row span all 64 workers)
                // and random draws, mostly from one band of 8, so
                // duplicates are common and the graph splits again.
                let group: Vec<usize> = if (i / 64) % 2 == 0 {
                    let k = 3 * (i % 21);
                    (k..k + 4).collect()
                } else {
                    let (base, span) = if i % 7 == 0 {
                        (0, N)
                    } else {
                        (next(N / 8) * 8, 8)
                    };
                    (0..4).map(|_| base + next(span)).collect()
                };
                h.record(group.clone());
                c.record(&group);
                if i % stride != 0 {
                    continue;
                }
                let reference = h.sync_graph(N);
                assert_eq!(c.is_connected(), reference.is_connected(), "group {i}");
                assert_eq!(c.components(), reference.components(), "group {i}");
                assert_eq!(c.is_warm(), h.is_warm());
                verdicts[usize::from(reference.is_connected())] += 1;
                // One rebuild per probed record, however many queries.
                rebuilds += 1;
                assert_eq!(c.stats().rebuilds, rebuilds);
            }
            assert_eq!(c.stats().clean_evictions, 0);
        }
        // The stream must exercise both answers.
        assert!(verdicts[0] > 100 && verdicts[1] > 100, "{verdicts:?}");
    }

    #[test]
    fn windowed_single_worker_is_connected() {
        let mut c = WindowedConnectivity::new(1, 1);
        assert!(c.is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn windowed_record_checks_bounds() {
        WindowedConnectivity::new(2, 1).record(&[0, 5]);
    }
}
