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

use std::collections::{HashMap, VecDeque};

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
/// matrix + BFS *reference oracle* that `core/tests/properties.rs`,
/// `tests/schedule_properties.rs` and `benches/micro.rs` pin
/// [`WindowedConnectivity`] against.
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

/// Counters describing how much work a [`WindowedConnectivity`] structure
/// has done — the observability half of the amortization story (the
/// `scale` bench reports these per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityStats {
    /// Union-find merges applied incrementally (near-O(1) each).
    pub merges: u64,
    /// Full window rebuilds (O(window · P · α) each).
    pub rebuilds: u64,
    /// Evictions that removed no *unique* edge, so the structure stayed
    /// exact with no rebuild scheduled.
    pub clean_evictions: u64,
    /// `is_connected` queries answered from the stale superset
    /// (superset disconnected ⇒ exact graph disconnected).
    pub fast_path_hits: u64,
}

/// Windowed sync-graph connectivity with amortized near-O(1) updates —
/// the scale-ready replacement for rebuilding a [`SyncGraph`] and running
/// DFS on every group-filter decision.
///
/// Semantics are **exactly** those of
/// `GroupHistory::sync_graph(n).components()` over the same window of
/// groups (property-tested against the DFS in
/// `crates/core/tests/properties.rs`); only the cost model changes:
///
/// - **Recording** a group applies `P − 1` union-find merges (amortized
///   near-O(1) with path compression + union by size) and updates an
///   edge-multiplicity map.
/// - **Eviction** (window full) decrements the evicted group's edge
///   multiplicities. If every evicted edge is still covered by a younger
///   group, the structure is still exact — nothing to do. Only when an
///   edge truly vanishes does the structure go *stale*, and even then the
///   rebuild is deferred until a query needs exact answers.
/// - **Rebuild** bumps an epoch counter (O(1) reset of the parent/size/
///   label arrays via per-node stamps — no O(N) clear) and re-unions the
///   `window · (P − 1)` spanning edges: O(window · P · α), versus the
///   O(N²) matrix rebuild + DFS it replaces (a 10⁴× gap at N = 10⁴).
/// - **Disconnected fast path**: while stale, the union-find holds a
///   *superset* of the window's edges (vanished edges not yet removed,
///   every new edge applied), so if even the superset is disconnected the
///   exact graph must be too — `is_connected` can answer `false` without
///   rebuilding.
///
/// Component labels are the component's smallest member, matching
/// [`SyncGraph::components`].
#[derive(Debug, Clone)]
pub struct WindowedConnectivity {
    n: usize,
    window: usize,
    groups: VecDeque<Vec<u32>>,
    /// Multiplicity of each undirected edge `(a, b)`, `a < b`, keyed
    /// `a·n + b`, counted over the current window.
    edge_count: HashMap<u64, u32>,
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Smallest member of the component rooted at each index.
    min_member: Vec<u32>,
    /// Per-node epoch stamp: a node whose stamp lags [`Self::epoch`] is
    /// implicitly a fresh singleton (`parent = self`, `size = 1`).
    stamp: Vec<u64>,
    epoch: u64,
    /// Live component count in the union-find (singletons included).
    components: usize,
    /// Whether an eviction removed an edge the union-find still holds.
    stale: bool,
    total_recorded: u64,
    stats: ConnectivityStats,
}

impl WindowedConnectivity {
    /// Creates an empty structure over `n` workers retaining the last
    /// `window` groups.
    ///
    /// # Panics
    /// Panics if `n == 0` or `window == 0`.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(n > 0, "empty cluster");
        assert!(window > 0, "history window must be positive");
        WindowedConnectivity {
            n,
            window,
            groups: VecDeque::with_capacity(window),
            edge_count: HashMap::new(),
            parent: vec![0; n],
            size: vec![0; n],
            min_member: vec![0; n],
            stamp: vec![0; n],
            // Epoch 0 is "never touched"; start at 1 so fresh nodes are
            // lazily materialized on first access.
            epoch: 1,
            components: n,
            stale: false,
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

    fn edge_key(&self, a: u32, b: u32) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        u64::from(lo) * self.n as u64 + u64::from(hi)
    }

    /// Materializes `w` for the current epoch if needed, then finds its
    /// root with path compression.
    fn find(&mut self, w: u32) -> u32 {
        let wi = w as usize;
        if self.stamp[wi] != self.epoch {
            self.stamp[wi] = self.epoch;
            self.parent[wi] = w;
            self.size[wi] = 1;
            self.min_member[wi] = w;
            return w;
        }
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

    /// Records a formed group, evicting the oldest beyond the window.
    ///
    /// # Panics
    /// Panics if any member is out of range.
    pub fn record(&mut self, group: &[usize]) {
        for &w in group {
            assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        }
        if self.groups.len() == self.window {
            if let Some(old) = self.groups.pop_front() {
                let mut vanished = false;
                for (i, &a) in old.iter().enumerate() {
                    for &b in &old[i + 1..] {
                        if a == b {
                            continue;
                        }
                        let key = self.edge_key(a, b);
                        if let Some(count) = self.edge_count.get_mut(&key) {
                            *count -= 1;
                            if *count == 0 {
                                self.edge_count.remove(&key);
                                vanished = true;
                            }
                        }
                    }
                }
                if vanished {
                    self.stale = true;
                } else {
                    self.stats.clean_evictions += 1;
                }
            }
        }
        let members: Vec<u32> = group.iter().map(|&w| w as u32).collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if a == b {
                    continue;
                }
                let key = self.edge_key(a, b);
                *self.edge_count.entry(key).or_insert(0) += 1;
            }
        }
        // Even while stale the union-find is kept a *superset* of the
        // window's edges (the disconnected fast path depends on it), so
        // new groups always merge incrementally.
        for pair in members.windows(2) {
            if pair[0] != pair[1] {
                self.union(pair[0], pair[1]);
            }
        }
        self.groups.push_back(members);
        self.total_recorded += 1;
    }

    /// Rebuilds the union-find from the retained window: O(1) epoch-bump
    /// reset, then `window · (P − 1)` spanning merges.
    fn rebuild(&mut self) {
        self.epoch += 1;
        self.components = self.n;
        self.stale = false;
        self.stats.rebuilds += 1;
        // Detach the window so spanning edges can be re-unioned without
        // aliasing `self` (the deque is put back untouched).
        let groups = std::mem::take(&mut self.groups);
        for group in &groups {
            for pair in group.windows(2) {
                if pair[0] != pair[1] {
                    self.union(pair[0], pair[1]);
                }
            }
        }
        self.groups = groups;
    }

    fn ensure_exact(&mut self) {
        if self.stale {
            self.rebuild();
        }
    }

    /// Whether the window's sync-graph is connected (a single component,
    /// isolated workers counting as their own — the same contract as
    /// [`SyncGraph::is_connected`]).
    pub fn is_connected(&mut self) -> bool {
        if self.stale && self.components > 1 {
            // The union-find holds a superset of the window's edges; if
            // even the superset is split, the exact graph is too.
            self.stats.fast_path_hits += 1;
            return false;
        }
        self.ensure_exact();
        self.components == 1
    }

    /// Component label of worker `w`: the smallest member of its
    /// component (matches [`SyncGraph::components`] labeling).
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn component_of(&mut self, w: usize) -> usize {
        assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        self.ensure_exact();
        let root = self.find(w as u32);
        self.min_member[root as usize] as usize
    }

    /// Connected-component label per worker; equals
    /// `GroupHistory::sync_graph(n).components()` for the same window.
    pub fn components(&mut self) -> Vec<usize> {
        self.ensure_exact();
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
    fn windowed_clean_eviction_skips_rebuild() {
        // The evicted group's edge is still covered by a younger copy, so
        // no rebuild is needed and the eviction counts as clean.
        let mut c = WindowedConnectivity::new(3, 2);
        c.record(&[0, 1]);
        c.record(&[0, 1]);
        c.record(&[1, 2]); // evicts the first (0,1); the second remains
        assert_eq!(c.components(), vec![0, 0, 0]);
        let stats = c.stats();
        assert_eq!(stats.clean_evictions, 1);
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn windowed_stale_fast_path_answers_without_rebuild() {
        // After a dirty eviction splits the graph, the superset union-find
        // is itself split, so `is_connected` can answer from the fast path.
        let mut c = WindowedConnectivity::new(5, 2);
        c.record(&[0, 1]);
        c.record(&[2, 3]);
        c.record(&[2, 3]); // evicts (0,1): dirty, 0–1 edge vanished
        assert!(!c.is_connected());
        let stats = c.stats();
        assert_eq!(stats.fast_path_hits, 1);
        assert_eq!(stats.rebuilds, 0);
        // An exact query then forces the deferred rebuild.
        assert_eq!(c.components(), vec![0, 1, 2, 2, 4]);
        assert_eq!(c.stats().rebuilds, 1);
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
