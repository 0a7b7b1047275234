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
//!
//! [`WindowedConnectivity`] is the production structure (DESIGN.md §15.2):
//! membership counts answer every question a worker absent from the window
//! settles, a union-find that takes evicted groups back the rest. [`SyncGraph`] and
//! [`GroupHistory`] are the adjacency-matrix + BFS reference the tests
//! compare it with: the same partition into components, though the
//! union-find labels each component by its root rather than by its
//! smallest member.

use std::collections::VecDeque;
use std::ops::Range;

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

    /// The live-fleet rule from the oracle's side, given the DFS `labels`
    /// of [`Self::sync_graph`]: the vertices are the workers that have not
    /// departed plus those still in the window.
    #[cfg(test)]
    pub(crate) fn live_fleet_is_connected(&self, labels: &[usize], departed: &[bool]) -> bool {
        let mut live = (0..labels.len())
            .filter(|&w| !departed[w] || self.iter().any(|g| g.contains(&w)))
            .map(|w| labels[w]);
        let first = live.next();
        live.all(|label| Some(label) == first)
    }
}

/// Counters describing how a [`WindowedConnectivity`] answered its
/// queries (`preduce scale` reports these per run): every query is either
/// answered from the membership table or consults the forest, and the
/// first query that consults it after a `record` brings it up to date,
/// by replaying the groups that came and went or by reloading the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityStats {
    /// Unions that merged two trees, in reloads and replays alike (a
    /// group re-applied by an eviction counts its merges again).
    pub merges: u64,
    /// Window reloads (O(N + window · P · log N) each): taken by a query
    /// that found the forest further behind the window than replaying the
    /// missed groups would be worth, or never loaded.
    pub rebuilds: u64,
    /// Queries answered from the membership table alone, without
    /// consulting the forest: a worker in none of the retained groups is
    /// an isolated vertex, whatever the rest of the graph looks like.
    pub membership_answers: u64,
    /// Forest finds made to label a present worker
    /// ([`WindowedConnectivity::component_of`]), O(log N) each.
    pub label_reads: u64,
    /// Always 0: the edge-multiplicity bookkeeping that counted these is
    /// gone. The field survives only because the frozen
    /// `crates/benchmark/src/replay.rs` reads it; the next `benchmark` PR
    /// is the place to drop it.
    pub clean_evictions: u64,
}

/// A flag in a child's rank byte, which is frozen while the child hangs
/// under its parent: the link raised the parent's rank.
const RAISED: u8 = 0x80;

/// A window group applied to the forest: its record id, the undo-log
/// length before its unions, and whether it is `old` (the side of the
/// queue evictions take from).
#[derive(Debug, Clone, Copy)]
struct Applied {
    id: u64,
    mark: u32,
    old: bool,
}

/// A union-find that undoes: union by rank, no path compression (a find
/// walks at most log₂ N parents), one undo entry per merging union — the
/// child it hung, never more than `N − 1` of them — and the applied
/// groups on one stack in *queue-undo* order, so the oldest group can be
/// taken back while newer ones stay: new groups go on top as "new"; the
/// "old" ones are ordered with the oldest topmost;
/// [`Forest::evict_oldest`] reorders a logarithmic amortized number of
/// groups to bring it to the top.
#[derive(Debug, Clone)]
struct Forest {
    parent: Vec<u32>,
    /// Rank of each root (at most log₂ N), and a child's [`RAISED`] flag.
    rank: Vec<u8>,
    /// The child of each merging union, oldest first.
    undo: Vec<u32>,
    stack: Vec<Applied>,
    /// How many entries of `stack` are old.
    olds: usize,
    merges: u64,
    /// Queued workers in each node's subtree: empty until a worker is
    /// first queued, then kept while the owner holds the forest.
    queued_below: Vec<u32>,
    /// Roots whose tree holds a queued worker.
    queued_roots: usize,
}

impl Forest {
    /// `n` singletons, with room for `groups` applied groups.
    fn new(n: usize, groups: usize) -> Self {
        Forest {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            // Every live entry joins two components: at most `n − 1`.
            undo: Vec::with_capacity(n - 1),
            stack: Vec::with_capacity(groups),
            olds: 0,
            merges: 0,
            queued_below: Vec::new(),
            queued_roots: 0,
        }
    }

    /// Component count, singletons included.
    fn components(&self) -> usize {
        self.parent.len() - self.undo.len()
    }

    fn find(&self, mut w: u32) -> u32 {
        while self.parent[w as usize] != w {
            w = self.parent[w as usize];
        }
        w
    }

    /// Counts worker `w` in (`queued`) or out of the queued workers below
    /// each of its at most log₂ N ancestors.
    fn count_queued(&mut self, mut w: u32, queued: bool) {
        loop {
            let below = &mut self.queued_below[w as usize];
            *below = if queued { *below + 1 } else { *below - 1 };
            if self.parent[w as usize] == w {
                break;
            }
            w = self.parent[w as usize];
        }
        if self.queued_below[w as usize] == u32::from(queued) {
            self.queued_roots = if queued {
                self.queued_roots + 1
            } else {
                self.queued_roots - 1
            };
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra as usize, rb)
        } else {
            (rb as usize, ra)
        };
        self.undo.push(small);
        let small = small as usize;
        self.parent[small] = big as u32;
        if !self.queued_below.is_empty() {
            let moved = self.queued_below[small];
            self.queued_roots -= usize::from(moved > 0 && self.queued_below[big] > 0);
            self.queued_below[big] += moved;
        }
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
            self.rank[small] |= RAISED;
        }
        self.merges += 1;
    }

    /// Applies a group's `P − 1` consecutive-pair spanning unions and
    /// returns the undo-log length before them.
    fn apply(&mut self, members: &[u32]) -> u32 {
        let mark = self.undo.len() as u32;
        for pair in members.windows(2) {
            self.union(pair[0], pair[1]);
        }
        mark
    }

    /// Takes back every union logged from `mark` on, newest first.
    fn revert(&mut self, mark: u32) {
        for child in self.undo.drain(mark as usize..).rev() {
            let (c, parent) = (child as usize, self.parent[child as usize] as usize);
            if self.rank[c] & RAISED != 0 {
                self.rank[parent] -= 1;
            }
            self.rank[c] &= !RAISED;
            self.parent[c] = child;
            // Reverts run newest first, so `parent` is a root again.
            if !self.queued_below.is_empty() {
                let moved = self.queued_below[c];
                self.queued_below[parent] -= moved;
                self.queued_roots += usize::from(moved > 0 && self.queued_below[parent] > 0);
            }
        }
    }

    /// Applies group `id` on top of the stack.
    fn push(&mut self, id: u64, members: &[u32], old: bool) {
        let mark = self.apply(members);
        self.stack.push(Applied { id, mark, old });
        self.olds += usize::from(old);
    }

    /// Back to N singletons, each counting itself if `queued` says so;
    /// the counts kept so far may be stale, so the reverts skip them.
    fn clear(&mut self, queued: &[bool]) {
        self.queued_below.clear();
        self.revert(0);
        self.stack.clear();
        self.olds = 0;
        self.queued_below
            .extend(queued.iter().map(|&q| u32::from(q)));
        self.queued_roots = queued.iter().filter(|&&q| q).count();
    }

    /// Takes back the oldest applied group and returns its id; `group(id)`
    /// returns the members of every applied group. With no old group on
    /// the stack, every group becomes old, the oldest on top; under a new
    /// top, the groups down to where as many old as new ones lie above,
    /// or to the last old one, are reordered: the new ones first, then
    /// the old ones, each in their order. The reordered groups are taken
    /// back and applied again, all but the top one, which leaves.
    fn evict_oldest<'g>(&mut self, group: impl Fn(u64) -> &'g [u32]) -> Option<u64> {
        let top = self.stack.len().checked_sub(1)?;
        let from = if self.olds == 0 {
            0
        } else if self.stack[top].old {
            top
        } else {
            let (mut from, mut balance, mut olds_left) = (top, -1isize, self.olds);
            while balance != 0 && olds_left > 0 {
                from -= 1;
                if self.stack[from].old {
                    balance += 1;
                    olds_left -= 1;
                } else {
                    balance -= 1;
                }
            }
            from
        };
        self.revert(self.stack[from].mark);
        let reordered = &mut self.stack[from..];
        if self.olds == 0 {
            reordered.reverse();
            reordered.iter_mut().for_each(|a| a.old = true);
            self.olds = reordered.len();
        } else {
            reordered.sort_by_key(|a| a.old);
        }
        let oldest = self.stack.pop()?;
        self.olds -= 1;
        for i in from..self.stack.len() {
            self.stack[i].mark = self.apply(group(self.stack[i].id));
        }
        Some(oldest.id)
    }
}

/// Windowed sync-graph connectivity: the last `T` groups, a per-worker
/// count of the retained groups each worker sits in, and one union-find
/// over the workers that can take a group back, caught up lazily.
///
/// Graph semantics are **exactly** those of
/// `GroupHistory::sync_graph(n)` over the same window of groups: the same
/// partition into components (checked against the DFS by the seeded
/// oracle tests below and the proptest in
/// `crates/core/tests/properties.rs`). [`Self::record`]
/// pushes the group and updates the counts: `2·P` counter updates, no
/// union. Queries look at the counts first: a worker whose count is 0 is
/// *absent* from the window — an isolated vertex, its own component — and
/// at the minimum `T` about a third of a jittered fleet is. Only a
/// question that has to tell two *present* workers apart consults the
/// forest, and the first such query after a record catches it up: it
/// takes back the groups that left the window and applies the ones that
/// entered — an amortized O(log T) group re-applications per eviction,
/// each `P − 1` unions of O(log N) finds — when that is cheaper than
/// reloading the window (O(N + window · P · log N), the old per-query
/// rebuild), and reloads otherwise. A structure nobody queries keeps at
/// most `window / (1 + log₂ window)` evicted groups for a replay before
/// it gives the forest up for a reload.
///
/// [`Self::is_connected`] judges the *live* fleet: a departed worker
/// ([`Self::set_departed`]) that has rolled out of the window is no
/// vertex, or one departure would disconnect the graph for good; one
/// still inside the window keeps linking the groups it was in.
///
/// A component is labelled by its forest root, which any member may be:
/// labels tell components apart, and callers only compare them.
///
/// The group filter's queue is told in too ([`Self::set_queued`]): each
/// forest node counts the queued workers in its subtree and the forest
/// counts the roots above one, so [`Self::queued_components`] reads one
/// counter where labelling the queue would walk every queued worker. The
/// counts are kept while the forest is held; a reload recounts them.
#[derive(Debug, Clone)]
pub struct WindowedConnectivity {
    n: usize,
    window: usize,
    /// Groups by record id from `first` on: the window, and before it
    /// the evicted groups the forest still holds.
    groups: VecDeque<Vec<u32>>,
    first: u64,
    /// Member slots each worker occupies in the window (a worker listed
    /// twice in one group counts twice and leaves twice).
    membership: Vec<u32>,
    /// Workers told to have left the fleet.
    departed: Vec<bool>,
    /// Workers with `membership == 0` that are still in the fleet: each
    /// is a component of its own.
    absent_live: usize,
    /// Departed workers with `membership == 0`: not vertices of the live
    /// sync-graph.
    absent_departed: usize,
    /// Workers with a queued signal, allocated by the first
    /// [`Self::set_queued`]; how many there are, and how many of them
    /// have `membership == 0`.
    queued: Vec<bool>,
    queued_workers: usize,
    queued_absent: usize,
    forest: Forest,
    /// The record ids the forest holds; `None` once it was given up and
    /// only a reload can bring it back.
    held: Option<Range<u64>>,
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
        // The window, the evicted groups a replay may still take back
        // (see `record`), and the group being recorded.
        let retained = window + window / (1 + window.ilog2() as usize) + 1;
        WindowedConnectivity {
            n,
            window,
            groups: VecDeque::with_capacity(retained),
            first: 0,
            membership: vec![0; n],
            departed: vec![false; n],
            absent_live: n,
            absent_departed: 0,
            queued: Vec::new(),
            queued_workers: 0,
            queued_absent: 0,
            forest: Forest::new(n, window),
            held: Some(0..0),
            total_recorded: 0,
            stats: ConnectivityStats::default(),
        }
    }

    /// Total groups ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Whether the window is full (mirrors [`GroupHistory::is_warm`]).
    pub fn is_warm(&self) -> bool {
        self.total_recorded >= self.window as u64
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ConnectivityStats {
        ConnectivityStats {
            merges: self.forest.merges,
            ..self.stats
        }
    }

    /// Record ids of the window: the last `window` groups.
    fn window_ids(&self) -> Range<u64> {
        self.total_recorded.saturating_sub(self.window as u64)..self.total_recorded
    }

    /// The counter of absent workers `w` currently belongs to, should its
    /// membership be 0.
    fn absent_counter(&mut self, w: usize) -> &mut usize {
        if self.departed[w] {
            &mut self.absent_departed
        } else {
            &mut self.absent_live
        }
    }

    /// What catching the forest up from `held` costs, in group
    /// applications: each eviction counted at the `1 + log₂ window`
    /// re-applications queue-undo order amortizes to, each insertion at
    /// one. Reloading costs the window's length.
    fn replay_cost(&self, held: &Range<u64>) -> u64 {
        let window = self.window_ids();
        let evictions = held.end.min(window.start).saturating_sub(held.start);
        let insertions = window.end - held.end.max(window.start);
        evictions * u64::from(1 + self.window.ilog2()) + insertions
    }

    /// Records a formed group, evicting the oldest beyond the window.
    ///
    /// # Panics
    /// Panics if any member is out of range.
    pub fn record(&mut self, group: &[usize]) {
        for &w in group {
            assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        }
        if self.is_warm() {
            // Detached while its members leave; put back for the forest.
            let slot = (self.window_ids().start - self.first) as usize;
            let evicted = std::mem::take(&mut self.groups[slot]);
            for &w in &evicted {
                let w = w as usize;
                self.membership[w] -= 1;
                if self.membership[w] == 0 {
                    *self.absent_counter(w) += 1;
                    self.queued_absent += usize::from(self.is_queued(w));
                }
            }
            self.groups[slot] = evicted;
        }
        for &w in group {
            if self.membership[w] == 0 {
                *self.absent_counter(w) -= 1;
                self.queued_absent -= usize::from(self.is_queued(w));
            }
            self.membership[w] += 1;
        }
        self.groups
            .push_back(group.iter().map(|&w| w as u32).collect());
        self.total_recorded += 1;
        // Once a replay costs a reload, it does for good: both of its
        // terms only grow until the next query. Give the held groups up.
        let window = self.window_ids();
        if self.held.as_ref().is_some_and(|held| {
            held.start < window.start && self.replay_cost(held) >= window.end - window.start
        }) {
            self.held = None;
        }
        self.trim();
    }

    /// Drops the stored groups no catch-up needs: those before the window
    /// that the forest does not hold.
    fn trim(&mut self) {
        let window = self.window_ids();
        let keep = self.held.as_ref().map_or(window.start, |held| held.start);
        while self.first < keep {
            self.groups.pop_front();
            self.first += 1;
        }
    }

    /// Tells the structure that worker `w` left the fleet (`true`) or was
    /// restored to it (`false`). Only [`Self::is_connected`] cares, and
    /// only once `w` is absent from the window; repeating the current
    /// state is a no-op.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn set_departed(&mut self, w: usize, departed: bool) {
        assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        if self.departed[w] == departed {
            return;
        }
        // An absent worker moves from one absent counter to the other.
        let absent = self.membership[w] == 0;
        *self.absent_counter(w) -= usize::from(absent);
        self.departed[w] = departed;
        *self.absent_counter(w) += usize::from(absent);
    }

    /// Whether worker `w` has a queued signal; `false` out of range.
    pub fn is_queued(&self, w: usize) -> bool {
        self.queued.get(w) == Some(&true)
    }

    /// Tells the structure that worker `w` has a signal queued (`true`)
    /// or no longer has (`false`); repeating the current state is a
    /// no-op. While the forest is held, `w`'s ancestors count it.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn set_queued(&mut self, w: usize, queued: bool) {
        assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        if self.queued.is_empty() {
            // Nobody is queued yet: every count is 0.
            self.queued = vec![false; self.n];
            self.forest.queued_below = vec![0; self.n];
        }
        if self.queued[w] == queued {
            return;
        }
        self.queued[w] = queued;
        let absent = usize::from(self.membership[w] == 0);
        if queued {
            self.queued_workers += 1;
            self.queued_absent += absent;
        } else {
            self.queued_workers -= 1;
            self.queued_absent -= absent;
        }
        if self.held.is_some() {
            self.forest.count_queued(w as u32, queued);
        }
    }

    /// Brings the forest up to date with the window: replays the groups
    /// that left and entered it since the last catch-up when that costs
    /// less than reloading the window, and reloads it otherwise — every
    /// group pushed as old, newest first, so the oldest is the first to
    /// go.
    fn ensure_fresh(&mut self) {
        let window = self.window_ids();
        let replay = match &self.held {
            Some(held) if *held == window => return,
            Some(held) => {
                (self.replay_cost(held) < window.end - window.start).then(|| held.clone())
            }
            None => None,
        };
        let groups = &self.groups;
        let first = self.first;
        let group = |id: u64| groups[(id - first) as usize].as_slice();
        match replay {
            Some(held) => {
                for id in held.start..held.end.min(window.start) {
                    let evicted = self.forest.evict_oldest(group);
                    debug_assert_eq!(evicted, Some(id), "queue-undo order broken");
                }
                for id in held.end.max(window.start)..window.end {
                    self.forest.push(id, group(id), false);
                }
            }
            None => {
                self.stats.rebuilds += 1;
                self.forest.clear(&self.queued);
                for id in window.clone().rev() {
                    self.forest.push(id, group(id), true);
                }
            }
        }
        self.held = Some(window);
        self.trim();
    }

    /// Whether the live sync-graph is a single component. Its vertices are
    /// the workers that have not departed plus departed ones still inside
    /// the window; without departures that is every worker, isolated ones
    /// counting as their own component — the contract of
    /// [`SyncGraph::is_connected`]. One absent live worker among two or
    /// more vertices answers `false` without the forest.
    pub fn is_connected(&mut self) -> bool {
        if self.absent_live > 0 && self.n - self.absent_departed > 1 {
            self.stats.membership_answers += 1;
            return false;
        }
        self.ensure_fresh();
        // Every absent departed worker is a singleton of the forest.
        self.forest.components() - self.absent_departed <= 1
    }

    /// Component label of worker `w`: the forest root of its component,
    /// equal for two workers exactly when [`SyncGraph::components`] puts
    /// them together, and stable until the next [`Self::record`]. An
    /// absent worker is its own label, no forest needed.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn component_of(&mut self, w: usize) -> usize {
        assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
        if self.membership[w] == 0 {
            self.stats.membership_answers += 1;
            return w;
        }
        self.ensure_fresh();
        self.stats.label_reads += 1;
        self.forest.find(w as u32) as usize
    }

    /// How many components the queued workers ([`Self::set_queued`])
    /// touch, or `at_most` if they touch more. Each absent queued worker
    /// is a component and the present ones add at least one more; when
    /// that settles the answer the forest is left alone, otherwise it is
    /// caught up and its count of roots holding a queued worker is read.
    pub fn queued_components(&mut self, at_most: usize) -> usize {
        let present = self.queued_workers - self.queued_absent;
        let floor = self.queued_absent + present.min(1);
        if present > 1 && floor < at_most {
            self.ensure_fresh();
            return self.forest.queued_roots.min(at_most);
        }
        floor.min(at_most)
    }

    /// Whether the queued workers touch at least two components — the
    /// group filter's question about its queue. One absent queued worker
    /// beside another queued one settles it from the membership counts.
    pub fn queue_spans(&mut self) -> bool {
        if self.queued_absent > 0 && self.queued_workers > 1 {
            self.stats.membership_answers += 1;
            return true;
        }
        self.queued_components(2) == 2
    }

    /// Whether `workers` touch at least two components — the checker's
    /// question about a repair group. Equals "[`Self::component_of`]
    /// yields two distinct labels", but as soon as one of two distinct
    /// workers is absent the answer is `true` whatever the other labels
    /// are, and the forest is left alone; it is consulted only when every
    /// listed worker is present.
    ///
    /// # Panics
    /// Panics if any worker is out of range.
    pub fn spans_components(
        &mut self,
        workers: impl IntoIterator<Item = usize, IntoIter: Clone>,
    ) -> bool {
        let workers = workers.into_iter();
        let mut first = None;
        let mut distinct = false;
        let mut absent = false;
        for w in workers.clone() {
            assert!(w < self.n, "worker {w} out of range (N = {})", self.n);
            distinct |= *first.get_or_insert(w) != w;
            absent |= self.membership[w] == 0;
            if distinct && absent {
                self.stats.membership_answers += 1;
                return true;
            }
        }
        // Either one worker listed over and over, or all of them present.
        if !distinct {
            return false;
        }
        let mut labels = workers.map(|w| self.component_of(w));
        let head = labels.next();
        labels.any(|label| Some(label) != head)
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

    /// `c`'s components, each labelled by its smallest member, as
    /// [`SyncGraph::components`] labels them: equal vectors are equal
    /// partitions, whatever labels `c` gives.
    fn partition(c: &mut WindowedConnectivity) -> Vec<usize> {
        let labels: Vec<usize> = (0..c.n).map(|w| c.component_of(w)).collect();
        labels
            .iter()
            .map(|l| labels.iter().position(|m| m == l).unwrap_or(usize::MAX))
            .collect()
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
            assert_eq!(partition(&mut c), reference.components(), "{groups:?}");
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
        assert_eq!(partition(&mut c), vec![0; 6]);
    }

    #[test]
    fn windowed_isolated_pairs_stay_disconnected() {
        let mut c = WindowedConnectivity::new(4, 20);
        for _ in 0..10 {
            c.record(&[0, 1]);
            c.record(&[2, 3]);
        }
        assert!(!c.is_connected());
        assert_eq!(partition(&mut c), vec![0, 0, 2, 2]);
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
        assert_eq!(partition(&mut c), vec![0, 1, 1, 1]);
        assert!(!c.is_connected());
        assert_eq!(c.total_recorded(), 3);
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
            let mut probed = 0u64;
            let mut absent_probes = 0;
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
                let labels = reference.components();
                // A worker outside every retained group settles each
                // question it is part of while the forest is still stale.
                if let Some(a) = (0..N).find(|&w| h.iter().all(|g| !g.contains(&w))) {
                    let b = (a + 1 + next(N - 1)) % N;
                    let before = c.stats();
                    assert!(c.spans_components([b, a, b]), "group {i}");
                    assert!(!c.spans_components([a, a]), "group {i}");
                    assert_eq!(c.component_of(a), a);
                    assert!(!c.is_connected());
                    let after = c.stats();
                    assert_eq!(after.membership_answers, before.membership_answers + 3);
                    assert_eq!(
                        (after.rebuilds, after.merges),
                        (before.rebuilds, before.merges),
                        "group {i}"
                    );
                    absent_probes += 1;
                }
                // Random subsets, repeated ranks included, against "at
                // least two distinct DFS labels".
                for _ in 0..4 {
                    let base = next(N / 8) * 8;
                    let subset: Vec<usize> = (0..1 + next(5))
                        .map(|_| {
                            if next(4) == 0 {
                                next(N)
                            } else {
                                base + next(8)
                            }
                        })
                        .collect();
                    let mut distinct: Vec<usize> = subset.iter().map(|&w| labels[w]).collect();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(
                        c.spans_components(subset.iter().copied()),
                        distinct.len() >= 2,
                        "group {i}, subset {subset:?}"
                    );
                }
                assert_eq!(c.is_connected(), reference.is_connected(), "group {i}");
                assert_eq!(partition(&mut c), labels, "group {i}");
                assert_eq!(c.is_warm(), h.is_warm());
                verdicts[usize::from(reference.is_connected())] += 1;
                // One catch-up per probed record, however many queries:
                // at most one reload, and asking again merges nothing.
                let settled = c.stats();
                assert_eq!(partition(&mut c), labels, "group {i}");
                assert_eq!(c.stats().merges, settled.merges, "group {i}");
                assert!(settled.rebuilds <= rebuilds + 1, "group {i}");
                rebuilds = settled.rebuilds;
                probed += 1;
            }
            // A one-group window reloads at every probe (the replay of an
            // eviction and an insertion costs more than one group); the
            // wider ones load once and replay from then on.
            let reloads = if window == 1 { probed } else { 1 };
            assert_eq!(rebuilds, reloads, "window {window}, stride {stride}");
            assert_eq!(c.stats().clean_evictions, 0);
            // A one-group window leaves 60 workers absent; the sweeps of
            // the wider ones cover everybody for whole phases.
            let probes = 2_000 / stride;
            assert!(
                absent_probes > probes / 4,
                "window {window}: {absent_probes}"
            );
            assert!(
                window == 1 || absent_probes < probes * 3 / 4,
                "window {window}: {absent_probes}"
            );
        }
        // The stream must exercise both answers.
        assert!(verdicts[0] > 100 && verdicts[1] > 100, "{verdicts:?}");
    }

    #[test]
    fn absent_workers_settle_queries_without_the_forest() {
        let mut c = WindowedConnectivity::new(6, 2);
        c.record(&[0, 1]);
        c.record(&[1, 2]); // 3, 4 and 5 sit in no retained group
        assert!(!c.is_connected());
        assert_eq!(c.component_of(4), 4);
        assert!(c.spans_components([0, 4]));
        assert!(c.spans_components([3, 4]));
        // One worker, however often it is listed, is one component.
        assert!(!c.spans_components([4, 4]));
        assert!(!c.spans_components([]));
        assert_eq!(c.stats().rebuilds, 0);
        assert_eq!(c.stats().membership_answers, 4);
        // Telling two present workers apart is what the forest is for.
        assert!(!c.spans_components([0, 2]));
        assert_eq!(c.stats().rebuilds, 1);
        assert_eq!(c.stats().membership_answers, 4);

        // A worker listed twice in a group holds two slots and gives both
        // back: evicting [0, 1] leaves 0 absent, 1 present through [1, 2].
        c.record(&[3, 3]);
        assert_eq!(partition(&mut c), vec![0, 1, 1, 3, 4, 5]);
        assert!(c.spans_components([1, 0]));
        c.record(&[4, 5]); // evicts [1, 2]
        c.record(&[4, 5]); // evicts [3, 3]: both slots of 3 go at once
        let rebuilds = c.stats().rebuilds;
        assert!(c.spans_components([4, 3]));
        assert_eq!(c.stats().rebuilds, rebuilds);
        assert_eq!(partition(&mut c), vec![0, 1, 2, 3, 4, 4]);
    }

    #[test]
    fn departed_worker_stops_being_a_vertex_once_out_of_the_window() {
        let mut c = WindowedConnectivity::new(4, 2);
        c.record(&[0, 3]);
        c.record(&[0, 1]);
        c.record(&[1, 2]); // 3 rolled out
        assert!(!c.is_connected());
        c.set_departed(3, true);
        assert!(c.is_connected(), "the survivors 0-1-2 are one component");
        assert_eq!(partition(&mut c), vec![0, 0, 0, 3], "the graph's partition");
        c.set_departed(3, true); // repeating the state changes nothing
        assert!(c.is_connected());
        c.set_departed(3, false);
        assert!(!c.is_connected(), "restored and not yet in a group");
        c.set_departed(3, true);

        // A departed worker still inside the window keeps linking 0 and 2.
        c.set_departed(1, true);
        assert!(c.is_connected());
        c.record(&[0, 3]); // evicts [0, 1]; 3 is in the window again
        assert!(!c.is_connected(), "0-3 and 1-2");
        c.record(&[0, 0]); // evicts [1, 2]: 1 is gone, 2 is isolated
        assert!(!c.is_connected());
        c.set_departed(2, true);
        assert!(c.is_connected(), "0-3 is all that is left");
        c.set_departed(0, true);
        c.record(&[3, 3]);
        c.record(&[3, 3]);
        assert!(c.is_connected(), "one vertex");
    }

    #[test]
    fn live_connectivity_matches_dfs_under_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const N: usize = 16;
        let mut verdicts = [0usize; 2];
        for window in [2, 5, 8, 12] {
            let mut rng = StdRng::seed_from_u64(window as u64);
            let mut next = |bound: usize| rng.gen_range(0..bound);
            let mut h = GroupHistory::new(window);
            let mut c = WindowedConnectivity::new(N, window);
            let mut departed = [false; N];
            for i in 0..1_500 {
                if i % 3 == 0 {
                    // Mostly departures of the upper half, so whole runs
                    // of groups below see them roll out of the window.
                    let w = if next(4) == 0 {
                        next(N)
                    } else {
                        N / 2 + next(N / 2)
                    };
                    departed[w] = (i / 150) % 2 == 0 && next(3) != 0;
                    c.set_departed(w, departed[w]);
                }
                // Survivors form the groups, as in the controller.
                let alive: Vec<usize> = (0..N).filter(|&w| !departed[w]).collect();
                if alive.len() < 3 {
                    continue;
                }
                let group: Vec<usize> = (0..3).map(|_| alive[next(alive.len())]).collect();
                h.record(group.clone());
                c.record(&group);
                let labels = h.sync_graph(N).components();
                let expected = h.live_fleet_is_connected(&labels, &departed);
                assert_eq!(c.is_connected(), expected, "window {window}, group {i}");
                assert_eq!(partition(&mut c), labels);
                verdicts[usize::from(expected)] += 1;
            }
        }
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
