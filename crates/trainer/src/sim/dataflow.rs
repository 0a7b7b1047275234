//! The simulator's model math as a per-chain dataflow (DESIGN.md §9).
//!
//! Every driver decides its schedule — virtual time, RNG draws, batches,
//! controller decisions and weights — without reading a model value, so
//! it records the math as [`Op`]s and the harness runs them at the next
//! read point. A *chain* is a worker, or the parameter server. [`run`]
//! gives each op one predecessor per chain it touches, the last earlier
//! op on that chain, so every chain's ops run in log order and an op over
//! several chains waits for all of them. Ops on disjoint chains run on
//! different threads. Each op runs the same kernels on the same inputs as
//! when it ran at its event, so a run gives the same bits at any thread
//! count and in any order the edges allow.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use partial_reduce::WeightRow;
use preduce_data::Batch;
use preduce_models::{Network, SgdOptimizer};
use preduce_tensor::Tensor;

use super::SimHarness;
use crate::worker::{backprop, weighted_model_average, WorkerState};

/// One recorded piece of model math.
pub(crate) enum Op {
    /// Worker `w`'s local update on the batch it drew at its event.
    Update { w: usize, batch: Batch },
    /// The weighted average of `group`'s models, written to every member.
    Average {
        group: Vec<usize>,
        weights: WeightRow,
    },
    /// Worker `w`'s gradient at its current parameters, on the batch it
    /// drew at its event, into its slot.
    Gradient { w: usize, batch: Batch },
    /// The synchronous step: the slots of `from`, summed in that order
    /// into zero and scaled once, applied to every worker.
    Step { from: Vec<usize>, scale: f32 },
    /// `w`'s slot pushed to the server at `lr_scale`, then the server's
    /// model pulled into `w`.
    PushPull { w: usize, lr_scale: f32 },
    /// `w` and `peer` average their models, then `w` applies its slot.
    Gossip { w: usize, peer: usize },
}

/// A worker's chain: its state and its gradient slot.
struct Chain<'a> {
    worker: &'a mut WorkerState,
    slot: &'a mut Option<Tensor>,
}

impl Chain<'_> {
    /// The slot's gradient, freeing the slot.
    fn take(&mut self) -> Tensor {
        self.slot
            .take()
            .expect("an op consumes a filled gradient slot")
    }

    /// One SGD step of the worker on `grad`; the harness counted it.
    fn sgd(&mut self, grad: &Tensor) {
        let w = &mut *self.worker;
        w.opt.step_scaled(&mut w.params, grad, 1.0);
    }
}

/// The parameter server: the global model and its momentum-free optimizer.
pub(crate) struct Server {
    pub(crate) params: Tensor,
    pub(crate) opt: SgdOptimizer,
}

impl Op {
    /// Calls `f` on every chain the op touches; the server is chain
    /// `fleet`.
    fn chains(&self, fleet: usize, mut f: impl FnMut(usize)) {
        match self {
            Op::Update { w, .. } | Op::Gradient { w, .. } => f(*w),
            Op::Average { group, .. } => group.iter().for_each(|&m| f(m)),
            Op::Step { .. } => (0..fleet).for_each(f),
            Op::PushPull { w, .. } => [*w, fleet].into_iter().for_each(f),
            Op::Gossip { w, peer } => [*w, *peer].into_iter().for_each(f),
        }
    }

    fn apply(
        &self,
        chains: &[Mutex<Chain>],
        server: &Mutex<Option<&mut Server>>,
        net: &mut Network,
    ) {
        match self {
            Op::Update { w, batch } => lock(&chains[*w]).worker.learn_on(net, batch),
            Op::Gradient { w, batch } => {
                let c = &mut *lock(&chains[*w]);
                backprop(net, &c.worker.params, batch);
                *c.slot = Some(net.grad_vector());
            }
            Op::Average { group, weights } => {
                let mut members: Vec<_> = group.iter().map(|&m| lock(&chains[m])).collect();
                let avg = {
                    let models: Vec<&Tensor> = members.iter().map(|m| &m.worker.params).collect();
                    weighted_model_average(&models, weights)
                };
                for m in &mut members {
                    m.worker.set_params(&avg);
                }
            }
            Op::Step { from, scale } => {
                let mut all: Vec<_> = chains.iter().map(lock).collect();
                let mut sum = Tensor::zeros([all[0].worker.params.len()]);
                for &w in from {
                    sum.add_assign(&all[w].take());
                }
                sum.scale(*scale);
                for c in &mut all {
                    c.sgd(&sum);
                }
            }
            Op::PushPull { w, lr_scale } => {
                let mut c = lock(&chains[*w]);
                let grad = c.take();
                let mut server = lock(server);
                let s = server.as_mut().expect("a push with no server open");
                s.opt.step_scaled(&mut s.params, &grad, *lr_scale);
                c.worker.set_params(&s.params);
            }
            Op::Gossip { w, peer } => {
                let (mut a, mut b) = (lock(&chains[*w]), lock(&chains[*peer]));
                let mut avg = a.worker.params.clone();
                avg.add_assign(&b.worker.params);
                avg.scale(0.5);
                a.worker.set_params(&avg);
                b.worker.set_params(&avg);
                let grad = a.take();
                a.sgd(&grad);
            }
        }
    }
}

/// Locks `m`, taking the guard a panicking holder left: the board's
/// updates cannot panic midway, and an op that panics fails the whole
/// flush ([`Abort`]), so no later op reads the chain it left.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which ops may run: those whose predecessors have all finished.
struct Board {
    /// Runnable ops, earliest first (the earliest is on the critical
    /// path more often than not).
    ready: BinaryHeap<Reverse<usize>>,
    /// Per op, its predecessors still unfinished.
    pending: Vec<u32>,
    /// Ops not yet finished.
    left: usize,
    /// A thread panicked: the others stop taking ops.
    failed: bool,
}

/// What every thread of one flush shares.
struct Flush<'a> {
    ops: &'a [Op],
    /// Per op, the ops waiting on it.
    next: Vec<Vec<usize>>,
    chains: Vec<Mutex<Chain<'a>>>,
    server: Mutex<Option<&'a mut Server>>,
    board: Mutex<Board>,
    /// Signalled when an op becomes ready, the last op finishes or a
    /// thread fails; idle threads wait on it, parked.
    wake: Condvar,
}

/// Marks the flush failed if its thread unwinds, so no thread waits for
/// an op that will never finish.
struct Abort<'f, 'a>(&'f Flush<'a>);

impl Drop for Abort<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.board).failed = true;
            self.0.wake.notify_all();
        }
    }
}

impl Flush<'_> {
    /// Takes ready ops and runs them on `net` until every op has finished.
    fn work(&self, net: &mut Network) {
        let _abort = Abort(self);
        let mut finished = None;
        loop {
            let i = {
                let mut board = lock(&self.board);
                if let Some(j) = finished.take() {
                    self.finish(&mut board, j);
                }
                loop {
                    if board.failed || board.left == 0 {
                        return;
                    }
                    if let Some(Reverse(i)) = board.ready.pop() {
                        break i;
                    }
                    board = self
                        .wake
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.ops[i].apply(&self.chains, &self.server, net);
            finished = Some(i);
        }
    }

    /// Retires op `j` and readies the ops that waited only on it. The
    /// caller takes one of them itself; each other one wakes one thread.
    fn finish(&self, board: &mut Board, j: usize) {
        board.left -= 1;
        let mut readied = 0;
        for &s in &self.next[j] {
            board.pending[s] -= 1;
            if board.pending[s] == 0 {
                board.ready.push(Reverse(s));
                readied += 1;
            }
        }
        if board.left == 0 {
            self.wake.notify_all();
        } else {
            for _ in 1..readied {
                self.wake.notify_one();
            }
        }
    }
}

/// The dependency graph of `ops` over `fleet` workers and the server:
/// per op, its predecessors' count and its successors.
fn graph(ops: &[Op], fleet: usize) -> (Vec<u32>, Vec<Vec<usize>>) {
    let mut last: Vec<Option<usize>> = vec![None; fleet + 1];
    let mut pending = vec![0u32; ops.len()];
    let mut next: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for (i, op) in ops.iter().enumerate() {
        op.chains(fleet, |c| {
            if let Some(j) = last[c].replace(i) {
                // Two chains whose last op was the same are one edge.
                if next[j].last() != Some(&i) {
                    next[j].push(i);
                    pending[i] += 1;
                }
            }
        });
    }
    (pending, next)
}

/// `h`'s worker chains, its server and its one network, borrowed apart.
fn parts(
    h: &mut SimHarness,
) -> (
    Vec<Mutex<Chain<'_>>>,
    Mutex<Option<&mut Server>>,
    &mut Network,
) {
    let chains = h.workers.iter_mut().zip(&mut h.slots);
    let chains = chains.map(|(worker, slot)| Mutex::new(Chain { worker, slot }));
    (
        chains.collect(),
        Mutex::new(h.server.as_mut()),
        &mut h.tracker.net,
    )
}

/// Runs `ops` on `h`'s workers, their slots and its server: the caller
/// on the harness's one network, and up to `h.threads − 1` helpers, each
/// on a layout copy of a worker's idle network that lives only while
/// this call runs. Every chain sees its ops in log order; which thread
/// runs an op changes no bit.
///
/// # Panics
/// Panics if an op names a worker outside the fleet, consumes an empty
/// slot or pushes with no server, or re-raises a helper's panic.
pub(crate) fn run(ops: &[Op], h: &mut SimHarness) {
    let (pending, next) = graph(ops, h.workers.len());
    let ready = (0..ops.len())
        .filter(|&i| pending[i] == 0)
        .map(Reverse)
        .collect();
    let helpers = h.threads.min(ops.len()).saturating_sub(1);
    let mut scratch: Vec<Network> = match h.workers.first() {
        Some(w) => vec![w.net.clone(); helpers],
        None => Vec::new(),
    };
    let (chains, server, net) = parts(h);
    let flush = Flush {
        ops,
        next,
        chains,
        server,
        board: Mutex::new(Board {
            ready,
            pending,
            left: ops.len(),
            failed: false,
        }),
        wake: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for net in &mut scratch {
            let flush = &flush;
            scope.spawn(move || flush.work(net));
        }
        flush.work(net);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::state_bits;
    use crate::sim::SimHarness;
    use crate::ExperimentConfig;
    use partial_reduce::constant_weights;
    use preduce_data::cifar10_like;
    use preduce_models::zoo;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Records a random log of every op kind on `h`, drawn from `seed`:
    /// each consumer takes a filled slot, as the drivers' do.
    fn record(h: &mut SimHarness, seed: u64) {
        let mut r = StdRng::seed_from_u64(seed);
        let n = h.num_workers();
        let mut filled = vec![false; n];
        h.open_server();
        for _ in 0..48 {
            let w = r.gen_range(0..n);
            let peer = (w + r.gen_range(1..n)) % n;
            match r.gen_range(0..6u32) {
                0 => {
                    h.local_update(w);
                }
                1 => h.average(vec![w, peer], constant_weights(2)),
                _ if !filled[w] => {
                    h.start_gradient(w);
                    filled[w] = true;
                }
                2 => {
                    let from: Vec<usize> = (0..n).filter(|&x| filled[x]).rev().collect();
                    filled.fill(false);
                    h.step(from, 0.25);
                }
                3 => {
                    h.push_pull(w, 0.5);
                    filled[w] = false;
                }
                _ => {
                    h.gossip(w, peer);
                    filled[w] = false;
                }
            }
        }
    }

    /// Runs `h`'s recorded log on one thread, in a random topological
    /// order of its dependency graph drawn from `seed`.
    fn run_shuffled(h: &mut SimHarness, seed: u64) {
        let ops = std::mem::take(&mut h.ops);
        let (mut pending, next) = graph(&ops, h.workers.len());
        let mut ready: Vec<usize> = (0..ops.len()).filter(|&i| pending[i] == 0).collect();
        let (chains, server, net) = parts(h);
        let mut r = StdRng::seed_from_u64(seed);
        let mut ran = 0;
        while !ready.is_empty() {
            let i = ready.swap_remove(r.gen_range(0..ready.len()));
            ops[i].apply(&chains, &server, net);
            ran += 1;
            for &s in &next[i] {
                pending[s] -= 1;
                if pending[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(ran, ops.len(), "the graph has a cycle");
    }

    /// Every worker's state and slot, and the server's model, as bits.
    fn outcome(h: &SimHarness) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut all: Vec<Vec<u32>> = h.workers.iter().map(state_bits).collect();
        all.extend(
            h.slots
                .iter()
                .map(|s| s.as_ref().map(bits).unwrap_or_default()),
        );
        all.extend(h.server.iter().map(|s| bits(&s.params)));
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The thread-free half of the executor's contract: the chain
        /// edges order every pair of ops that share state, so any order
        /// they allow gives the bits of the log order.
        #[test]
        fn every_order_the_edges_allow_gives_the_same_bits(log in any::<u64>(), orders in any::<u64>()) {
            let mut c = ExperimentConfig::table1(zoo::resnet18(), cifar10_like(), 1);
            c.num_workers = 5;
            c.math_batch_size = 8;
            let mut in_order = SimHarness::with_threads(&c, 1);
            record(&mut in_order, log);
            in_order.flush();
            let want = outcome(&in_order);
            for k in 0..2 {
                let mut shuffled = SimHarness::with_threads(&c, 1);
                record(&mut shuffled, log);
                run_shuffled(&mut shuffled, orders.wrapping_add(k));
                prop_assert!(outcome(&shuffled) == want, "order {}", k);
            }
        }
    }
}
