//! The simulator's model math as a per-worker dataflow (DESIGN.md §9).
//!
//! The P-Reduce driver decides its schedule — virtual time, RNG draws,
//! batches, controller decisions and weights — without reading a model
//! value, so it records the math as [`Op`]s and the harness runs them at
//! the next read point. [`run`] gives each op one predecessor per worker
//! it touches, the last earlier op on that worker, so every worker's ops
//! run in log order and an average waits for all its members' chains.
//! Ops on disjoint workers run on different threads. Each op runs the
//! same kernels on the same inputs as when it ran at its event, so a run
//! gives the same bits at any thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use partial_reduce::WeightRow;
use preduce_data::Batch;
use preduce_models::Network;
use preduce_tensor::Tensor;

use crate::worker::{weighted_model_average, WorkerState};

/// One recorded piece of model math.
pub(crate) enum Op {
    /// Worker `w`'s local update on the batch it drew at its event.
    Update { w: usize, batch: Batch },
    /// The weighted average of `group`'s models, written to every member.
    Average {
        group: Vec<usize>,
        weights: WeightRow,
    },
}

impl Op {
    fn workers(&self) -> &[usize] {
        match self {
            Op::Update { w, .. } => std::slice::from_ref(w),
            Op::Average { group, .. } => group,
        }
    }

    fn apply(&self, workers: &[Mutex<&mut WorkerState>], net: &mut Network) {
        match self {
            Op::Update { w, batch } => lock(&workers[*w]).learn_on(net, batch),
            Op::Average { group, weights } => {
                let mut members: Vec<_> = group.iter().map(|&m| lock(&workers[m])).collect();
                let avg = {
                    let models: Vec<&Tensor> = members.iter().map(|m| &m.params).collect();
                    weighted_model_average(&models, weights)
                };
                for m in &mut members {
                    m.set_params(&avg);
                }
            }
        }
    }
}

/// Locks `m`, taking the guard a panicking holder left: the board's
/// updates cannot panic midway, and an op that panics fails the whole
/// flush ([`Abort`]), so no later op reads the worker it left.
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
    workers: Vec<Mutex<&'a mut WorkerState>>,
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
            self.ops[i].apply(&self.workers, net);
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

/// Runs `ops` on `workers`: the caller on `net`, and up to
/// `threads − 1` helpers, each on a layout copy of a worker's idle
/// network that lives only while this call runs. Every worker sees its
/// ops in log order; which thread runs an op changes no bit.
///
/// # Panics
/// Panics if an op names a worker outside `workers`, or re-raises a
/// helper's panic.
pub(crate) fn run(ops: &[Op], workers: &mut [WorkerState], net: &mut Network, threads: usize) {
    let mut last: Vec<Option<usize>> = vec![None; workers.len()];
    let mut pending = vec![0u32; ops.len()];
    let mut next: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for (i, op) in ops.iter().enumerate() {
        for &w in op.workers() {
            if let Some(j) = last[w].replace(i) {
                // Two members whose last op was the same are one edge.
                if next[j].last() != Some(&i) {
                    next[j].push(i);
                    pending[i] += 1;
                }
            }
        }
    }
    let ready = (0..ops.len())
        .filter(|&i| pending[i] == 0)
        .map(Reverse)
        .collect();
    let helpers = threads.min(ops.len()).saturating_sub(1);
    let mut scratch: Vec<Network> = match workers.first() {
        Some(w) => vec![w.net.clone(); helpers],
        None => Vec::new(),
    };
    let flush = Flush {
        ops,
        next,
        workers: workers.iter_mut().map(Mutex::new).collect(),
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
