use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::error::CommError;
use crate::Result;

/// Default receive timeout. In-process messages arrive in microseconds;
/// a multi-second wait means a peer thread died or the caller deadlocked.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on reclaimed payload buffers held for reuse by
/// [`Endpoint::send_from_slice`]. A group average has at most two
/// segments in flight per member, so a handful is plenty; the cap keeps a
/// burst of large stashed payloads from pinning memory.
const POOL_LIMIT: usize = 8;

/// A tagged point-to-point message carrying a flat `f32` payload.
#[derive(Debug)]
struct Message {
    /// Sender's rank.
    from: usize,
    /// Caller-chosen tag used to match sends to receives.
    tag: u64,
    /// Flat payload (a model segment).
    payload: Vec<f32>,
}

/// A fully-connected world of `n` ranks.
///
/// Construct once, then [`CommWorld::into_endpoints`] and move one
/// [`Endpoint`] into each worker thread.
#[derive(Debug)]
pub struct CommWorld {
    endpoints: Vec<Endpoint>,
}

impl CommWorld {
    /// Builds a world of `n` all-to-all connected ranks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "world must have at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Message>();
            senders.push(tx);
            receivers.push(rx);
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Endpoint {
                rank,
                senders: senders.clone(),
                receiver: rx,
                stash: VecDeque::new(),
                pool: Vec::new(),
                timeout: RECV_TIMEOUT,
            })
            .collect();
        CommWorld { endpoints }
    }

    /// Consumes the world, yielding one endpoint per rank (index = rank).
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        self.endpoints
    }
}

/// One rank's connection to the world.
#[derive(Debug)]
pub struct Endpoint {
    rank: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Messages received but not yet requested (out-of-order arrivals).
    stash: VecDeque<Message>,
    /// Reclaimed payload buffers ([`Endpoint::recycle`]) reused by
    /// [`Endpoint::send_from_slice`] so steady-state collectives don't
    /// allocate per step.
    pool: Vec<Vec<f32>>,
    timeout: Duration,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.senders.len()
    }

    /// Overrides the receive timeout (tests use short timeouts to assert
    /// deadlock detection).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Sends `payload` to rank `to` with matching `tag`.
    pub fn send(&self, to: usize, tag: u64, payload: Vec<f32>) -> Result<()> {
        let world = self.senders.len();
        let sender = self
            .senders
            .get(to)
            .ok_or(CommError::InvalidRank { rank: to, world })?;
        sender
            .send(Message {
                from: self.rank,
                tag,
                payload,
            })
            .map_err(|_| CommError::Disconnected { peer: to })
    }

    /// Sends a copy of `src` to rank `to`, reusing a reclaimed payload
    /// buffer when one is pooled (see [`Endpoint::recycle`]). Collectives
    /// use this instead of `send(..., slice.to_vec())` so their per-step
    /// chunk traffic stops allocating once the pool is warm.
    pub fn send_from_slice(&mut self, to: usize, tag: u64, src: &[f32]) -> Result<()> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        self.send(to, tag, buf)
    }

    /// Returns a consumed payload buffer to the reuse pool (bounded; the
    /// buffer is dropped once the pool is full). A group member recycles
    /// each averaged segment the leader sends back, so its next send
    /// reuses the buffer it sent before.
    pub fn recycle(&mut self, mut buf: Vec<f32>) {
        if self.pool.len() < POOL_LIMIT {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Buffers in the reuse pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Receives the message with the given source and tag, stashing any
    /// other messages that arrive first.
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<f32>> {
        if from >= self.senders.len() {
            return Err(CommError::InvalidRank {
                rank: from,
                world: self.senders.len(),
            });
        }
        // Check the stash first.
        if let Some(pos) = self
            .stash
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            if let Some(m) = self.stash.remove(pos) {
                return Ok(m.payload);
            }
        }
        // Pull from the channel until a match arrives.
        loop {
            match self.receiver.recv_timeout(self.timeout) {
                Ok(m) if m.from == from && m.tag == tag => return Ok(m.payload),
                Ok(m) => self.stash.push_back(m),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout { peer: from, tag })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: from })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e1.send(0, 7, vec![1.0, 2.0]).unwrap();
        let got = e0.recv(1, 7).unwrap();
        assert_eq!(got, vec![1.0, 2.0]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e1.send(0, 1, vec![1.0]).unwrap();
        e1.send(0, 2, vec![2.0]).unwrap();
        // Ask for tag 2 first; tag 1 gets stashed.
        assert_eq!(e0.recv(1, 2).unwrap(), vec![2.0]);
        assert_eq!(e0.stash.len(), 1);
        assert_eq!(e0.recv(1, 1).unwrap(), vec![1.0]);
        assert_eq!(e0.stash.len(), 0);
    }

    #[test]
    fn self_send_works() {
        let mut eps = CommWorld::new(1).into_endpoints();
        let mut e0 = eps.pop().unwrap();
        e0.send(0, 0, vec![3.0]).unwrap();
        assert_eq!(e0.recv(0, 0).unwrap(), vec![3.0]);
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let mut e0 = eps.remove(0);
        assert!(matches!(
            e0.send(5, 0, vec![]),
            Err(CommError::InvalidRank { rank: 5, world: 2 })
        ));
        assert!(matches!(
            e0.recv(5, 0),
            Err(CommError::InvalidRank { rank: 5, world: 2 })
        ));
    }

    #[test]
    fn timeout_on_silent_peer() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let mut e0 = eps.remove(0);
        e0.set_timeout(Duration::from_millis(10));
        assert!(matches!(
            e0.recv(1, 0),
            Err(CommError::Timeout { peer: 1, tag: 0 })
        ));
    }

    #[test]
    fn send_from_slice_reuses_recycled_buffers() {
        let mut eps = CommWorld::new(1).into_endpoints();
        let mut e0 = eps.pop().unwrap();
        // Warm the pool with a received buffer, then send from a slice:
        // the pooled buffer must be consumed (pool drains to 0).
        e0.send(0, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let got = e0.recv(0, 1).unwrap();
        e0.recycle(got);
        assert_eq!(e0.pool.len(), 1);
        e0.send_from_slice(0, 2, &[4.0, 5.0]).unwrap();
        assert_eq!(e0.pool.len(), 0);
        assert_eq!(e0.recv(0, 2).unwrap(), vec![4.0, 5.0]);
    }

    #[test]
    fn recycle_pool_is_bounded() {
        let mut eps = CommWorld::new(1).into_endpoints();
        let mut e0 = eps.pop().unwrap();
        for _ in 0..32 {
            e0.recycle(Vec::with_capacity(16));
        }
        assert!(e0.pool.len() <= 8, "pool must stay bounded");
    }

    #[test]
    fn cross_thread_roundtrip() {
        let mut eps = CommWorld::new(2).into_endpoints();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let x = e1.recv(0, 1).unwrap();
            e1.send(0, 2, x.iter().map(|v| v * 2.0).collect()).unwrap();
        });
        e0.send(1, 1, vec![1.0, 2.0]).unwrap();
        assert_eq!(e0.recv(1, 2).unwrap(), vec![2.0, 4.0]);
        t.join().unwrap();
    }
}
