//! Offline stand-in for `crossbeam` 0.8: the unbounded MPMC channel this
//! repository's in-process transports use, over a mutex-guarded queue and a
//! condition variable.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        /// The queue holds plain data that every operation leaves valid,
        /// so a panic elsewhere while holding the lock poisons nothing.
        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clone it for more consumers.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is queued right now.
        Empty,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Why a bounded-wait receive returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait ran out.
        Timeout,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        /// Queues `msg`.
        ///
        /// # Errors
        /// Returns the message if every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(msg));
            }
            self.shared.lock().push_back(msg);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Taking the lock orders this wake-up after any receiver
                // that saw `senders > 0` and is about to wait.
                drop(self.shared.lock());
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.shared.senders.load(Ordering::SeqCst) == 0
        }

        /// Takes a queued message without waiting.
        ///
        /// # Errors
        /// Reports an empty or a disconnected-and-drained channel.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.shared.lock().pop_front() {
                Some(msg) => Ok(msg),
                None if self.disconnected() => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Waits for a message.
        ///
        /// # Errors
        /// Fails once the channel is drained and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.disconnected() {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Waits for a message until `deadline`.
        ///
        /// # Errors
        /// Reports a timeout or a disconnected-and-drained channel.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut queue = self.shared.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }

        /// Waits for a message for at most `timeout`.
        ///
        /// # Errors
        /// Reports a timeout or a disconnected-and-drained channel.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match Instant::now().checked_add(timeout) {
                Some(deadline) => self.recv_deadline(deadline),
                None => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
            }
        }

        /// Drains what is queued right now, without waiting.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Receives until the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// Whether nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_then_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers_and_drop_wakes_a_waiter() {
        let (tx, rx) = unbounded::<u8>();
        let waiter = thread::spawn(move || rx.recv());
        // No sleep: whether the waiter is already parked or not, dropping
        // the last sender must end its wait.
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));

        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || (0..1000).for_each(|i| tx.send(p * 1000 + i).unwrap()))
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.iter().sum::<u64>())
            })
            .collect();
        producers.into_iter().for_each(|t| t.join().unwrap());
        let total: u64 = consumers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, (0..4000u64).sum());
    }
}
