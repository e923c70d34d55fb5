//! Offline stand-in for `crossbeam`: a multi-producer **multi-consumer**
//! channel (std's `mpsc::Receiver` is not `Clone`, which the server's worker
//! pool needs), implemented with a `Mutex<VecDeque>` + `Condvar`.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "a stand-in for an external crate, whose tests fan a channel out to threads"
)]

/// MPMC channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half; cloneable (multi-consumer).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when every receiver is gone; carries
    /// the unsent value back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// Empty and all senders dropped.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Creates a channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    /// Creates a channel with a capacity hint. The shim does not block
    /// producers at capacity (the workspace only uses tiny bounded channels
    /// as shutdown signals), so this behaves like [`unbounded`].
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, failing if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            match self.0.queue.lock() {
                Ok(mut q) => q.push_back(value),
                Err(poisoned) => poisoned.into_inner().push_back(value),
            }
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.0.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            match q.pop_front() {
                Some(v) => Ok(v),
                None if self.0.senders.load(Ordering::SeqCst) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::thread;

    #[test]
    fn fan_out_to_cloned_receivers() {
        let (tx, rx) = channel::unbounded::<usize>();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = 0usize;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100, "every message consumed exactly once");
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn send_after_receivers_gone_errors() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
