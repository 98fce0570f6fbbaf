//! An open-loop load generator: requests are due on a fixed schedule
//! whether or not earlier ones have finished, so a stall delays every
//! request queued behind it, and each request is timed from when it was
//! due rather than from when it was sent.

use std::time::{Duration, Instant};

/// How long before a request's due time its client stops sleeping and
/// spins: a timer wake-up arrives tens to hundreds of microseconds late
/// on a busy host, and that lateness is the generator's, not the
/// system's.
const SPIN: Duration = Duration::from_micros(300);

/// One request's timing, as offsets from the start of the run.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When its client actually sent it.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
    /// What the request returned.
    pub result: R,
}

impl<R> Sample<R> {
    /// Latency as a user sees it: reply time minus due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Issues `n` requests, request `i` due at `i * interval` after the
/// start, spread round-robin over `clients` (request `i` goes to client
/// `i % clients.len()`). Each client runs on its own thread and sends its
/// requests in order, each at its due time (sleeping until `SPIN`
/// before it, then spinning) or, when it is already late, as soon as the
/// previous reply arrives. Returns the samples in request order.
pub fn run<C, R, F>(n: usize, interval: Duration, clients: &mut [C], call: F) -> Vec<Sample<R>>
where
    C: Send,
    R: Send,
    F: Fn(&mut C, usize) -> R + Sync,
{
    let width = clients.len();
    assert!(width > 0, "an open loop needs at least one client");
    let start = Instant::now();
    let per_client: Vec<Vec<(usize, Sample<R>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let call = &call;
                s.spawn(move || {
                    (c..n)
                        .step_by(width)
                        .map(|i| {
                            let due =
                                interval * u32::try_from(i).expect("request index fits in u32");
                            let now = start.elapsed();
                            if now + SPIN < due {
                                std::thread::sleep(due - now - SPIN);
                            }
                            while start.elapsed() < due {
                                std::hint::spin_loop();
                            }
                            let sent = start.elapsed();
                            let result = call(client, i);
                            let done = start.elapsed();
                            (i, Sample { due, sent, done, result })
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread panicked")).collect()
    });
    let mut all: Vec<(usize, Sample<R>)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}
