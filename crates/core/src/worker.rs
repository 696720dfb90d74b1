//! One background worker: the thread, kick and stop protocol shared by
//! [`MaintenanceController`](crate::maintenance::MaintenanceController),
//! [`ReplicationController`](crate::replicate::ReplicationController) and
//! [`SubscriptionManager`](crate::subscribe::SubscriptionManager).
//!
//! A [`Worker`] owns one named thread that runs a caller-supplied *pass*
//! whenever it is kicked or its *idle wait* elapses. Each controller keeps
//! only its pass body and its own state; the worker owns everything else.
//!
//! # The ticket contract
//!
//! Every [`Worker::kick`] and [`Worker::run_now`] takes a ticket (a running
//! count of kicks requested). Before a pass starts, the worker notes the
//! highest ticket handed out so far; when the pass finishes, every ticket
//! up to that one is *served*. Hence:
//!
//! * a kick bypasses the idle wait, however long it is;
//! * kicks that arrive while a pass runs fold into **one** following pass;
//! * [`Worker::run_now`] returns only after a pass that *started after* its
//!   ticket was taken has finished — a pass already in flight does not
//!   count;
//! * the first pass runs at the first kick or after the first idle wait,
//!   never at spawn;
//! * a pass started by an idle timeout serves every ticket taken before
//!   it started, exactly like a kicked one, and both count in
//!   [`Worker::passes`].
//!
//! Stopping (drop, or [`Worker::stop`]) lets the in-flight pass finish and
//! joins the thread; kicks still queued are not served. A poisoned ticket
//! lock is recovered with `into_inner`: the counters stay consistent
//! whatever a panicking holder was doing.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Default)]
struct Tickets {
    stop: bool,
    /// Tickets handed out by [`Worker::kick`] / [`Worker::run_now`].
    kicks_requested: u64,
    /// Highest ticket a finished pass has served.
    kicks_served: u64,
    /// Finished passes, kicked or timed out.
    passes: u64,
}

struct Shared {
    tickets: Mutex<Tickets>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Tickets> {
        self.tickets.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a ticket, wakes the worker and returns the ticket.
    fn kick(&self) -> u64 {
        let mut tickets = self.lock();
        tickets.kicks_requested += 1;
        self.cv.notify_all();
        tickets.kicks_requested
    }

    fn run(&self, idle_wait: &mut dyn FnMut() -> Duration, pass: &mut dyn FnMut()) {
        loop {
            let wait = idle_wait();
            // Wait for a kick, the idle wait, or stop.
            let serving = {
                let mut tickets = self.lock();
                let mut timed_out = false;
                loop {
                    if tickets.stop {
                        return;
                    }
                    if timed_out || tickets.kicks_requested > tickets.kicks_served {
                        break tickets.kicks_requested;
                    }
                    let (guard, timeout) = self
                        .cv
                        .wait_timeout(tickets, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    tickets = guard;
                    timed_out = timeout.timed_out();
                }
            };
            pass();
            let mut tickets = self.lock();
            tickets.kicks_served = tickets.kicks_served.max(serving);
            tickets.passes += 1;
            self.cv.notify_all();
        }
    }
}

/// A cloneable handle that can only kick its [`Worker`] — for callers
/// that must not own the thread, such as an ingest observer.
#[derive(Clone)]
pub(crate) struct Kicker(Arc<Shared>);

impl Kicker {
    /// Same as [`Worker::kick`].
    pub(crate) fn kick(&self) {
        self.0.kick();
    }
}

/// One background thread running a pass on kicks and idle timeouts; see
/// the module docs for the ticket contract. Dropping it stops and joins.
pub(crate) struct Worker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns the thread `name`. Before each idle period it asks
    /// `idle_wait` how long to sleep without a kick; `pass` is the work.
    pub(crate) fn spawn(
        name: &str,
        mut idle_wait: impl FnMut() -> Duration + Send + 'static,
        mut pass: impl FnMut() + Send + 'static,
    ) -> Self {
        let shared = Arc::new(Shared {
            tickets: Mutex::new(Tickets::default()),
            cv: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || shared.run(&mut idle_wait, &mut pass))
                .expect("spawn background worker")
        };
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// Requests a pass without waiting for it.
    pub(crate) fn kick(&self) {
        self.shared.kick();
    }

    /// Requests a pass and blocks until a pass that started after this
    /// call has finished.
    pub(crate) fn run_now(&self) {
        let ticket = self.shared.kick();
        let mut tickets = self.shared.lock();
        while tickets.kicks_served < ticket {
            tickets = self
                .shared
                .cv
                .wait(tickets)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Passes finished so far, kicked or timed out.
    pub(crate) fn passes(&self) -> u64 {
        self.shared.lock().passes
    }

    /// A handle that kicks this worker.
    pub(crate) fn kicker(&self) -> Kicker {
        Kicker(Arc::clone(&self.shared))
    }

    /// Lets the in-flight pass finish, then joins the thread. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.lock().stop = true;
        self.shared.cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};

    const HOUR: Duration = Duration::from_secs(3600);

    /// A pass that announces its ordinal on `entered`, then blocks until
    /// the test sends on `release` (or drops it).
    struct Gate {
        entered: Receiver<u64>,
        release: Sender<()>,
    }

    fn gated() -> (Gate, impl FnMut() + Send + 'static) {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel::<()>();
        let mut n = 0;
        let pass = move || {
            n += 1;
            entered_tx.send(n).unwrap();
            let _ = release_rx.recv();
        };
        (Gate { entered, release }, pass)
    }

    /// Spins (no sleeping) until `done` holds.
    fn wait_until(mut done: impl FnMut() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn run_now_during_a_pass_waits_for_the_next_pass() {
        let (gate, pass) = gated();
        let worker = Worker::spawn("test-worker", || HOUR, pass);
        worker.kick();
        assert_eq!(gate.entered.recv().unwrap(), 1);
        let returned = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                worker.run_now();
                returned.store(true, Ordering::SeqCst);
            });
            // The run_now ticket is taken while pass 1 is still in flight.
            wait_until(|| worker.shared.lock().kicks_requested == 2);
            gate.release.send(()).unwrap();
            assert_eq!(gate.entered.recv().unwrap(), 2, "run_now needs a new pass");
            assert!(
                !returned.load(Ordering::SeqCst),
                "the pass in flight at the ticket must not satisfy run_now"
            );
            gate.release.send(()).unwrap();
        });
        assert!(returned.load(Ordering::SeqCst));
        assert_eq!(worker.passes(), 2);
    }

    #[test]
    fn kicks_during_a_pass_fold_into_one_follow_up_pass() {
        let (gate, pass) = gated();
        let mut worker = Worker::spawn("test-worker", || HOUR, pass);
        worker.kick();
        assert_eq!(gate.entered.recv().unwrap(), 1);
        for _ in 0..5 {
            worker.kick();
        }
        gate.release.send(()).unwrap();
        assert_eq!(gate.entered.recv().unwrap(), 2);
        gate.release.send(()).unwrap();
        wait_until(|| worker.passes() == 2);
        {
            let tickets = worker.shared.lock();
            assert_eq!(
                tickets.kicks_served, tickets.kicks_requested,
                "nothing left queued"
            );
        }
        worker.stop();
        assert!(gate.entered.try_recv().is_err(), "no third pass");
        assert_eq!(worker.passes(), 2);
    }

    #[test]
    fn a_kick_bypasses_an_hour_long_idle_wait() {
        let (gate, pass) = gated();
        let worker = Worker::spawn("test-worker", || HOUR, pass);
        assert_eq!(worker.passes(), 0, "no pass at spawn");
        drop(gate.release);
        worker.run_now();
        assert_eq!(gate.entered.recv().unwrap(), 1);
        assert_eq!(worker.passes(), 1);
    }

    #[test]
    fn drop_during_a_pass_finishes_it_then_joins_without_another() {
        let (gate, mut inner) = gated();
        let finished = Arc::new(AtomicBool::new(false));
        let pass = {
            let finished = Arc::clone(&finished);
            move || {
                inner();
                finished.store(true, Ordering::SeqCst);
            }
        };
        let worker = Worker::spawn("test-worker", || HOUR, pass);
        let shared = Arc::clone(&worker.shared);
        worker.kick();
        assert_eq!(gate.entered.recv().unwrap(), 1);
        // A kick queued behind the in-flight pass is not served after stop.
        worker.kick();
        std::thread::scope(|s| {
            let dropper = s.spawn(move || drop(worker));
            wait_until(|| shared.lock().stop);
            assert!(
                !finished.load(Ordering::SeqCst),
                "stop must not cut the pass"
            );
            gate.release.send(()).unwrap();
            dropper.join().unwrap();
        });
        assert!(
            finished.load(Ordering::SeqCst),
            "the in-flight pass finished"
        );
        assert!(gate.entered.try_recv().is_err(), "no pass after stop");
        assert_eq!(shared.lock().passes, 1);
    }

    #[test]
    fn passes_count_timed_out_and_kicked_passes() {
        let (entered_tx, entered) = channel();
        let mut waits = 0;
        // The first idle wait times out at once; later ones last an hour.
        let idle_wait = move || {
            waits += 1;
            if waits == 1 {
                Duration::ZERO
            } else {
                HOUR
            }
        };
        let worker = Worker::spawn("test-worker", idle_wait, move || {
            entered_tx.send(()).unwrap();
        });
        entered.recv().unwrap();
        worker.run_now();
        assert_eq!(
            worker.passes(),
            2,
            "one timed-out pass plus one kicked pass"
        );
    }
}
