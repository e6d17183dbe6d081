//! What the two lanes of a two-lane run (`parallel.rs`) synchronise
//! through: the [`Handoff`] they meet at twice a simulated cycle, and the
//! [`Baton`] / [`Slot`] pair that moves a machine component from one lane
//! to the other without `unsafe`. Nothing here knows what the lanes do
//! between meetings.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

pub(crate) const LANE_A: usize = 0;
pub(crate) const LANE_B: usize = 1;

/// Why a [`Handoff::meet`] ended without the partner arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Released {
    /// The partner left the run in good order.
    Stopped,
    /// The partner unwound.
    Poisoned,
}

pub(crate) const STOPPED: u64 = 1;
const POISONED: u64 = 2;
/// Low bits of [`Side::arrivals`] that hold the flags above.
const FLAG_BITS: u32 = 2;

/// One lane's half of a [`Handoff`], on cache lines of its own: only this
/// lane writes it, only the partner spins on it.
#[derive(Default)]
#[repr(align(128))]
struct Side {
    /// How many times this lane has arrived, `<< FLAG_BITS`, plus the
    /// `STOPPED` / `POISONED` bits it sets when it leaves.
    arrivals: AtomicU64,
    /// The word this lane brings to its `n`-th arrival, at `n & 1`: the
    /// partner reads it after that arrival, and this lane cannot write
    /// the same parity again before the partner has arrived once more.
    notes: [AtomicU64; 2],
}

/// A reusable two-party rendezvous at which each lane leaves the other a
/// word, and which a leaving lane breaks. `std::sync::Barrier` parks and
/// wakes through a mutex/condvar pair, which costs microseconds per wait;
/// at two waits per simulated cycle that would swamp the work. This one
/// spins briefly and then yields, so it stays cheap both on dedicated
/// cores and on oversubscribed hosts, and a meeting moves one cache line
/// each way.
///
/// `arrivals` carries the happens-before edge between the lanes (`Release`
/// increment, `Acquire` load): everything a lane wrote before arriving —
/// its note included — is visible to the partner once it has seen the
/// arrival.
pub(crate) struct Handoff {
    sides: [Side; 2],
    /// Spin iterations before falling back to `yield_now`. Zero when the
    /// host has fewer cores than lanes: spinning there only burns the
    /// timeslice the partner needs.
    max_spins: u32,
}

impl Handoff {
    pub(crate) fn new() -> Handoff {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Handoff {
            sides: Default::default(),
            max_spins: if cores >= 2 { 128 } else { 0 },
        }
    }

    /// Lane `me` arrives, leaving `note`, and waits for the partner's
    /// matching arrival; returns the partner's note.
    pub(crate) fn meet(&self, me: usize, note: u64) -> Result<u64, Released> {
        let (mine, theirs) = (&self.sides[me], &self.sides[me ^ 1]);
        let n = (mine.arrivals.load(Ordering::Relaxed) >> FLAG_BITS) + 1;
        let parity = (n & 1) as usize;
        mine.notes[parity].store(note, Ordering::Relaxed);
        // A plain store, not a read-modify-write: this lane is the only
        // writer until it leaves (and sets a flag, after its last
        // arrival), and a store does not hold up the load below.
        mine.arrivals.store(n << FLAG_BITS, Ordering::Release);
        let mut spins = 0u32;
        loop {
            let seen = theirs.arrivals.load(Ordering::Acquire);
            if seen >> FLAG_BITS >= n {
                return Ok(theirs.notes[parity].load(Ordering::Relaxed));
            }
            if seen & POISONED != 0 {
                return Err(Released::Poisoned);
            }
            if seen & STOPPED != 0 {
                return Err(Released::Stopped);
            }
            if spins < self.max_spins {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Lane `me` is leaving: end every wait its partner starts from now on.
    pub(crate) fn release(&self, me: usize, why: u64) {
        self.sides[me].arrivals.fetch_or(why, Ordering::Release);
    }
}

/// Held by each lane for as long as it takes part in the hand-offs. When
/// the lane leaves — by return or by panic — its partner must not wait for
/// it again: the hand-off is stopped on return and poisoned on unwind.
pub(crate) struct Leave<'a>(pub(crate) &'a Handoff, pub(crate) usize);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let why = if std::thread::panicking() {
            POISONED
        } else {
            STOPPED
        };
        self.0.release(self.1, why);
    }
}

const ON_LOAN: &str = "the component is on loan to the other lane";

/// Where a lent component waits for the lane that owns it this phase. A
/// line of its own: it changes hands with the component, not with its
/// neighbours.
#[repr(align(128))]
pub(crate) struct Slot<T>(Mutex<Option<Box<T>>>);

impl<T> Slot<T> {
    pub(crate) fn empty() -> Slot<T> {
        Slot(Mutex::new(None))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Option<Box<T>>> {
        self.0
            .lock()
            .expect("the other lane panicked holding this component")
    }
}

/// The component a phase was promised, out of its locked slot.
pub(crate) fn lent<T>(slot: &mut Option<Box<T>>) -> &mut T {
    slot.as_deref_mut()
        .expect("the component was not lent for this phase")
}

/// A machine component that lane A can lend to lane B: the forward
/// network, the reverse network, the global memory. Dereferences to the
/// component whenever it is home — always, outside a two-lane round — and
/// panics, rather than hand out something the other lane is ticking, when
/// it is not. Boxed so that lending moves a pointer.
#[derive(Debug)]
pub(crate) struct Baton<T>(Option<Box<T>>);

impl<T> Baton<T> {
    pub(crate) fn new(component: T) -> Baton<T> {
        Baton(Some(Box::new(component)))
    }

    pub(crate) fn lend(&mut self, slot: &Slot<T>) {
        let previous = slot.lock().replace(self.0.take().expect(ON_LOAN));
        debug_assert!(previous.is_none(), "slot already holds a component");
    }

    pub(crate) fn reclaim(&mut self, slot: &Slot<T>) {
        debug_assert!(self.0.is_none(), "component is already home");
        self.0 = Some(slot.lock().take().expect("the component was not lent"));
    }
}

impl<T> Deref for Baton<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0.as_deref().expect(ON_LOAN)
    }
}

impl<T> DerefMut for Baton<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect(ON_LOAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads in lockstep, each reading the word the other brought
    /// to the same meeting.
    #[test]
    fn handoff_keeps_two_threads_in_lockstep_and_swaps_notes() {
        let h = Handoff::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 1..=1000u64 {
                    assert_eq!(h.meet(LANE_B, round * 2), Ok(round));
                }
            });
            for round in 1..=1000u64 {
                assert_eq!(h.meet(LANE_A, round), Ok(round * 2));
            }
        });
    }

    #[test]
    fn a_partner_that_panics_before_arriving_releases_the_waiter() {
        let h = Handoff::new();
        std::thread::scope(|s| {
            let partner = s.spawn(|| {
                let _leave = Leave(&h, LANE_B);
                panic!("lane down");
            });
            assert_eq!(h.meet(LANE_A, 0), Err(Released::Poisoned));
            assert!(partner.join().is_err());
        });
    }

    #[test]
    fn a_partner_that_panics_after_arriving_releases_the_next_wait() {
        let h = Handoff::new();
        std::thread::scope(|s| {
            let partner = s.spawn(|| {
                let _leave = Leave(&h, LANE_B);
                h.meet(LANE_B, 7).unwrap();
                panic!("lane down");
            });
            assert_eq!(h.meet(LANE_A, 0), Ok(7));
            assert_eq!(h.meet(LANE_A, 0), Err(Released::Poisoned));
            assert!(partner.join().is_err());
        });
    }

    #[test]
    fn stopping_releases_a_waiting_partner() {
        let h = Handoff::new();
        std::thread::scope(|s| {
            let partner = s.spawn(|| h.meet(LANE_B, 0));
            // Stop only once the partner is parked at the hand-off.
            while h.sides[LANE_B].arrivals.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            h.release(LANE_A, STOPPED);
            assert_eq!(partner.join().unwrap(), Err(Released::Stopped));
        });
    }

    /// A leaving lane stops the hand-off on return as well as on unwind,
    /// and the spin-then-yield policy follows the host.
    #[test]
    fn leaving_stops_the_handoff_and_spinning_needs_two_cores() {
        let h = Handoff::new();
        drop(Leave(&h, LANE_B));
        assert_eq!(h.meet(LANE_A, 0), Err(Released::Stopped));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(h.max_spins == 0, cores < 2);
    }

    #[test]
    fn a_baton_on_loan_comes_back_through_its_slot() {
        let slot = Slot::empty();
        let mut baton = Baton::new(7u32);
        baton.lend(&slot);
        *lent(&mut slot.lock()) += 1;
        baton.reclaim(&slot);
        assert_eq!(*baton, 8);
        assert!(slot.lock().is_none());
    }
}
