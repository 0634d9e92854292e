//! A hermetic Chase–Lev work-stealing deque over `std` atomics.
//!
//! This is the lock-free backing store of
//! [`QueueDiscipline::LockFree`](crate::QueueDiscipline): one deque per
//! worker, the owner pushes and pops at the *bottom* (LIFO, so the most
//! recently enabled — cache-hottest — panel work runs next), thieves
//! steal from the *top* (FIFO, the coldest entries, whose tiles have
//! likely left the victim's cache anyway). Priority is not encoded in
//! the deque itself: the executor pushes each completion's newly ready
//! successors in descending DAG-priority order (least critical first),
//! so the owner's LIFO pop serves them most-critical-first, while a
//! thief's FIFO steal takes the *least* critical survivor of the
//! oldest batch — the victim keeps its critical-path work, the classic
//! Cilk trade-off (contrast the mutex shards, where a steal takes the
//! victim's best task).
//!
//! The implementation is the fixed-capacity variant of Chase & Lev's
//! algorithm with the memory orderings of Lê, Pop, Cohen & Zappa
//! Nardelli, *Correct and Efficient Work-Stealing for Weak Memory
//! Models* (PPoPP'13). The buffer cells are themselves `AtomicU64`s, so
//! the whole structure is safe Rust with **zero `unsafe`**: the racy
//! buffer reads the paper performs on plain memory become relaxed
//! atomic loads here, which Miri and the C11 model accept verbatim.
//!
//! ## Memory-ordering invariants
//!
//! The algorithm is correct iff these five invariants hold; each maps to
//! one ordering annotation below:
//!
//! 1. **Publish on push.** The owner's cell store (`Relaxed`) is made
//!    visible to thieves by the `Release` store of `bottom`; a thief's
//!    `Acquire` load of `bottom` therefore observes the cell contents
//!    of every entry below it.
//! 2. **Owner/thief race on the last entry.** `pop` decrements `bottom`
//!    *before* reading `top`, with a `SeqCst` fence between; `steal`
//!    reads `top` *before* `bottom`, also fenced. The two fences order
//!    the four accesses into a total order in which at most one side
//!    can believe it owns the final entry.
//! 3. **Steal linearization.** A thief claims its entry with a `SeqCst`
//!    compare-exchange on `top`; a failed exchange means another thief
//!    (or the owner, via invariant 2) already took it, and the thief
//!    must *not* use the value it read.
//! 4. **Read before claim.** The thief loads the cell *before* the
//!    compare-exchange: after a successful claim the owner is free to
//!    overwrite the slot with a new push, so reading afterwards could
//!    observe the new value. The pre-claim read may observe a stale
//!    value, but then the compare-exchange fails and the value is
//!    discarded (invariant 3).
//! 5. **No recycling in flight.** A slot is reused only after `top`
//!    has passed it, which the owner observes via the `Acquire` load in
//!    `push`; the capacity check (`bottom − top < capacity`) guarantees
//!    a push never overwrites an unclaimed entry.
//!
//! Capacity is fixed at construction: the CALU executor sizes every
//! deque to the task-graph length, so `push` can never observe a full
//! buffer there. `push` still reports fullness (returning the rejected
//! value) rather than silently dropping work, and the caller decides.
//!
//! Single-owner discipline is a *correctness* contract, not a safety
//! one: if two threads push/pop concurrently no undefined behaviour
//! occurs (everything is atomic), but entries may be duplicated or
//! lost. The executor upholds the contract structurally — worker `w`
//! only ever pushes/pops `deques[w]` and steals from the rest.

use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

/// Result of a [`Deque::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// Stole this value.
    Taken(u64),
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; the deque may still
    /// be non-empty — retry if the victim matters, move on otherwise.
    Retry,
}

/// A fixed-capacity Chase–Lev work-stealing deque of `u64` values.
///
/// One thread (the owner) calls [`push`](Deque::push) and
/// [`pop`](Deque::pop); any number of threads call
/// [`steal`](Deque::steal) concurrently. See the module docs for the
/// ordering invariants.
///
/// Aligned to its own pair of cache lines: the owner writes `bottom` on
/// every push and pop, and a `Vec<Deque>` would otherwise put one
/// worker's `bottom` on the line of its neighbour's.
#[derive(Debug)]
#[repr(align(128))]
pub struct Deque {
    /// Next slot the owner will push into (owner-written).
    bottom: AtomicI64,
    /// Oldest unclaimed slot (thief-advanced).
    top: AtomicI64,
    /// Power-of-two ring of value cells.
    buf: Box<[AtomicU64]>,
    mask: i64,
}

impl Deque {
    /// A deque that can hold at least `capacity` entries at once.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        assert!(cap <= (i64::MAX / 4) as usize, "deque capacity overflow");
        Self {
            bottom: AtomicI64::new(0),
            top: AtomicI64::new(0),
            buf: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as i64 - 1,
        }
    }

    /// The fixed slot count.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Entries currently in the deque (racy snapshot — exact only when
    /// quiescent).
    #[cfg(test)]
    fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque appears empty (racy snapshot).
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot(&self, i: i64) -> &AtomicU64 {
        &self.buf[(i & self.mask) as usize]
    }

    /// Owner-only: push `v` at the bottom. Returns `Err(v)` when the
    /// deque is full (invariant 5's capacity check).
    #[inline]
    pub fn push(&self, v: u64) -> Result<(), u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire); // inv. 5
        if b - t > self.mask {
            return Err(v); // full: every slot holds an unclaimed entry
        }
        self.slot(b).store(v, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release); // inv. 1: publish
        Ok(())
    }

    /// Owner-only: pop the most recently pushed entry (LIFO).
    #[inline]
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed); // reserve before reading top
        fence(Ordering::SeqCst); // inv. 2
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // already empty: undo the reservation
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // last entry: race thieves for it through top (inv. 2/3)
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(v);
        }
        Some(v)
    }

    /// Owner-only: the entry [`pop`](Deque::pop) would return next,
    /// without taking it. A thief can still win that entry (only when it
    /// is the last one), so a `pop` that follows returns this value or
    /// `None`, never another. The slot is the owner's own write and
    /// `top` only says whether it is still unclaimed, so `Relaxed` loads
    /// do.
    #[inline]
    pub(crate) fn peek(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (t < b).then(|| self.slot(b - 1).load(Ordering::Relaxed))
    }

    /// Thief-safe: steal the oldest entry (FIFO). Callable from any
    /// thread, concurrently.
    #[inline]
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst); // inv. 2
        let b = self.bottom.load(Ordering::Acquire); // inv. 1
        if t >= b {
            return Steal::Empty;
        }
        let v = self.slot(t).load(Ordering::Relaxed); // inv. 4: read first
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry; // inv. 3: claim failed, discard v
        }
        Steal::Taken(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn lifo_for_the_owner() {
        let d = Deque::with_capacity(8);
        for v in 1..=5u64 {
            d.push(v).unwrap();
        }
        assert_eq!(d.len(), 5);
        for v in (1..=5u64).rev() {
            assert_eq!(d.peek(), Some(v), "peek names the next pop");
            assert_eq!(d.pop(), Some(v));
        }
        assert_eq!(d.peek(), None);
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn fifo_for_thieves() {
        let d = Deque::with_capacity(8);
        for v in 1..=5u64 {
            d.push(v).unwrap();
        }
        assert_eq!(d.steal(), Steal::Taken(1));
        assert_eq!(d.steal(), Steal::Taken(2));
        // the owner still pops the newest end
        assert_eq!(d.pop(), Some(5));
        assert_eq!(d.steal(), Steal::Taken(3));
        assert_eq!(d.pop(), Some(4));
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn full_push_returns_the_value() {
        let d = Deque::with_capacity(4);
        for v in 0..4u64 {
            d.push(v).unwrap();
        }
        assert_eq!(d.push(99), Err(99));
        assert_eq!(d.pop(), Some(3));
        d.push(99).unwrap();
        assert_eq!(d.pop(), Some(99));
    }

    #[test]
    fn ring_reuse_across_many_wraps() {
        let d = Deque::with_capacity(4);
        for round in 0..100u64 {
            d.push(round * 2).unwrap();
            d.push(round * 2 + 1).unwrap();
            assert_eq!(d.pop(), Some(round * 2 + 1));
            assert_eq!(d.steal(), Steal::Taken(round * 2));
        }
        assert!(d.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Deque::with_capacity(0).capacity(), 2);
        assert_eq!(Deque::with_capacity(5).capacity(), 8);
        assert_eq!(Deque::with_capacity(8).capacity(), 8);
    }

    /// The satellite stress test: many thieves hammer one deque while
    /// the owner interleaves pushes and pops; every pushed value must be
    /// taken exactly once, none lost, none duplicated. Sized down under
    /// Miri, which interprets every instruction.
    #[test]
    fn stress_no_task_lost_or_duplicated() {
        const THIEVES: usize = if cfg!(miri) { 3 } else { 7 };
        const VALUES: u64 = if cfg!(miri) { 200 } else { 100_000 };

        let d = Deque::with_capacity(VALUES as usize);
        let done = AtomicBool::new(false);
        // one claim slot per value: flipping it twice means a duplicate
        let claimed: Vec<AtomicBool> = (0..VALUES).map(|_| AtomicBool::new(false)).collect();

        std::thread::scope(|scope| {
            for _ in 0..THIEVES {
                scope.spawn(|| {
                    let mut taken = 0u64;
                    while !done.load(Ordering::Acquire) || !d.is_empty() {
                        match d.steal() {
                            Steal::Taken(v) => {
                                assert!(
                                    !claimed[v as usize].swap(true, Ordering::AcqRel),
                                    "value {v} stolen twice"
                                );
                                taken += 1;
                            }
                            Steal::Empty | Steal::Retry => std::hint::spin_loop(),
                        }
                    }
                    taken
                });
            }
            // the owner pushes everything, popping a burst every few
            // pushes so the bottom end stays contended too
            let mut next = 0u64;
            while next < VALUES {
                for _ in 0..13 {
                    if next == VALUES {
                        break;
                    }
                    d.push(next).expect("sized for all values");
                    next += 1;
                }
                for _ in 0..5 {
                    if let Some(v) = d.pop() {
                        assert!(
                            !claimed[v as usize].swap(true, Ordering::AcqRel),
                            "value {v} popped twice"
                        );
                    }
                }
            }
            done.store(true, Ordering::Release);
            // drain whatever the thieves leave behind
            while let Some(v) = d.pop() {
                assert!(
                    !claimed[v as usize].swap(true, Ordering::AcqRel),
                    "value {v} double-claimed in drain"
                );
            }
        });

        let total = claimed.iter().filter(|c| c.load(Ordering::Acquire)).count() as u64;
        assert_eq!(total, VALUES, "every value claimed exactly once");
    }

    /// Two-thread owner/thief duel over single entries: the invariant-2
    /// race (pop vs. steal on the last element) must never hand the same
    /// value to both sides, and never lose it.
    #[test]
    fn last_entry_race_is_exclusive() {
        const ROUNDS: u64 = if cfg!(miri) { 100 } else { 20_000 };
        let d = Deque::with_capacity(2);
        let owner_got: AtomicU64 = AtomicU64::new(0);
        let thief_got: AtomicU64 = AtomicU64::new(0);
        let round = AtomicI64::new(-1);
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut seen = -1;
                while !done.load(Ordering::Acquire) {
                    let r = round.load(Ordering::Acquire);
                    if r == seen {
                        std::hint::spin_loop();
                        continue;
                    }
                    seen = r;
                    if let Steal::Taken(_) = d.steal() {
                        thief_got.fetch_add(1, Ordering::AcqRel);
                    }
                }
            });
            for r in 0..ROUNDS {
                d.push(r).unwrap();
                round.store(r as i64, Ordering::Release);
                if d.pop().is_some() {
                    owner_got.fetch_add(1, Ordering::AcqRel);
                }
                // whoever won, the deque must now drain to empty
                while let Some(_v) = d.pop() {
                    owner_got.fetch_add(1, Ordering::AcqRel);
                }
            }
            done.store(true, Ordering::Release);
        });

        assert_eq!(
            owner_got.load(Ordering::Acquire) + thief_got.load(Ordering::Acquire),
            ROUNDS,
            "each entry claimed exactly once across both ends"
        );
    }
}
