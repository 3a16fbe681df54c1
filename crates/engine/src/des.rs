//! Discrete-event serving core: event queue, query arena, pending queue.
//!
//! The scheduler loops this replaced kept *every* query of the run —
//! future arrivals included — in one `Vec<usize>` and re-scanned it at
//! every scheduling boundary (idle jump, deadline pass, capacity pass,
//! admission), making each boundary O(total queries) and the whole run
//! quadratic. This module is the spine of the one continuous-batching
//! loop (`cluster::serve`, which single-device serving runs as a
//! one-replica fleet):
//!
//! * [`EventQueue`] — a binary-heap priority queue over simulated time
//!   with a deterministic FIFO tie-break (insertion sequence), used for
//!   retry-backoff wakeups; arrival and replica-decision instants are
//!   tracked by their owners and folded in at [`PendingQueue::min_ready`].
//! * [`QueryArena`] — a generational slot map holding only queries that
//!   currently exist (backlogged or in flight). Keys ([`QKey`]) carry a
//!   generation so a stale handle can never alias a recycled slot.
//! * [`PendingQueue`] — lazy arrivals (drawn one at a time from an
//!   [`ArrivalGen`]) feeding a seq-ordered ready deque plus a small
//!   deferred set for retry backoff. Every operation the legacy loops
//!   performed by scanning all n queries is answered here in O(log n) or
//!   O(affected entries):
//!   - earliest-ready instant: deque front + wakeup-heap peek + one
//!     peeked arrival;
//!   - deadline shed: arrivals are monotone in seq, so expired queries
//!     form a *prefix* of the ready deque (popped, not scanned) plus a
//!     scan of the small deferred set;
//!   - capacity shed: the newest waiting queries are a suffix of the
//!     seq-ordered union, removed from the backs of both structures;
//!   - admission: a seq-order merge walk of the two structures.
//!
//! The decision sequence is bit-identical to the legacy scans: both
//! structures are kept in seq (arrival) order, which is exactly the order
//! the legacy `pending` vector maintained, and readiness filters use the
//! same `ready_s <= now` comparisons (the wall clock can step *backwards*
//! by a sub-jitter amount when a drained stepper snaps to a completion
//! instant; the filters make that harmless, as in the legacy loops).

use std::collections::{BinaryHeap, VecDeque};

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::serving::{Priority, PriorityMix};
use crate::telemetry::ServingAccumulator;

/// Per-priority-class conservation counters, indexed by
/// [`Priority::index`]. The pending queue is the single point every query
/// passes through (tagged at arrival, removed exactly once by shed, drop
/// or release), so it owns the offered/shed/failed ledger; completions are
/// counted by the serving loop at retirement.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassCounters {
    /// Queries tagged per class (incremented at arrival materialization).
    pub(crate) offered: [usize; 3],
    /// Queries shed per class (deadline, capacity, aging, slack guard).
    pub(crate) shed: [usize; 3],
    /// Queries dropped per class after exhausting retries.
    pub(crate) failed: [usize; 3],
}

/// One scheduled event: a payload due at a simulated instant.
#[derive(Debug, Clone, Copy)]
struct Event<T> {
    time: f64,
    /// Insertion sequence: FIFO tie-break for equal times, so heap order
    /// is deterministic even with bit-equal floats.
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.to_bits() == other.time.to_bits() && self.seq == other.seq
    }
}
impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-heap of timed events (earliest first, FIFO on
/// ties). Popping order depends only on the sequence of pushes, never on
/// allocation or hash state.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub(crate) fn push(&mut self, time: f64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, payload });
    }

    /// Earliest event, if any.
    pub(crate) fn peek(&self) -> Option<(f64, &T)> {
        self.heap.peek().map(|e| (e.time, &e.payload))
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of scheduled events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Generational handle into a [`QueryArena`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QKey {
    idx: u32,
    gen: u32,
}

/// Where a pending query currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryPhase {
    /// In the ready deque (`ready_s == arrival_s`).
    Ready,
    /// In the deferred set awaiting a retry-backoff instant.
    Deferred,
    /// Admitted into an engine; owned by a live scheduler slot.
    InFlight,
}

/// Scheduling state of one query that currently exists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuerySlot {
    /// Arrival order (0-based); the legacy query index.
    pub(crate) seq: u64,
    /// Arrival instant, seconds.
    pub(crate) arrival_s: f64,
    /// Earliest admissible instant (arrival, or retry-backoff expiry).
    pub(crate) ready_s: f64,
    /// Failed-admission attempts so far.
    pub(crate) attempts: u32,
    /// Whether a device crash ever voided this query's in-flight work
    /// (cluster failover bookkeeping; cleared when the query completes).
    pub(crate) crashed: bool,
    /// Priority class (Interactive unless a tagger is configured).
    pub(crate) class: Priority,
    phase: QueryPhase,
}

#[derive(Debug, Clone)]
struct ArenaEntry {
    gen: u32,
    slot: Option<QuerySlot>,
}

/// A generational slot-map arena of live queries: O(1) alloc/free with
/// index reuse, sized by the *backlog* (pending + in flight), never by
/// the total trace length.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryArena {
    entries: Vec<ArenaEntry>,
    free: Vec<u32>,
    live: usize,
}

impl QueryArena {
    fn alloc(&mut self, slot: QuerySlot) -> QKey {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let e = &mut self.entries[idx as usize];
            e.slot = Some(slot);
            QKey { idx, gen: e.gen }
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(ArenaEntry {
                gen: 0,
                slot: Some(slot),
            });
            QKey { idx, gen: 0 }
        }
    }

    fn release(&mut self, k: QKey) {
        if let Some(e) = self.entries.get_mut(k.idx as usize) {
            if e.gen == k.gen && e.slot.is_some() {
                e.slot = None;
                e.gen = e.gen.wrapping_add(1);
                self.free.push(k.idx);
                self.live -= 1;
            }
        }
    }

    /// The slot behind `k`, or `None` if the key is stale.
    pub(crate) fn get(&self, k: QKey) -> Option<&QuerySlot> {
        self.entries
            .get(k.idx as usize)
            .filter(|e| e.gen == k.gen)
            .and_then(|e| e.slot.as_ref())
    }

    fn get_mut(&mut self, k: QKey) -> Option<&mut QuerySlot> {
        self.entries
            .get_mut(k.idx as usize)
            .filter(|e| e.gen == k.gen)
            .and_then(|e| e.slot.as_mut())
    }

    /// Number of live slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

/// The lazy pending-query queue driving a scheduler loop; see module docs.
#[derive(Debug, Clone)]
pub(crate) struct PendingQueue {
    arena: QueryArena,
    gen: ArrivalGen,
    /// Arrivals not yet drawn from the generator.
    remaining: usize,
    /// One drawn-but-future arrival instant (the lazy lookahead).
    peeked: Option<f64>,
    next_seq: u64,
    /// Arrived, never-deferred queries in seq order (`ready_s` monotone).
    ready: VecDeque<QKey>,
    /// Retry-backoff queries, kept sorted by seq; small in practice.
    deferred: Vec<QKey>,
    /// Retry wakeups (stale entries dropped lazily on peek).
    wakeups: EventQueue<QKey>,
    /// Recycled index scratch for [`shed_over_capacity`]
    /// (Self::shed_over_capacity), so capacity passes allocate nothing in
    /// steady state.
    defs_scratch: Vec<usize>,
    /// Priority tagger `(mix, class_seed)`: when set, each materialized
    /// arrival is tagged via [`PriorityMix::class_of`] (a pure hash of the
    /// seq — the arrival RNG stream is untouched).
    tagger: Option<(PriorityMix, u64)>,
    /// Per-class offered/shed/failed ledger (meaningful when tagging).
    counts: ClassCounters,
}

impl PendingQueue {
    /// A queue offering `total_queries` arrivals from `process` at mean
    /// rate `qps`, seeded like the legacy `poisson_arrivals`.
    pub(crate) fn new(process: ArrivalProcess, qps: f64, total_queries: usize, seed: u64) -> Self {
        Self {
            arena: QueryArena::default(),
            gen: ArrivalGen::new(process, qps, seed),
            remaining: total_queries,
            peeked: None,
            next_seq: 0,
            ready: VecDeque::new(),
            deferred: Vec::new(),
            wakeups: EventQueue::new(),
            defs_scratch: Vec::new(),
            tagger: None,
            counts: ClassCounters::default(),
        }
    }

    /// Enables priority tagging: every arrival materialized from now on is
    /// classed by `mix` under `class_seed`. Call before the first
    /// [`pump`](Self::pump) so the whole trace is tagged.
    pub(crate) fn set_tagger(&mut self, mix: PriorityMix, class_seed: u64) {
        self.tagger = Some((mix, class_seed));
    }

    /// Priority class of `k` (Interactive for a stale key — harmless, as
    /// the counters only move through live keys).
    pub(crate) fn class_of(&self, k: QKey) -> Priority {
        self.arena.get(k).map_or(Priority::Interactive, |s| s.class)
    }

    /// The per-class offered/shed/failed ledger.
    pub(crate) fn class_counts(&self) -> &ClassCounters {
        &self.counts
    }

    /// Counts `k` as shed in its class's ledger and releases its slot.
    fn note_shed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get(k) {
            self.counts.shed[s.class.index()] += 1;
        }
        self.arena.release(k);
    }

    /// Counts `k` as failed in its class's ledger and releases its slot.
    fn note_failed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get(k) {
            self.counts.failed[s.class.index()] += 1;
        }
        self.arena.release(k);
    }

    /// Whether every query has been admitted, shed or dropped (the legacy
    /// `pending.is_empty()`).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.ready.is_empty()
            && self.deferred.is_empty()
            && self.remaining == 0
            && self.peeked.is_none()
    }

    /// Queries currently backlogged (ready + deferred), for diagnostics.
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> usize {
        self.ready.len() + self.deferred.len()
    }

    /// Arrival instant of `k` (NaN for a stale key, which would poison the
    /// report visibly — stale keys here are scheduler bugs).
    pub(crate) fn arrival_s(&self, k: QKey) -> f64 {
        self.arena.get(k).map_or(f64::NAN, |s| s.arrival_s)
    }

    /// Marks `k` as crash-voided (its in-flight work died with a device).
    pub(crate) fn mark_crashed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get_mut(k) {
            s.crashed = true;
        }
    }

    /// Reads and clears the crash-voided flag (true exactly when a crash
    /// voided this query and it has now recovered elsewhere).
    pub(crate) fn take_crashed(&mut self, k: QKey) -> bool {
        self.arena.get_mut(k).is_some_and(|s| {
            let was = s.crashed;
            s.crashed = false;
            was
        })
    }

    fn draw_peek(&mut self) {
        if self.peeked.is_none() && self.remaining > 0 {
            self.peeked = Some(self.gen.next_arrival());
            self.remaining -= 1;
        }
    }

    /// Earliest instant at which any pending (or future) query becomes
    /// admissible — the legacy fold of `ready_s` over all of `pending`,
    /// plus the next undrawn arrival. `INFINITY` when exhausted.
    pub(crate) fn min_ready(&mut self) -> f64 {
        let mut m = f64::INFINITY;
        if let Some(&k) = self.ready.front() {
            if let Some(s) = self.arena.get(k) {
                m = m.min(s.ready_s);
            }
        }
        // Drop stale wakeups (freed, admitted, or re-deferred queries).
        while let Some((t, &k)) = self.wakeups.peek() {
            let valid = self.arena.get(k).is_some_and(|s| {
                s.phase == QueryPhase::Deferred && s.ready_s.to_bits() == t.to_bits()
            });
            if valid {
                m = m.min(t);
                break;
            }
            self.wakeups.pop();
        }
        self.draw_peek();
        if let Some(t) = self.peeked {
            m = m.min(t);
        }
        m
    }

    /// Materializes every arrival at or before `now` into the ready deque.
    pub(crate) fn pump(&mut self, now: f64) {
        loop {
            self.draw_peek();
            let Some(t) = self.peeked else { break };
            if t > now {
                break;
            }
            self.peeked = None;
            let seq = self.next_seq;
            self.next_seq += 1;
            let class = match self.tagger {
                Some((mix, seed)) => mix.class_of(seed, seq),
                None => Priority::Interactive,
            };
            self.counts.offered[class.index()] += 1;
            let k = self.arena.alloc(QuerySlot {
                seq,
                arrival_s: t,
                ready_s: t,
                attempts: 0,
                crashed: false,
                class,
                phase: QueryPhase::Ready,
            });
            self.ready.push_back(k);
        }
    }

    /// Sheds every pending query whose deadline has already passed
    /// (`now > arrival_s + deadline_s`), returning the shed count.
    /// Expired queries are a prefix of the ready deque (arrivals are
    /// monotone in seq) plus whatever the deferred scan finds.
    pub(crate) fn shed_expired(&mut self, now: f64, deadline_s: f64) -> usize {
        let mut n = 0;
        while let Some(&k) = self.ready.front() {
            let expired = self
                .arena
                .get(k)
                .is_some_and(|s| now > s.arrival_s + deadline_s);
            if !expired {
                break;
            }
            self.ready.pop_front();
            self.note_shed(k);
            n += 1;
        }
        let mut i = 0;
        while i < self.deferred.len() {
            let k = self.deferred[i];
            let expired = self
                .arena
                .get(k)
                .is_some_and(|s| now > s.arrival_s + deadline_s);
            if expired {
                self.deferred.remove(i);
                self.note_shed(k);
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// CoDel-style queue aging: sheds every waiting query older than its
    /// class's target (`now - arrival_s > targets[class]`), returning the
    /// shed count. All-infinite targets short-circuit to a no-op.
    pub(crate) fn shed_aged(&mut self, now: f64, targets: &[f64; 3]) -> usize {
        if targets.iter().all(|t| t.is_infinite()) {
            return 0;
        }
        let mut n = 0;
        let mut i = 0;
        while i < self.ready.len() {
            let Some(&k) = self.ready.get(i) else { break };
            let aged = self
                .arena
                .get(k)
                .is_some_and(|s| now - s.arrival_s > targets[s.class.index()]);
            if aged {
                self.ready.remove(i);
                self.note_shed(k);
                n += 1;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.deferred.len() {
            let k = self.deferred[i];
            let aged = self
                .arena
                .get(k)
                .is_some_and(|s| now - s.arrival_s > targets[s.class.index()]);
            if aged {
                self.deferred.remove(i);
                self.note_shed(k);
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// Sheds one specific waiting query (slack-guard and liveness drops).
    /// Returns false — and does nothing — for a stale or in-flight key.
    pub(crate) fn shed_key(&mut self, k: QKey) -> bool {
        let phase = self.arena.get(k).map(|s| s.phase);
        match phase {
            Some(QueryPhase::Ready) => {
                if self.ready.front() == Some(&k) {
                    self.ready.pop_front();
                } else if let Some(pos) = self.ready.iter().position(|&r| r == k) {
                    self.ready.remove(pos);
                }
            }
            Some(QueryPhase::Deferred) => self.remove_deferred(k),
            _ => return false,
        }
        self.note_shed(k);
        true
    }

    /// Index of the first ready-deque entry with `ready_s > now` (the
    /// deque is `ready_s`-monotone, so entries before it are admissible).
    fn ready_now_len(&self, now: f64) -> usize {
        let mut lo = 0;
        let mut hi = self.ready.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let ok = self
                .ready
                .get(mid)
                .and_then(|&k| self.arena.get(k))
                .is_some_and(|s| s.ready_s <= now);
            if ok {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Bounded-queue load shedding: if more than `capacity` queries are
    /// waiting (`ready_s <= now`), sheds the newest (highest-seq) excess
    /// and returns the count — the legacy `waiting[capacity..]` cut.
    pub(crate) fn shed_over_capacity(&mut self, now: f64, capacity: usize) -> usize {
        let mut r_end = self.ready_now_len(now);
        let mut defs = std::mem::take(&mut self.defs_scratch);
        defs.clear();
        defs.extend((0..self.deferred.len()).filter(|&i| {
            self.arena
                .get(self.deferred[i])
                .is_some_and(|s| s.ready_s <= now)
        }));
        let total = r_end + defs.len();
        if total <= capacity {
            self.defs_scratch = defs;
            return 0;
        }
        let mut excess = total - capacity;
        let shed = excess;
        while excess > 0 {
            let ready_seq = (r_end > 0)
                .then(|| self.ready.get(r_end - 1).copied())
                .flatten()
                .and_then(|k| self.arena.get(k))
                .map(|s| s.seq);
            let def_seq = defs
                .last()
                .and_then(|&i| self.arena.get(self.deferred[i]))
                .map(|s| s.seq);
            let take_ready = match (ready_seq, def_seq) {
                (Some(r), Some(d)) => r > d,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_ready {
                if let Some(k) = self.ready.remove(r_end - 1) {
                    self.note_shed(k);
                }
                r_end -= 1;
            } else if let Some(i) = defs.pop() {
                let k = self.deferred.remove(i);
                self.note_shed(k);
            }
            excess -= 1;
        }
        self.defs_scratch = defs;
        shed - excess
    }

    /// Collects up to `limit` admissible queries (`ready_s <= now`) in seq
    /// order into `out` — the legacy in-order scan of `pending` — without
    /// removing them (removal happens at [`commit_admitted`]
    /// (Self::commit_admitted) only if the engine accepts the batch).
    pub(crate) fn collect_ready(&self, now: f64, limit: usize, out: &mut Vec<QKey>) {
        out.clear();
        if limit == 0 {
            return;
        }
        let mut ri = 0usize;
        let mut di = 0usize;
        loop {
            // Next candidate on each side, skipping unready deferred.
            let rk = self.ready.get(ri).copied().filter(|&k| {
                self.arena.get(k).is_some_and(|s| s.ready_s <= now)
                // Monotone ready_s: once unready, the whole tail is.
            });
            while di < self.deferred.len()
                && self
                    .arena
                    .get(self.deferred[di])
                    .is_some_and(|s| s.ready_s > now)
            {
                di += 1;
            }
            let dk = self.deferred.get(di).copied();
            let take = match (rk, dk) {
                (Some(r), Some(d)) => {
                    let rs = self.arena.get(r).map_or(u64::MAX, |s| s.seq);
                    let ds = self.arena.get(d).map_or(u64::MAX, |s| s.seq);
                    if rs < ds {
                        ri += 1;
                        Some(r)
                    } else {
                        di += 1;
                        Some(d)
                    }
                }
                (Some(r), None) => {
                    ri += 1;
                    Some(r)
                }
                (None, Some(d)) => {
                    di += 1;
                    Some(d)
                }
                (None, None) => None,
            };
            match take {
                Some(k) => {
                    out.push(k);
                    if out.len() == limit {
                        return;
                    }
                }
                None => return,
            }
        }
    }

    /// Removes an accepted admission group from the queues and marks its
    /// members in flight. Members must have come from
    /// [`collect_ready`](Self::collect_ready) at the same instant.
    pub(crate) fn commit_admitted(&mut self, group: &[QKey]) {
        for &k in group {
            let phase = self.arena.get(k).map(|s| s.phase);
            match phase {
                Some(QueryPhase::Ready) => {
                    // Group members are the lowest-seq ready entries, so
                    // they sit at the front; fall back to a scan if not.
                    if self.ready.front() == Some(&k) {
                        self.ready.pop_front();
                    } else if let Some(pos) = self.ready.iter().position(|&r| r == k) {
                        self.ready.remove(pos);
                    }
                }
                Some(QueryPhase::Deferred) => self.remove_deferred(k),
                _ => continue,
            }
            if let Some(s) = self.arena.get_mut(k) {
                s.phase = QueryPhase::InFlight;
            }
        }
    }

    fn remove_deferred(&mut self, k: QKey) {
        if let Some(pos) = self.deferred.iter().position(|&d| d == k) {
            self.deferred.remove(pos);
        }
    }

    fn insert_deferred(&mut self, k: QKey) {
        let seq = self.arena.get(k).map_or(u64::MAX, |s| s.seq);
        let pos = self
            .deferred
            .partition_point(|&d| self.arena.get(d).map_or(u64::MAX, |s| s.seq) < seq);
        self.deferred.insert(pos, k);
    }

    /// The retry machinery (legacy `retry_or_drop` + `restore_pending` in
    /// one pass): each member gets another attempt; retriable members are
    /// deferred to `now + backoff·2^min(attempts-1, 16)` (the saturating
    /// exponent that keeps deep chains from overflowing the shift) and
    /// exhausted ones are dropped, counted in `acc.failed`. Works on both
    /// still-queued members (failed admission) and in-flight members
    /// (engine failure after commit).
    pub(crate) fn requeue_failed(
        &mut self,
        members: &[QKey],
        now: f64,
        max_retries: u32,
        backoff_s: f64,
        acc: &mut ServingAccumulator,
    ) {
        for &k in members {
            let Some(s) = self.arena.get_mut(k) else {
                continue;
            };
            s.attempts += 1;
            let attempts = s.attempts;
            let phase = s.phase;
            match phase {
                QueryPhase::Ready => {
                    if self.ready.front() == Some(&k) {
                        self.ready.pop_front();
                    } else if let Some(pos) = self.ready.iter().position(|&r| r == k) {
                        self.ready.remove(pos);
                    }
                }
                QueryPhase::Deferred => self.remove_deferred(k),
                QueryPhase::InFlight => {}
            }
            if attempts <= max_retries {
                acc.retries += 1;
                let exp = (attempts - 1).min(16);
                let ready_s = now + backoff_s * f64::from(1u32 << exp);
                if let Some(s) = self.arena.get_mut(k) {
                    s.ready_s = ready_s;
                    s.phase = QueryPhase::Deferred;
                }
                self.insert_deferred(k);
                self.wakeups.push(ready_s, k);
            } else {
                acc.failed += 1;
                self.note_failed(k);
            }
        }
    }

    /// Releases a completed (or otherwise finished) query's arena slot.
    pub(crate) fn release(&mut self, k: QKey) {
        self.arena.release(k);
    }

    /// Live arena slots (backlog + in flight), for leak assertions.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.arena.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ServingConfig;

    #[test]
    fn event_queue_pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a1");
        q.push(1.0, "a2");
        q.push(3.0, "c");
        assert_eq!(q.peek(), Some((1.0, &"a1")));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
        assert_eq!(q.len(), 0);
    }

    /// 500-seed property: under interleaved pushes and pops with plenty
    /// of exact time ties, every pop returns what a stable sort of the
    /// outstanding events by time puts first — earliest time, insertion
    /// (FIFO) order among equal times.
    #[test]
    fn event_queue_matches_stable_sort_over_500_seeds() {
        for seed in 0u64..500 {
            // SplitMix64: cheap deterministic per-seed stream.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut heap = EventQueue::new();
            // Outstanding events in insertion order.
            let mut model: Vec<(f64, usize)> = Vec::new();
            let pop_both = |heap: &mut EventQueue<usize>, model: &mut Vec<(f64, usize)>| {
                model.sort_by(|a, b| a.0.total_cmp(&b.0));
                let want = (!model.is_empty()).then(|| model.remove(0));
                let got = heap.pop();
                match (got, want) {
                    (Some((tg, pg)), Some((tw, pw))) => {
                        assert_eq!(tg.to_bits(), tw.to_bits(), "seed {seed}");
                        assert_eq!(pg, pw, "seed {seed}");
                    }
                    (None, None) => {}
                    (g, w) => panic!("seed {seed}: {g:?} vs {w:?}"),
                }
            };
            for op in 0..200 {
                if op % 3 == 2 {
                    pop_both(&mut heap, &mut model);
                } else {
                    // Coarse times force plenty of exact ties; the payload
                    // is the push index so order mismatches are visible.
                    let t = (next() % 32) as f64 * 0.25;
                    heap.push(t, op);
                    model.push((t, op));
                }
            }
            while !model.is_empty() {
                pop_both(&mut heap, &mut model);
            }
            assert!(heap.pop().is_none(), "seed {seed}");
        }
    }

    #[test]
    fn arena_keys_are_generational() {
        let mut a = QueryArena::default();
        let slot = QuerySlot {
            seq: 0,
            arrival_s: 1.0,
            ready_s: 1.0,
            attempts: 0,
            crashed: false,
            class: Priority::Interactive,
            phase: QueryPhase::Ready,
        };
        let k1 = a.alloc(slot);
        a.release(k1);
        let k2 = a.alloc(QuerySlot { seq: 1, ..slot });
        assert_eq!(k1.idx, k2.idx, "slot index is reused");
        assert!(a.get(k1).is_none(), "stale key must not resolve");
        assert_eq!(a.get(k2).map(|s| s.seq), Some(1));
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn pump_materializes_arrivals_lazily_and_in_order() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 10.0, 100, 7);
        assert!(!q.is_exhausted());
        assert_eq!(q.backlog(), 0, "nothing materialized before pump");
        let t0 = q.min_ready();
        assert!(t0.is_finite() && t0 > 0.0);
        q.pump(t0);
        assert_eq!(q.backlog(), 1);
        q.pump(1e9);
        assert_eq!(q.backlog(), 100, "all arrivals materialize");
        let mut group = Vec::new();
        q.collect_ready(1e9, 100, &mut group);
        let seqs: Vec<u64> = group
            .iter()
            .map(|&k| q.arena.get(k).map_or(u64::MAX, |s| s.seq))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order: {seqs:?}");
    }

    #[test]
    fn deadline_shed_pops_the_expired_prefix() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 20, 3);
        q.pump(1e9);
        // Find the 5th arrival and shed everything older than it by 1s.
        let mut group = Vec::new();
        q.collect_ready(1e9, 20, &mut group);
        let t5 = q.arrival_s(group[4]);
        let shed = q.shed_expired(t5 + 1.0 + 1e-9, 1.0);
        assert_eq!(shed, 5);
        assert_eq!(q.backlog(), 15);
        assert_eq!(q.live(), 15, "shed slots are released");
    }

    #[test]
    fn capacity_shed_drops_the_newest() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 10, 3);
        q.pump(1e9);
        let shed = q.shed_over_capacity(1e9, 6);
        assert_eq!(shed, 4);
        let mut group = Vec::new();
        q.collect_ready(1e9, 10, &mut group);
        assert_eq!(group.len(), 6);
        let max_seq = group
            .iter()
            .map(|&k| q.arena.get(k).map_or(0, |s| s.seq))
            .max();
        assert_eq!(max_seq, Some(5), "survivors are the oldest six");
    }

    #[test]
    fn requeue_defers_and_eventually_drops() {
        let cfg = ServingConfig::new(1.0, 4, 4, 16, 16).with_retries(2, 1.0);
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 4, 3);
        let mut acc = ServingAccumulator::default();
        q.pump(1e9);
        let mut group = Vec::new();
        q.collect_ready(1e9, 2, &mut group);
        let now = 100.0;
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        assert_eq!(acc.retries, 2);
        assert_eq!(q.backlog(), 4, "deferred members stay pending");
        // Before the backoff expires they are not collectable...
        let mut g2 = Vec::new();
        q.collect_ready(now + 0.5, 4, &mut g2);
        assert_eq!(g2.len(), 2, "only the never-failed pair is ready");
        // ...and min_ready points at the backoff expiry.
        // (The two fresh queries arrived long ago, so min_ready is theirs;
        // shed them to see the wakeup.)
        q.commit_admitted(&g2);
        for k in g2 {
            q.release(k);
        }
        let mr = q.min_ready();
        assert_eq!(mr.to_bits(), (now + 1.0).to_bits());
        // Exhaust the retry budget: 2 more failures each → dropped.
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        assert_eq!(acc.failed, 2);
        assert!(q.is_exhausted());
        assert_eq!(q.live(), 0, "dropped slots are released");
    }

    /// The allocation-budget invariant for DES dispatch (DESIGN.md §14):
    /// once the arena free list, deques and scratch buffers are warm, a
    /// full scheduling cycle — min_ready, pump, deadline/capacity sheds,
    /// collect, commit, requeue-with-backoff, release — allocates nothing.
    #[test]
    fn warm_dispatch_cycle_allocates_nothing() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 50.0, 50_000, 7);
        let mut acc = ServingAccumulator::default();
        let mut group = Vec::new();
        let mut cycle = |q: &mut PendingQueue, i: usize| {
            let t = q.min_ready();
            if !t.is_finite() {
                return;
            }
            q.pump(t);
            let _ = q.shed_expired(t, 1e9);
            let _ = q.shed_over_capacity(t, 64);
            q.collect_ready(t, 4, &mut group);
            if group.is_empty() {
                return;
            }
            if i.is_multiple_of(5) {
                // Failed admission: exercises the deferred set and the
                // retry-wakeup heap.
                q.requeue_failed(&group, t, 3, 0.5, &mut acc);
            } else {
                q.commit_admitted(&group);
                for &k in &group {
                    q.release(k);
                }
            }
        };
        for i in 0..400 {
            cycle(&mut q, i);
        }
        let before = crate::alloc_counter::thread_allocs();
        for i in 400..800 {
            cycle(&mut q, i);
        }
        assert_eq!(
            crate::alloc_counter::thread_allocs() - before,
            0,
            "a warm dispatch cycle must not allocate"
        );
    }

    #[test]
    fn commit_marks_in_flight_and_removes_from_queues() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 5.0, 6, 9);
        q.pump(1e9);
        let mut group = Vec::new();
        q.collect_ready(1e9, 3, &mut group);
        q.commit_admitted(&group);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.live(), 6, "in-flight slots stay live");
        let mut g2 = Vec::new();
        q.collect_ready(1e9, 6, &mut g2);
        assert_eq!(g2.len(), 3, "committed members are gone from the view");
        for k in group {
            q.release(k);
        }
        assert_eq!(q.live(), 3);
    }
}
