//! The subscriber hub: bounded per-subscriber queues drained by dedicated
//! writer threads, so event delivery never happens under the core lock.
//!
//! Events are *sequenced* by publishing under the core lock — every
//! subscriber observes ingestion order — but each line is only
//! `try_send`-ed into the subscriber's bounded queue, which cannot block.
//! A subscriber whose queue is full (it stopped reading, or reads slower
//! than ingest for long enough to fall a full queue behind) is **evicted**:
//! its socket is shut down, its writer thread unwound, and
//! `audex_service_subscribers_evicted_total` incremented. A subscriber
//! that goes away on its own is counted as a disconnect instead. Either
//! way, ingest latency is independent of the slowest client.
//!
//! Each writer thread is a *coalescing* drain: it blocks for one line,
//! takes whatever else is already queued (up to [`BATCH_BYTES`]) and
//! delivers the run in one write. A subscriber therefore holds at most
//! `--sub-queue` lines plus one batch buffer of `BATCH_BYTES` + one line.
//!
//! Lifecycle accounting runs through one compare-and-swap on
//! [`SubSlot::gone`]: whichever side notices first — the publisher on a
//! full queue, the writer thread on a write error, the connection loop on
//! reader EOF, the drain on shutdown — wins the CAS and does the counting
//! exactly once; everyone else stands down.

use std::io::{ErrorKind, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use audex_obs::{Counter, Gauge};

use super::wire::{self, BATCH_BYTES};
use crate::fault::NetStream;
use crate::json::Json;
use crate::tenant::TenantId;

/// What a subscriber's writer thread receives: an event/response line to
/// deliver (rendered, newline included), or the drain sentinel asking it
/// to flush and exit.
enum Msg {
    Line(Arc<str>),
    Close,
}

/// Why a slot left service; decides which counter the CAS winner bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retire {
    /// Fell behind: queue full or write timed out. Counted as an eviction.
    Evicted,
    /// Went away on its own (EOF, reset). Counted as a disconnect.
    Disconnected,
    /// Flushed and closed by the graceful drain. Not an error; no counter.
    Drained,
}

/// Metric handles shared by the hub and every writer thread.
#[derive(Clone)]
struct HubCounters {
    subscribers: Gauge,
    evicted: Counter,
    disconnects: Counter,
}

/// One attached subscriber: the bounded queue's sender, a handle on the
/// socket (for shutdown), and the exactly-once lifecycle flags.
pub(crate) struct SubSlot {
    tx: SyncSender<Msg>,
    stream: NetStream,
    /// The tenant this subscriber listens to; publishes from other
    /// tenants' shards never reach it (cross-tenant isolation).
    tenant: TenantId,
    /// CAS target: first mover retires the slot and does the accounting.
    gone: AtomicBool,
    /// Set by the writer thread on exit; the drain polls it.
    done: AtomicBool,
}

impl SubSlot {
    /// True once the slot has been retired (evicted, disconnected or
    /// drained); enqueues to it are pointless.
    pub(crate) fn is_gone(&self) -> bool {
        self.gone.load(Ordering::SeqCst)
    }

    /// Retires the slot: the CAS winner counts the reason, drops the
    /// subscriber gauge, and shuts the socket down (which also unwedges a
    /// writer thread blocked mid-write and the connection's reader loop).
    /// Returns whether this call won the race.
    fn retire(&self, counters: &HubCounters, reason: Retire) -> bool {
        if self.gone.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            return false;
        }
        match reason {
            Retire::Evicted => counters.evicted.inc(),
            Retire::Disconnected => counters.disconnects.inc(),
            Retire::Drained => {}
        }
        counters.subscribers.add(-1);
        self.stream.shutdown(Shutdown::Both);
        true
    }
}

/// The set of live subscribers and the policy knobs their queues run
/// under. Publishing requires the caller to hold the core lock (that is
/// what sequences events); the hub's own mutex only guards the slot list.
pub(crate) struct SubscriberHub {
    subs: Mutex<Vec<Arc<SubSlot>>>,
    queue_depth: usize,
    write_timeout: Duration,
    counters: HubCounters,
}

impl SubscriberHub {
    pub(crate) fn new(
        queue_depth: usize,
        write_timeout: Duration,
        subscribers: Gauge,
        evicted: Counter,
        disconnects: Counter,
    ) -> SubscriberHub {
        SubscriberHub {
            subs: Mutex::new(Vec::new()),
            queue_depth: queue_depth.max(1),
            write_timeout,
            counters: HubCounters { subscribers, evicted, disconnects },
        }
    }

    fn lock_subs(&self) -> std::sync::MutexGuard<'_, Vec<Arc<SubSlot>>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches a subscriber to one tenant's event stream: bounds its
    /// queue, spawns its writer thread, and returns the slot the owning
    /// connection routes lines through. Call under that tenant's shard
    /// lock so the subscription is ordered against concurrent publishes.
    pub(crate) fn attach(
        &self,
        stream: NetStream,
        tenant: TenantId,
    ) -> std::io::Result<Arc<SubSlot>> {
        let mut writer = stream.try_clone()?;
        writer.set_write_timeout(Some(self.write_timeout))?;
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_depth);
        let slot = Arc::new(SubSlot {
            tx,
            stream,
            tenant,
            gone: AtomicBool::new(false),
            done: AtomicBool::new(false),
        });
        self.counters.subscribers.add(1);
        let thread_slot = Arc::clone(&slot);
        let thread_counters = self.counters.clone();
        std::thread::spawn(move || {
            let reason = writer_loop(&rx, &mut writer);
            thread_slot.retire(&thread_counters, reason);
            thread_slot.done.store(true, Ordering::SeqCst);
        });
        self.lock_subs().push(Arc::clone(&slot));
        Ok(slot)
    }

    /// Enqueues one line for a single subscriber (its own response).
    /// Never blocks: a full queue evicts the subscriber instead. Call
    /// under the core lock. Returns false when the slot is gone.
    pub(crate) fn send_to(&self, slot: &Arc<SubSlot>, line: &Json) -> bool {
        if slot.is_gone() {
            return false;
        }
        self.offer(slot, wire::shared_line(line))
    }

    /// Fans events out to every live subscriber **of the publishing
    /// tenant** — slots attached to other tenants never see them. Each
    /// line is rendered once and `try_send`-ed; full queues evict. Call
    /// under the publishing shard's lock — that lock, not the hub, is
    /// what sequences one tenant's events.
    pub(crate) fn publish(&self, tenant: &TenantId, events: &[Json]) {
        if events.is_empty() {
            return;
        }
        let mut subs = self.lock_subs();
        subs.retain(|s| !s.is_gone());
        if subs.iter().all(|s| s.tenant != *tenant) {
            return;
        }
        for event in events {
            let line = wire::shared_line(event);
            for slot in subs.iter().filter(|s| s.tenant == *tenant) {
                self.offer(slot, Arc::clone(&line));
            }
        }
    }

    /// `try_send` one line; a full queue or a hung-up writer retires the
    /// slot. Returns whether the line was enqueued.
    fn offer(&self, slot: &Arc<SubSlot>, line: Arc<str>) -> bool {
        match slot.tx.try_send(Msg::Line(line)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                slot.retire(&self.counters, Retire::Evicted);
                false
            }
            Err(TrySendError::Disconnected(_)) => {
                slot.retire(&self.counters, Retire::Disconnected);
                false
            }
        }
    }

    /// The owning connection's reader saw EOF or died: the subscriber is
    /// gone. Counts a disconnect (unless already retired) and asks the
    /// writer thread to exit.
    pub(crate) fn detach(&self, slot: &Arc<SubSlot>, reason: Retire) {
        slot.retire(&self.counters, reason);
        // Wake a writer idling in recv(); if the queue is full the socket
        // shutdown above already unwedged it.
        let _ = slot.tx.try_send(Msg::Close);
        self.lock_subs().retain(|s| !Arc::ptr_eq(s, slot));
    }

    /// Graceful drain: sends every live subscriber the flush-then-exit
    /// sentinel and waits (bounded by `deadline`) for the writer threads
    /// to finish delivering their queues. A subscriber that cannot take
    /// even the sentinel, or cannot flush in time, is evicted — the drain
    /// never waits on a stalled client.
    pub(crate) fn drain(&self, deadline: Instant) {
        let slots: Vec<Arc<SubSlot>> = {
            let mut subs = self.lock_subs();
            std::mem::take(&mut *subs)
        };
        for slot in &slots {
            if slot.is_gone() {
                continue;
            }
            if slot.tx.try_send(Msg::Close).is_err() {
                // Queue full at drain time: this subscriber was already a
                // full queue behind — evict rather than wait.
                slot.retire(&self.counters, Retire::Evicted);
            }
        }
        loop {
            let pending = slots.iter().any(|s| !s.done.load(Ordering::SeqCst));
            if !pending {
                return;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Out of time: cut the stragglers loose so their writers error out.
        for slot in &slots {
            if !slot.done.load(Ordering::SeqCst) {
                slot.retire(&self.counters, Retire::Evicted);
            }
        }
    }
}

/// One subscriber's dedicated writer: a coalescing drain of the bounded
/// queue onto `sink`. Lines leave in queue order, never split or reordered
/// around the `Close` sentinel: whatever was queued ahead of it is written
/// first. Returns why the subscriber is done — a write error or timeout
/// (timeout ⇒ evicted, hangup ⇒ disconnected), or `Close` ⇒ drained.
fn writer_loop(rx: &Receiver<Msg>, sink: &mut impl Write) -> Retire {
    let mut batch = String::new();
    while let Ok(mut msg) = rx.recv() {
        let closed = loop {
            match msg {
                Msg::Line(line) => batch.push_str(&line),
                Msg::Close => break true,
            }
            if batch.len() >= BATCH_BYTES {
                break false;
            }
            match rx.try_recv() {
                Ok(next) => msg = next,
                Err(_) => break false,
            }
        };
        if let Err(e) = wire::flush(sink, &mut batch) {
            return match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => Retire::Evicted,
                _ => Retire::Disconnected,
            };
        }
        if closed {
            return Retire::Drained;
        }
    }
    // Sender gone without a sentinel counts as a disconnect too.
    Retire::Disconnected
}

#[cfg(test)]
mod tests {
    use super::super::wire::tests::{scored_reply, CountingSink};
    use super::*;
    use crate::json::obj;
    use std::sync::mpsc::sync_channel;

    /// Queues `lines` (then `Close` if asked) before the writer runs, runs
    /// it to completion on `sink`, and returns why it stopped.
    fn run_writer(lines: &[Json], close: bool, sink: &mut CountingSink) -> Retire {
        let (tx, rx) = sync_channel(lines.len() + 1);
        for line in lines {
            assert!(tx.try_send(Msg::Line(wire::shared_line(line))).is_ok(), "queue has room");
        }
        if close {
            assert!(tx.try_send(Msg::Close).is_ok(), "queue has room");
        }
        drop(tx);
        writer_loop(&rx, sink)
    }

    fn per_line(lines: &[Json]) -> Vec<u8> {
        lines.iter().map(|l| format!("{l}\n")).collect::<String>().into_bytes()
    }

    #[test]
    fn a_backlog_is_coalesced_in_order_and_byte_identical() {
        let lines: Vec<Json> = (0..300i64)
            .map(|i| obj([("event", Json::from("score")), ("query", Json::Int(i))]))
            .collect();
        let mut sink = CountingSink::default();
        // No sentinel: the sender hanging up is a disconnect, after delivery.
        assert_eq!(run_writer(&lines, false, &mut sink), Retire::Disconnected);
        assert!(sink.writes.len() <= 2, "{} writes for 300 queued lines", sink.writes.len());
        assert_eq!(sink.bytes(), per_line(&lines));
    }

    #[test]
    fn close_behind_queued_lines_delivers_them_then_drains() {
        let lines: Vec<Json> = (0..10).map(scored_reply).collect();
        let mut sink = CountingSink::default();
        assert_eq!(run_writer(&lines, true, &mut sink), Retire::Drained);
        assert_eq!(sink.writes.len(), 1);
        assert_eq!(sink.bytes(), per_line(&lines));
        // A bare sentinel writes nothing at all.
        let mut idle = CountingSink::default();
        assert_eq!(run_writer(&[], true, &mut idle), Retire::Drained);
        assert!(idle.writes.is_empty());
    }

    #[test]
    fn a_timeout_mid_batch_evicts_once_and_stops_writing() {
        let lines: Vec<Json> = (0..10).map(scored_reply).collect();
        let expected = per_line(&lines);
        let mut sink = CountingSink { absorb: Some(1500), ..CountingSink::default() };
        // Close is queued too: the failed batch must win over the sentinel.
        assert_eq!(run_writer(&lines, true, &mut sink), Retire::Evicted);
        // The stall took a partial write — a prefix of the stream, cut
        // mid-line — and nothing was attempted after the timeout.
        assert_eq!(sink.bytes(), &expected[..1500]);
        assert_eq!(sink.writes.len(), 1);
    }

    #[test]
    fn a_batch_overshoots_the_cap_by_at_most_one_line() {
        let line = Json::Str("x".repeat(1000));
        let lines = vec![line; 4 * BATCH_BYTES / 1000];
        let line_len = per_line(&lines[..1]).len();
        let mut sink = CountingSink::default();
        assert_eq!(run_writer(&lines, true, &mut sink), Retire::Drained);
        assert_eq!(sink.bytes(), per_line(&lines));
        assert!(sink.writes.len() >= 4, "{} writes", sink.writes.len());
        let (last, full) = sink.writes.split_last().expect("wrote something");
        for batch in full {
            assert!(
                (BATCH_BYTES..BATCH_BYTES + line_len).contains(&batch.len()),
                "{}",
                batch.len()
            );
            assert_eq!(batch.last(), Some(&b'\n'), "batches end on a line boundary");
        }
        assert!(last.len() < BATCH_BYTES + line_len);
    }
}
