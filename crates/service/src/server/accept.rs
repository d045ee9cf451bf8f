//! The TCP acceptor: per-connection handler threads behind a hard
//! connection cap, and the graceful drain sequence.
//!
//! Overload policy is *shed, don't queue*: an accept beyond
//! [`FrontDoorConfig::max_conns`] is answered with one structured
//! `{"ok":false,"error":"overloaded"}` line and closed immediately, so a
//! flood degrades into fast, explicit rejections instead of an unbounded
//! backlog of half-served sockets.
//!
//! The drain (a `shutdown` request or, via [`Server::run_watching`], a
//! SIGTERM observed by the binary) runs in strict order to guarantee a
//! clean WAL tail on every tenant: stop accepting → freeze the fleet's
//! control plane → unwedge blocked readers by shutting their read halves
//! → wait (bounded) for handler threads to finish → take and hold every
//! shard lock (in name order — the only multi-shard lock hold in the
//! system) → flush subscriber queues with the same deadline → fsync every
//! tenant's journal → exit. The conn loop re-checks the stop flag after
//! acquiring its shard lock, so no straggler can append to a journal
//! once the drain owns it.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::broadcast::SubscriberHub;
use super::wire::write_line;
use super::{conn, protocol_error, FrontDoorConfig, FrontMetrics};
use crate::fault::NetStream;
use crate::state::ServiceCore;
use crate::tenant::ShardMap;

/// State shared by the acceptor, every connection handler, and the
/// subscriber writer threads.
pub(crate) struct Shared {
    pub(crate) fleet: ShardMap,
    pub(crate) hub: SubscriberHub,
    pub(crate) stop: AtomicBool,
    pub(crate) cfg: FrontDoorConfig,
    pub(crate) metrics: FrontMetrics,
    /// Where [`Shared::request_stop`] connects to wake the acceptor: the
    /// listener's own address, loopback when it is bound to all of them.
    wake_addr: SocketAddr,
    conn_count: AtomicUsize,
    /// Read-half handles of live connections, keyed by accept ordinal, so
    /// the drain can unwedge handlers blocked in a read.
    conns: Mutex<Vec<(u64, NetStream)>>,
}

impl Shared {
    /// Flags the server to drain and wakes the acceptor out of its
    /// blocking `accept` with one loopback connect, which it drops
    /// unserved. Should the connect fail (a full accept backlog), the
    /// queued connections wake the acceptor instead.
    pub(crate) fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// Decrements the connection accounting even if the handler panics, so
/// the cap and the drain's straggler wait stay truthful.
struct ConnGuard {
    shared: Arc<Shared>,
    ordinal: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.retain(|(id, _)| *id != self.ordinal);
        drop(conns);
        self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
        self.shared.metrics.connections.add(-1);
    }
}

/// A bound TCP server, not yet accepting. Splitting bind from
/// [`Server::run`] lets callers bind port 0 and learn the real address.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener with default front-door tuning around a
    /// single-tenant core; the service starts on [`Server::run`].
    pub fn bind(core: ServiceCore, addr: &str) -> io::Result<Server> {
        Server::bind_with(core, addr, FrontDoorConfig::default())
    }

    /// Binds the listener with explicit front-door tuning around a
    /// single-tenant core (wrapped as the fleet's default tenant).
    pub fn bind_with(core: ServiceCore, addr: &str, cfg: FrontDoorConfig) -> io::Result<Server> {
        Server::bind_fleet(ShardMap::single(core), addr, cfg)
    }

    /// Binds the listener in front of a tenant fleet. The front-door
    /// metric series live in the fleet registry (the default shard's).
    pub fn bind_fleet(fleet: ShardMap, addr: &str, cfg: FrontDoorConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let metrics = FrontMetrics::new(&fleet.registry());
        let hub = SubscriberHub::new(
            cfg.sub_queue,
            cfg.write_timeout,
            metrics.subscribers.clone(),
            metrics.subscribers_evicted.clone(),
            metrics.subscriber_disconnects.clone(),
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                fleet,
                hub,
                stop: AtomicBool::new(false),
                cfg,
                metrics,
                wake_addr,
                conn_count: AtomicUsize::new(0),
                conns: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a `shutdown` request arrives,
    /// then drains gracefully.
    pub fn run(self) -> io::Result<()> {
        self.run_inner(None)
    }

    /// Like [`Server::run`], additionally draining when `term` becomes
    /// true — the hook the binary's SIGTERM/SIGINT handler sets. A signal
    /// handler can only set a flag, so a watcher thread polls `term` every
    /// 10 ms and requests the stop; it exits once the server stops, for
    /// whatever reason.
    pub fn run_watching(self, term: &AtomicBool) -> io::Result<()> {
        self.run_inner(Some(term))
    }

    fn run_inner(self, term: Option<&AtomicBool>) -> io::Result<()> {
        std::thread::scope(|scope| {
            if let Some(term) = term {
                let shared = &self.shared;
                scope.spawn(move || {
                    while !shared.stop.load(Ordering::SeqCst) {
                        if term.load(Ordering::SeqCst) {
                            shared.request_stop();
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                });
            }
            let accepted = self.accept_loop();
            // Whatever ended the loop, an accept error included, the
            // watcher exits on `stop`.
            self.shared.stop.store(true, Ordering::SeqCst);
            accepted
        })?;
        self.drain();
        Ok(())
    }

    /// Accepts until a stop request: a blocking `accept`, woken by the
    /// request's own connection (see [`Shared::request_stop`]).
    fn accept_loop(&self) -> io::Result<()> {
        let mut ordinal: u64 = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The stop request's wake connection, or one that raced
                    // it: neither counted, shed nor served.
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    ordinal += 1;
                    if self.shared.conn_count.load(Ordering::SeqCst) >= self.shared.cfg.max_conns {
                        self.shared.metrics.connections_shed.inc();
                        shed(stream);
                        continue;
                    }
                    self.shared.conn_count.fetch_add(1, Ordering::SeqCst);
                    self.shared.metrics.connections.add(1);
                    self.shared.metrics.connections_total.inc();
                    // One `write` per response line or event batch (see
                    // `wire`): Nagle would hold each behind the previous
                    // ACK, costing ~40ms per round trip on loopback.
                    let _ = stream.set_nodelay(true);
                    let stream = NetStream::new(stream, self.shared.cfg.faults.arm(ordinal));
                    if let Ok(handle) = stream.try_clone() {
                        let mut conns =
                            self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
                        conns.push((ordinal, handle));
                    }
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || {
                        let guard = ConnGuard { shared, ordinal };
                        let _ = conn::serve_connection(&guard.shared, stream);
                        drop(guard);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The graceful drain; see the module docs for the ordering argument.
    fn drain(&self) {
        let deadline = Instant::now() + self.shared.cfg.drain;
        // No shard may be created or dropped once the drain starts: the
        // lock set collected below must be the whole fleet.
        self.shared.fleet.freeze();
        {
            let conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            for (_, stream) in conns.iter() {
                stream.shutdown(Shutdown::Read);
            }
        }
        while self.shared.conn_count.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Hold every shard lock (name order; the frozen fleet cannot grow)
        // across flush + fsync: together with the conn loop's stop
        // re-check this guarantees no append races the final sync, so
        // every tenant's WAL tail is clean on exit.
        let shards = self.shared.fleet.shards();
        let guards: Vec<_> = shards.iter().map(|s| s.lock()).collect();
        self.shared.hub.drain(deadline.max(Instant::now() + Duration::from_millis(50)));
        for core in &guards {
            if let Some(journal) = core.journal() {
                let _ = journal.sync();
            }
        }
        drop(guards);
    }
}

/// Answers an over-cap accept with one structured line and closes it. A
/// short write timeout bounds even this courtesy write.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_line(&mut stream, &protocol_error("overloaded".into()));
}
