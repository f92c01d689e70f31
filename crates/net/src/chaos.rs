//! Fault-injection TCP proxy: real failures between client and replica.
//!
//! A [`ChaosProxy`] listens on an ephemeral local port and forwards bytes to
//! one upstream replica, except when its seeded RNG decides a connection
//! should suffer: **drop** (accept, then close immediately), **delay**
//! (stall before forwarding), **truncate** (forward only the first N
//! response bytes, then close mid-body), **reset** (close both sides
//! abruptly after N response bytes), or **flap** (reject every connection
//! for a window, then recover).  Faults are injected on the wire, not
//! mocked — the client sees genuine connect failures, timeouts and torn
//! reads, which is exactly what the byte-for-byte verifier must survive.
//!
//! The upstream address is behind an `RwLock` so a harness can kill a
//! replica, restart it on a fresh port, and repoint the proxy without the
//! clients ever changing the address they dial.  Every injected fault is
//! tallied per kind and into
//! [`ReplicationStats::chaos_faults_injected`](crate::replica::ReplicationStats).

use crate::replica::ReplicationStats;
use crate::NetResult;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for fault injection.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability in `[0, 1]` that a new connection suffers a fault.
    pub fault_rate: f64,
    /// Stall length for delay faults.
    pub delay: Duration,
    /// Response bytes forwarded before a truncate fault closes the stream.
    pub truncate_after: usize,
    /// Response bytes forwarded before a reset fault kills both sides.
    pub reset_after: usize,
    /// How long a flap fault rejects every incoming connection.
    pub flap_window: Duration,
    /// RNG seed — same seed, same fault schedule.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            fault_rate: 0.25,
            delay: Duration::from_millis(30),
            truncate_after: 48,
            reset_after: 160,
            flap_window: Duration::from_millis(120),
            seed: 0xc4a05,
        }
    }
}

/// Per-kind injected-fault tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Connections accepted and immediately closed.
    pub drops: u64,
    /// Connections stalled before forwarding.
    pub delays: u64,
    /// Responses cut off mid-body.
    pub truncates: u64,
    /// Connections reset after a few response bytes.
    pub resets: u64,
    /// Connections rejected during a flap window.
    pub flaps: u64,
}

impl ChaosCounters {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.drops + self.delays + self.truncates + self.resets + self.flaps
    }
}

#[derive(Default)]
struct Tallies {
    drops: AtomicU64,
    delays: AtomicU64,
    truncates: AtomicU64,
    resets: AtomicU64,
    flaps: AtomicU64,
}

struct Inner {
    upstream: RwLock<String>,
    config: ChaosConfig,
    rng: Mutex<u64>,
    flap_until: Mutex<Option<Instant>>,
    tallies: Tallies,
    stats: Option<Arc<ReplicationStats>>,
    shutdown: AtomicBool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Delay,
    Truncate,
    Reset,
    Flap,
}

impl Inner {
    fn next_rand(&self) -> u64 {
        let mut rng = self.rng.lock().expect("chaos rng lock");
        let mut x = *rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick_fault(&self) -> Fault {
        // An active flap window overrides the dice: everything is rejected.
        {
            let mut flap = self.flap_until.lock().expect("chaos flap lock");
            if let Some(until) = *flap {
                if Instant::now() < until {
                    return Fault::Flap;
                }
                *flap = None;
            }
        }
        let roll = (self.next_rand() % 10_000) as f64 / 10_000.0;
        if roll >= self.config.fault_rate {
            return Fault::None;
        }
        match self.next_rand() % 5 {
            0 => Fault::Drop,
            1 => Fault::Delay,
            2 => Fault::Truncate,
            3 => Fault::Reset,
            _ => {
                *self.flap_until.lock().expect("chaos flap lock") =
                    Some(Instant::now() + self.config.flap_window);
                Fault::Flap
            }
        }
    }

    fn count(&self, fault: Fault) {
        let counter = match fault {
            Fault::None => return,
            Fault::Drop => &self.tallies.drops,
            Fault::Delay => &self.tallies.delays,
            Fault::Truncate => &self.tallies.truncates,
            Fault::Reset => &self.tallies.resets,
            Fault::Flap => &self.tallies.flaps,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.chaos_faults_injected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running fault-injection proxy in front of one upstream address.
pub struct ChaosProxy {
    inner: Arc<Inner>,
    local_addr: String,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("upstream", &*self.inner.upstream.read().expect("upstream"))
            .finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Bind an ephemeral local port and start forwarding to `upstream`.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(
        upstream: impl Into<String>,
        config: ChaosConfig,
        stats: Option<Arc<ReplicationStats>>,
    ) -> NetResult<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?.to_string();
        let inner = Arc::new(Inner {
            upstream: RwLock::new(upstream.into()),
            rng: Mutex::new(config.seed ^ 0x9e37_79b9_7f4a_7c15),
            config,
            flap_until: Mutex::new(None),
            tallies: Tallies::default(),
            stats,
            shutdown: AtomicBool::new(false),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let inner = Arc::clone(&inner);
            let handlers = Arc::clone(&handlers);
            // `accept` blocks; `stop` sets the flag and then connects once
            // to wake it, and that connection (like any other accepted after
            // the flag) is dropped without a fault or a handler.
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let Ok((client, _)) = accepted else {
                    return;
                };
                let inner = Arc::clone(&inner);
                let handle = std::thread::spawn(move || handle_connection(inner, client));
                let mut live = handlers.lock().expect("chaos handlers lock");
                live.retain(|h| !h.is_finished());
                live.push(handle);
            })
        };
        Ok(Self {
            inner,
            local_addr,
            accept: Some(accept),
            handlers,
        })
    }

    /// The address clients should dial.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Repoint the proxy at a new upstream (e.g. a restarted replica on a
    /// fresh port).  In-flight connections keep their old upstream; new
    /// connections get the new one.
    pub fn set_upstream(&self, addr: impl Into<String>) {
        *self.inner.upstream.write().expect("upstream lock") = addr.into();
    }

    /// Snapshot of per-kind fault tallies.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            drops: self.inner.tallies.drops.load(Ordering::Relaxed),
            delays: self.inner.tallies.delays.load(Ordering::Relaxed),
            truncates: self.inner.tallies.truncates.load(Ordering::Relaxed),
            resets: self.inner.tallies.resets.load(Ordering::Relaxed),
            flaps: self.inner.tallies.flaps.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, wake the forwarders, and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            // Wake the blocked `accept`.  A failed connect (say, out of file
            // descriptors) is retried, as nothing else would wake the thread
            // being joined.
            while TcpStream::connect(&self.local_addr).is_err() && !handle.is_finished() {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *self.handlers.lock().expect("chaos handlers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(inner: Arc<Inner>, client: TcpStream) {
    let fault = inner.pick_fault();
    inner.count(fault);
    match fault {
        Fault::Drop | Fault::Flap => {
            // Accept-then-close: the client sees EOF/reset at the worst time.
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        Fault::Delay => std::thread::sleep(inner.config.delay),
        Fault::None | Fault::Truncate | Fault::Reset => {}
    }

    let upstream_addr = inner.upstream.read().expect("upstream lock").clone();
    let Ok(upstream) = TcpStream::connect(&upstream_addr) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);

    // Response-direction byte budget: truncate/reset cut the reply mid-body.
    let budget = match fault {
        Fault::Truncate => Some(inner.config.truncate_after),
        Fault::Reset => Some(inner.config.reset_after),
        _ => None,
    };

    let Ok(client_rx) = client.try_clone() else {
        return;
    };
    let Ok(upstream_tx) = upstream.try_clone() else {
        return;
    };

    // Request direction in a helper thread, response direction inline; both
    // poll their stop condition via short read timeouts so an idle
    // keep-alive connection cannot wedge proxy shutdown.
    let response_done = Arc::new(AtomicBool::new(false));
    let request_pump = {
        let inner = Arc::clone(&inner);
        let response_done = Arc::clone(&response_done);
        std::thread::spawn(move || {
            pump(client_rx, upstream_tx, None, || {
                inner.shutdown.load(Ordering::Acquire) || response_done.load(Ordering::Acquire)
            });
        })
    };
    pump(upstream, client, budget, || {
        inner.shutdown.load(Ordering::Acquire)
    });
    response_done.store(true, Ordering::Release);
    let _ = request_pump.join();
}

/// Copy bytes from `from` to `to` until EOF, error, an exhausted `budget`,
/// or `stop()` turns true.  Read timeouts keep the loop responsive to `stop`.
fn pump(from: TcpStream, mut to: TcpStream, budget: Option<usize>, stop: impl Fn() -> bool) {
    let mut from = from;
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut remaining = budget;
    let mut buf = [0u8; 4096];
    loop {
        if stop() {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let allowed = match &mut remaining {
                    Some(rem) => {
                        let take = n.min(*rem);
                        *rem -= take;
                        take
                    }
                    None => n,
                };
                if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
                    break;
                }
                let _ = to.flush();
                if remaining == Some(0) {
                    // Budget spent: kill both directions abruptly.
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopping_an_idle_proxy_joins_its_accept_thread() {
        // Every connection the proxy handles would be a fault, so the wake-up
        // connect must not reach a handler.
        let config = ChaosConfig {
            fault_rate: 1.0,
            ..ChaosConfig::default()
        };
        let stats = Arc::new(ReplicationStats::default());
        let proxy = ChaosProxy::start("127.0.0.1:9", config, Some(Arc::clone(&stats))).unwrap();
        let addr = proxy.local_addr().to_string();
        proxy.shutdown();
        assert_eq!(stats.chaos_faults_injected.load(Ordering::Relaxed), 0);
        // The listener went with the joined thread.
        assert!(TcpStream::connect(&addr).is_err(), "{addr} still accepts");
    }
}
