//! An in-process TCP fault proxy for chaos campaigns.
//!
//! The proxy sits between workers and the coordinator (workers connect
//! to the proxy, the proxy connects to the real listener) and damages
//! traffic at *frame* granularity, driven by the seeded
//! [`FaultPlan`] sites:
//!
//! - `net.accept` — an incoming connection is refused (closed before a
//!   byte flows), exercising the worker's connect-retry backoff.
//! - `net.partition` — the link is severed mid-message: half a frame is
//!   delivered, then both directions are shut down.
//! - `net.frame_write` — one frame is damaged; which way is drawn from
//!   the proxy seed: dropped, bit-flipped (CRC rejection downstream),
//!   duplicated (dedup exercise), delayed, or reordered past its
//!   successor.
//!
//! The proxy understands the frame codec but never the messages — it
//! damages bytes, not semantics, exactly like a real flaky link. Fault
//! *decisions* are seeded and replay for a fixed visit order; across
//! concurrently pumped connections the interleaving is scheduler-driven,
//! which is the point: the batch outcome must be bit-identical anyway.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use resilience::{splitmix64, FaultKind, FaultPlan};

use crate::frame::{encode_frame, read_frame};

/// Fault proxy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyOptions {
    /// Address to listen on (use port 0 for an ephemeral test port).
    pub listen: SocketAddr,
    /// The real endpoint (the coordinator's listener).
    pub target: SocketAddr,
    /// Seed for the fault plan and the damage-mode draws.
    pub seed: u64,
    /// Injection rate per fault site per frame/connection.
    pub fault_rate: f64,
}

/// A running fault proxy. Dropping (or [`stop`](FaultProxy::stop)ping)
/// it closes the accept loop; in-flight pumps die with their
/// connections.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

const ACCEPT_POLL: Duration = Duration::from_millis(2);
const DELAY: Duration = Duration::from_millis(3);

impl FaultProxy {
    /// Binds the listen address and starts proxying to the target.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn start(opts: ProxyOptions) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind(opts.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let plan = Arc::new(Mutex::new(FaultPlan::new(
            splitmix64(opts.seed ^ 0x9E7_F4A7),
            opts.fault_rate,
        )));
        let frame_counter = Arc::new(AtomicU64::new(0));
        let accept = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || accept_loop(&listener, &opts, &stop, &plan, &frame_counter)
        });
        obs::event!(
            "net.proxy_started",
            listen = addr.to_string(),
            target = opts.target.to_string()
        );
        Ok(FaultProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting; existing pumps drain with their connections.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    opts: &ProxyOptions,
    stop: &Arc<AtomicBool>,
    plan: &Arc<Mutex<FaultPlan>>,
    frame_counter: &Arc<AtomicU64>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let refused = {
                    let mut plan = plan.lock().unwrap_or_else(|e| e.into_inner());
                    plan.should_inject(FaultKind::NetAccept)
                };
                if refused {
                    obs::counter_add("net.proxy.refused", 1);
                    drop(client);
                    continue;
                }
                let upstream = match TcpStream::connect(opts.target) {
                    Ok(s) => s,
                    Err(_) => {
                        // Coordinator gone: behave like the link it is.
                        drop(client);
                        continue;
                    }
                };
                let (c2, u2) = match (client.try_clone(), upstream.try_clone()) {
                    (Ok(c), Ok(u)) => (c, u),
                    _ => continue,
                };
                let seed = opts.seed;
                spawn_pump(
                    client,
                    u2,
                    Arc::clone(plan),
                    Arc::clone(frame_counter),
                    seed,
                );
                spawn_pump(
                    upstream,
                    c2,
                    Arc::clone(plan),
                    Arc::clone(frame_counter),
                    seed,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_pump(
    src: TcpStream,
    dst: TcpStream,
    plan: Arc<Mutex<FaultPlan>>,
    frame_counter: Arc<AtomicU64>,
    seed: u64,
) {
    std::thread::spawn(move || pump(src, dst, &plan, &frame_counter, seed));
}

/// Frame-granular one-direction pump. Ends (shutting down both streams)
/// on any read/write failure or an injected partition.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: &Mutex<FaultPlan>,
    frame_counter: &AtomicU64,
    seed: u64,
) {
    // A frame held back by a reorder draw: delivered after its successor.
    let mut held: Option<Vec<u8>> = None;
    while let Ok(payload) = read_frame(&mut src) {
        let visit = frame_counter.fetch_add(1, Ordering::Relaxed);
        let (partition, damage) = {
            let mut plan = plan.lock().unwrap_or_else(|e| e.into_inner());
            (
                plan.should_inject(FaultKind::Partition),
                plan.should_inject(FaultKind::FrameWrite),
            )
        };
        if partition {
            // Sever mid-message: half a frame lands, then the link dies.
            let bytes = encode_frame(&payload);
            let _ = dst.write_all(&bytes[..bytes.len() / 2]);
            obs::counter_add("net.proxy.severed", 1);
            break;
        }
        let deferred = held.take();
        if damage {
            match splitmix64(seed ^ visit.wrapping_mul(0x9E1D)) % 5 {
                0 => {
                    obs::counter_add("net.proxy.dropped", 1);
                    // The frame vanishes; a deferred frame still flows.
                }
                1 => {
                    let mut bytes = encode_frame(&payload);
                    let pos = 8 + (splitmix64(seed ^ visit) % payload.len().max(1) as u64) as usize;
                    let pos = pos.min(bytes.len() - 1);
                    bytes[pos] ^= 1 << (splitmix64(visit ^ 0xB17) % 8);
                    obs::counter_add("net.proxy.corrupted", 1);
                    if dst.write_all(&bytes).is_err() {
                        break;
                    }
                }
                2 => {
                    obs::counter_add("net.proxy.duplicated", 1);
                    let bytes = encode_frame(&payload);
                    if dst
                        .write_all(&bytes)
                        .and_then(|()| dst.write_all(&bytes))
                        .is_err()
                    {
                        break;
                    }
                }
                3 => {
                    obs::counter_add("net.proxy.delayed", 1);
                    std::thread::sleep(DELAY);
                    if dst.write_all(&encode_frame(&payload)).is_err() {
                        break;
                    }
                }
                _ => {
                    obs::counter_add("net.proxy.reordered", 1);
                    held = Some(payload);
                }
            }
        } else if dst.write_all(&encode_frame(&payload)).is_err() {
            break;
        }
        if let Some(h) = deferred {
            if dst.write_all(&encode_frame(&h)).is_err() {
                break;
            }
        }
        if dst.flush().is_err() {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use std::io::Read;

    /// Echo server: reads frames, echoes their payloads back framed.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut out = stream.try_clone().unwrap();
                while let Ok(payload) = read_frame(&mut stream) {
                    if payload == b"quit" {
                        return;
                    }
                    if write_frame(&mut out, &payload).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn transparent_at_zero_fault_rate() {
        let (target, server) = echo_server();
        let proxy = FaultProxy::start(ProxyOptions {
            listen: "127.0.0.1:0".parse().unwrap(),
            target,
            seed: 7,
            fault_rate: 0.0,
        })
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        for i in 0..20u32 {
            let payload = format!("frame-{i}").into_bytes();
            write_frame(&mut stream, &payload).unwrap();
            assert_eq!(read_frame(&mut stream).unwrap(), payload);
        }
        write_frame(&mut stream, b"quit").unwrap();
        proxy.stop();
        server.join().unwrap();
    }

    #[test]
    fn full_partition_rate_severs_but_never_wedges() {
        let (target, _server) = echo_server();
        let proxy = FaultProxy::start(ProxyOptions {
            listen: "127.0.0.1:0".parse().unwrap(),
            target,
            seed: 11,
            fault_rate: 1.0,
        })
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        // Either the connection is refused outright or the first frame
        // dies to the partition — both must surface as clean errors.
        let _ = write_frame(&mut stream, b"doomed");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        // Whatever arrived must not decode as the intact frame.
        let mut reader = crate::frame::FrameReader::new();
        reader.feed(&sink);
        if let Ok(Some(payload)) = reader.next_frame() {
            assert_ne!(payload, b"doomed");
        }
        proxy.stop();
    }
}
