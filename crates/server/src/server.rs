//! The TCP accept loop: thread-per-connection sessions over one shared
//! database, with a graceful shutdown path.
//!
//! Concurrency model (the epoch-snapshot contract):
//!
//! - each connection pins a [`DbSnapshot`](aggprov_engine::DbSnapshot)
//!   at session start — readers prepare and execute entirely against
//!   that frozen epoch, **lock-free**;
//! - the only lock is a [`RwLock`] around the live database whose read
//!   critical section is a single `Arc` bump (`snapshot()`), and whose
//!   write section is the single writer's copy-on-write mutation;
//! - `shutdown` flips a flag, wakes the blocking accept loop with a
//!   self-connection, shuts down every open socket (readers see EOF),
//!   and joins all session threads before returning;
//! - a session's registered socket handle lives exactly as long as the
//!   session: its thread drops the entry on exit, so closed connections
//!   hold no file descriptors, and a failing `accept` (descriptor
//!   exhaustion) backs off instead of spinning.

use crate::session::{error_response, Control, Session};
use crate::Json;
use aggprov_engine::ProvDb;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps after a failed `accept` before trying
/// again: long enough not to spin a core while the process is out of file
/// descriptors, short enough that service resumes as soon as one frees.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The longest request line the server reads, in bytes (the newline not
/// counted). A peer that sends more without a newline gets one error
/// frame and is disconnected, instead of growing a buffer until the
/// process is killed. Far above any request a client has reason to send:
/// the smoke client's 5 000-level nested query is about 130 KB.
pub const MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// The sockets of the sessions still running, by connection number.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A running server bound to a local address.
pub struct Server {
    listener: TcpListener,
    db: Arc<RwLock<ProvDb>>,
    stop: Arc<AtomicBool>,
    /// Live connection sockets, shut down on stop so blocked readers
    /// wake with EOF instead of hanging the drain. Each entry is removed
    /// by its session thread on exit.
    conns: Conns,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick) over a fresh
    /// provenance database.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Server::bind_with(addr, ProvDb::new())
    }

    /// Binds to `addr` over a pre-loaded database.
    pub fn bind_with(addr: impl ToSocketAddrs, db: ProvDb) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            db: Arc::new(RwLock::new(db)),
            stop: Arc::new(AtomicBool::new(false)),
            conns: Conns::default(),
        })
    }

    /// The bound address (for port-0 binds).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.listener.local_addr().ok(),
            conns: Arc::clone(&self.conns),
        }
    }

    /// Serves until `shutdown` (an op or a [`ShutdownHandle`]) stops the
    /// loop, then drains: no new connections, open sockets shut down,
    /// all session threads joined.
    pub fn serve(self) -> std::io::Result<()> {
        let shutdown = self.shutdown_handle();
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        for (id, incoming) in (0u64..).zip(self.listener.incoming()) {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(stream) => stream,
                // A refused/reset handshake is the peer's problem; running
                // out of descriptors is ours, and retrying at once would
                // fail the same way until a session ends.
                Err(_) => {
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
            };
            // Request/response lines are small and latency-bound: send
            // each as soon as it is written. Best effort — a socket that
            // refuses the option still works.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                lock(&self.conns).insert(id, clone);
            }
            let db = Arc::clone(&self.db);
            let shutdown = shutdown.clone();
            let conns = Arc::clone(&self.conns);
            sessions.push(std::thread::spawn(move || {
                serve_connection(stream, db, shutdown);
                lock(&conns).remove(&id);
            }));
            sessions.retain(|handle| !handle.is_finished());
        }
        shutdown.stop();
        for handle in sessions {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Stops a [`Server`] from outside its accept loop.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: Option<std::net::SocketAddr>,
    conns: Conns,
}

impl ShutdownHandle {
    /// Flips the stop flag, wakes the accept loop, and unblocks every
    /// open session socket. Idempotent.
    pub fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the flag.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect(addr);
        }
        for (_, conn) in lock(&self.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// True once `stop` has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Locks the connection table; a poisoned lock still holds valid sockets.
fn lock(conns: &Conns) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connection's loop: read a line, handle, write a line. Request
/// failures become error responses; I/O failures, invalid UTF-8 and a
/// line longer than [`MAX_REQUEST_BYTES`] close the connection; nothing
/// here can take the process down.
fn serve_connection(stream: TcpStream, db: Arc<RwLock<ProvDb>>, shutdown: ShutdownHandle) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut session = Session::new(db);
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            let message = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
            let _ = error_response(Json::Null, &message).write_line(&mut writer);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, control) = session.handle_line(line);
        if response.write_line(&mut writer).is_err() {
            break;
        }
        match control {
            Control::Continue => {}
            Control::Close => break,
            Control::Shutdown => {
                shutdown.stop();
                break;
            }
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Both);
}
