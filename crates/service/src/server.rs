//! The Unix-socket control plane.
//!
//! One accept loop, one thread per connection, length-prefixed JSON
//! frames ([`wire`](crate::wire)). Requests map one-to-one onto
//! [`Daemon`](crate::daemon::Daemon) methods; `tail` turns the connection
//! into a frame stream of the campaign's live telemetry and closes with a
//! `done` frame once the campaign is terminal. A `drain` request performs
//! the full graceful drain *before* answering, so its `ok` response means
//! "checkpointed and stopped", then flags the server to shut down.

use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use comfort_telemetry::json::JsonValue;

use crate::daemon::Daemon;
use crate::wire::{error_response, ok_response, read_frame, write_frame, Request};

/// A running control-plane server bound to a Unix socket.
pub struct Server {
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    socket: PathBuf,
}

impl Server {
    /// Binds `socket` and starts serving `daemon`. An existing socket file
    /// is replaced (stale sockets from a SIGKILLed daemon would otherwise
    /// wedge every restart).
    pub fn serve(daemon: Arc<Daemon>, socket: &Path) -> io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("comfortd-accept".to_string())
                .spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let daemon = Arc::clone(&daemon);
                            let stop = Arc::clone(&stop);
                            let _ = std::thread::Builder::new()
                                .name("comfortd-conn".to_string())
                                .spawn(move || handle_connection(stream, &daemon, &stop));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => return,
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(Server { stop, accept: Some(accept), socket: socket.to_path_buf() })
    }

    /// `true` once the server was asked to stop (e.g. by a drain request).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting, joins the accept loop, and removes the socket
    /// file. In-flight connection handlers finish on their own.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Blocks until something (a drain request, [`Server::stop`] from
    /// another handle) flags the server down.
    pub fn wait(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

fn handle_connection(mut stream: UnixStream, daemon: &Arc<Daemon>, stop: &Arc<AtomicBool>) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Malformed framing (oversized declaration, non-UTF-8
                // payload): answer with a typed error so the peer can tell
                // a protocol bug from a dead daemon, then drop the
                // connection — the stream position is unrecoverable.
                let _ = write_frame(
                    &mut stream,
                    &error_response(&e.to_string(), Some("bad_frame"), None),
                );
                return;
            }
            Err(_) => return,
        };
        let request = match Request::from_json_str(&frame) {
            Ok(request) => request,
            Err(e) => {
                let _ = write_frame(&mut stream, &error_response(&e, Some("bad_request"), None));
                continue;
            }
        };
        match request {
            Request::Submit(spec) => {
                let payload = match daemon.submit(&spec) {
                    Ok(id) => ok_response([("campaign", JsonValue::String(id))]),
                    Err(r) => {
                        error_response(&r.message, Some(&r.reason), Some(r.retry_after_millis))
                    }
                };
                let _ = write_frame(&mut stream, &payload);
            }
            Request::Status(Some(id)) => {
                let payload = match daemon.campaign_status(&id) {
                    Some(status) => {
                        let status =
                            comfort_telemetry::json::parse(&status.to_json()).expect("valid JSON");
                        ok_response([("campaign", status)])
                    }
                    None => error_response(&format!("no campaign '{id}'"), Some("not_found"), None),
                };
                let _ = write_frame(&mut stream, &payload);
            }
            Request::Status(None) => {
                let campaigns: Vec<JsonValue> = daemon
                    .status()
                    .iter()
                    .map(|s| comfort_telemetry::json::parse(&s.to_json()).expect("valid JSON"))
                    .collect();
                let payload = ok_response([
                    ("campaigns", JsonValue::Array(campaigns)),
                    ("draining", JsonValue::Bool(daemon.is_draining())),
                    ("occupancy", JsonValue::String(daemon.occupancy())),
                ]);
                let _ = write_frame(&mut stream, &payload);
            }
            Request::Cancel(id) => {
                let payload = if daemon.cancel(&id) {
                    ok_response([("cancelled", JsonValue::String(id))])
                } else {
                    error_response(&format!("no campaign '{id}'"), Some("not_found"), None)
                };
                let _ = write_frame(&mut stream, &payload);
            }
            Request::Drain => {
                // Drain fully — stop leasing, finish in-flight shards,
                // checkpoint, stop the pool — *then* answer, so the ok
                // frame certifies a clean stop. Finally flag the server
                // down so the daemon process can exit 0.
                daemon.drain();
                let _ =
                    write_frame(&mut stream, &ok_response([("drained", JsonValue::Bool(true))]));
                stop.store(true, Ordering::SeqCst);
                return;
            }
            Request::Tail(id) => {
                if tail_stream(&mut stream, daemon, &id).is_err() {
                    return; // client went away
                }
            }
        }
    }
}

/// Streams a campaign's buffered telemetry as one frame per event, then a
/// closing `{"done":true}` frame once the campaign is terminal and fully
/// streamed. An unknown campaign answers `not_found`; a finished one whose
/// tail was evicted answers `expired`.
fn tail_stream(
    stream: &mut (impl io::Read + Write),
    daemon: &Arc<Daemon>,
    id: &str,
) -> io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (events, terminal) = match daemon.tail_events(id, cursor) {
            Ok(tail) => tail,
            Err(e) => {
                let message = format!("campaign '{id}': {e}");
                write_frame(stream, &error_response(&message, Some(e.reason()), None))?;
                return Ok(());
            }
        };
        let drained = events.is_empty();
        for event in events {
            write_frame(stream, &event.to_json())?;
            cursor += 1;
        }
        if terminal && drained {
            write_frame(stream, &ok_response([("done", JsonValue::Bool(true))]))?;
            return Ok(());
        }
        if drained {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
