//! Wire-protocol hardening: the daemon's control socket must survive
//! hostile framing — truncated prefixes, oversized declared lengths,
//! non-UTF-8 payloads, valid frames carrying garbage JSON or nesting no
//! stack holds — with typed errors or clean closes, never a panic, and
//! never a leaked file descriptor.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;

use comfort_service::client::Client;
use comfort_service::daemon::{Daemon, ServiceConfig};
use comfort_service::server::Server;
use comfort_service::wire::{read_frame, write_frame, Request, MAX_FRAME_BYTES};
use comfort_telemetry::json::{self, JsonValue};
use proptest::prelude::*;

fn socket_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-wire-test-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Open file descriptors of this process (Linux). Used to prove hostile
/// connections do not leak sockets on the *client* side of the test and,
/// transitively, that the server loop reaps its per-connection threads
/// (their fds live in this same process).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

/// Deterministic byte soup from a seed.
fn garbage_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        })
        .collect()
}

/// One hostile exchange: write `bytes` raw, optionally read a response,
/// and drop the connection. The server must answer with a well-formed
/// error frame or close cleanly — anything else (a hang, a panic that
/// kills the accept loop) fails the later liveness check.
fn hostile_exchange(socket: &PathBuf, bytes: &[u8]) {
    let Ok(mut stream) = UnixStream::connect(socket) else {
        panic!("server stopped accepting connections");
    };
    stream.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout set");
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    // Drain whatever the server says (error frame or EOF) — the read
    // timeout bounds a wedged server.
    let mut sink = [0u8; 4096];
    let _ = stream.read(&mut sink);
}

#[test]
fn hostile_frames_get_typed_errors_and_leak_no_descriptors() {
    let socket = socket_path("hostile");
    let daemon = Daemon::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let server = Server::serve(daemon.clone(), &socket).expect("server binds");

    // Warm up (lazy allocations settle) before measuring descriptors.
    for _ in 0..3 {
        let mut c = Client::connect(&socket).expect("connect");
        let resp = c.request(&Request::Status(None)).expect("status");
        assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    }
    std::thread::sleep(Duration::from_millis(50));
    let fds_before = open_fds();

    // 1. Oversized declared length: typed InvalidData error frame back.
    {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout set");
        stream.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes()).expect("write prefix");
        let reply = read_frame(&mut stream).expect("server answers before closing");
        let reply = reply.expect("an error frame, not a bare close");
        let v = json::parse(&reply).expect("error frame is valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(
            v.get("error").and_then(JsonValue::as_str).is_some(),
            "error frame names the problem"
        );
    }
    // 2. Truncated length prefix (2 of 4 bytes, then close).
    hostile_exchange(&socket, &[0x00, 0x01]);
    // 3. Truncated payload: declare 100 bytes, send 3, close.
    {
        let mut bytes = 100u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        hostile_exchange(&socket, &bytes);
    }
    // 4. Valid frame, non-UTF-8 payload.
    {
        let mut bytes = 4u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x81]);
        hostile_exchange(&socket, &bytes);
    }
    // 5. Valid frame, valid UTF-8, garbage JSON → parse error frame.
    {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout set");
        write_frame(&mut stream, "this is not json").expect("write");
        let reply = read_frame(&mut stream).expect("server answers").expect("error frame expected");
        let v = json::parse(&reply).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    }
    // 6. Valid JSON that is not a request → typed error naming 'cmd'.
    {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout set");
        write_frame(&mut stream, "{\"not\":\"a request\"}").expect("write");
        let reply = read_frame(&mut stream).expect("server answers").expect("error frame expected");
        let v = json::parse(&reply).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert!(reply.contains("cmd"), "error names the missing field: {reply}");
    }
    // 7. Immediate close with no bytes at all.
    hostile_exchange(&socket, b"");

    // Liveness: after every attack the daemon still serves real clients.
    let mut c = Client::connect(&socket).expect("server still accepts");
    let resp = c.request(&Request::Status(None)).expect("status still works");
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    drop(c);

    // Descriptor conservation: connections come and go, fds do not
    // accumulate. Allow a little slack for transient accept-loop state.
    std::thread::sleep(Duration::from_millis(100));
    let fds_after = open_fds();
    assert!(
        fds_after <= fds_before + 2,
        "descriptor leak: {fds_before} fds before the attacks, {fds_after} after"
    );

    server.stop();
    daemon.drain();
    let _ = std::fs::remove_file(&socket);
}

/// A `comfortd --socket` process, killed if the test ends before it
/// drains.
struct DaemonProcess(Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn deeply_nested_frames_are_refused_and_the_daemon_keeps_serving() {
    // A status request whose campaign opens 100,000 arrays. A reader that
    // recursed once per bracket would overflow its connection thread's
    // stack and abort the whole daemon, so this runs a real `comfortd`.
    let socket = socket_path("nesting");
    let daemon = Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .args(["--socket", &socket.display().to_string(), "--workers", "1"])
        .spawn()
        .expect("spawn comfortd");
    let mut daemon = DaemonProcess(daemon);
    let mut client = Client::connect_with_retry(&socket, Duration::from_secs(10))
        .expect("comfortd binds its socket");
    let resp = client.request(&Request::Status(None)).expect("status before");
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));

    let frame = format!("{{\"cmd\":\"status\",\"campaign\":{}", "[".repeat(100_000));
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    write_frame(&mut stream, &frame).expect("write the nested frame");
    let reply = read_frame(&mut stream).expect("the daemon answers").expect("an error frame");
    let v = json::parse(&reply).expect("valid JSON");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    let error = v.get("error").and_then(JsonValue::as_str).unwrap_or_default();
    assert!(error.contains("nesting deeper than"), "the error names the depth: {reply}");

    let resp = client.request(&Request::Status(None)).expect("status after");
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    let drained = client.request(&Request::Drain).expect("drain");
    assert_eq!(drained.get("drained").and_then(JsonValue::as_bool), Some(true));
    let status = daemon.0.wait().expect("comfortd exits after the drain");
    assert!(status.success(), "comfortd exit: {status:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_frame` over arbitrary byte soup never panics: every outcome
    /// is a parsed frame, a typed error, or a clean EOF.
    #[test]
    fn read_frame_never_panics_on_byte_soup(seed in 0u64..100_000) {
        let len = (seed % 512) as usize;
        let bytes = garbage_bytes(seed, len);
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Ok(Some(payload)) => prop_assert!(payload.len() <= MAX_FRAME_BYTES as usize),
            Ok(None) => {}
            Err(e) => prop_assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                ),
                "unexpected error kind {:?}",
                e.kind()
            ),
        }
    }

    /// Round trip survives every payload that fits a frame, including
    /// embedded NULs, quotes, and multi-byte UTF-8.
    #[test]
    fn frames_round_trip_any_utf8_payload(seed in 0u64..100_000) {
        let raw = garbage_bytes(seed, (seed % 256) as usize);
        let payload: String = String::from_utf8_lossy(&raw).into_owned();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        prop_assert_eq!(read_frame(&mut cursor).expect("read"), Some(payload));
        prop_assert_eq!(read_frame(&mut cursor).expect("eof"), None);
    }

    /// A declared length over the cap is rejected *before* any payload
    /// read — the typed error fires even when the payload never arrives.
    #[test]
    fn oversized_declarations_fail_before_payload_io(extra in 1u32..1024) {
        let declared = MAX_FRAME_BYTES.saturating_add(extra);
        let bytes = declared.to_be_bytes().to_vec(); // no payload at all
        let err = read_frame(&mut std::io::Cursor::new(bytes)).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Hostile byte soup thrown at a *live* server socket: the accept
    /// loop answers or closes, never wedges, and a well-formed request
    /// still succeeds afterwards. (One shared server across cases — a
    /// panic in any connection thread would poison the later liveness
    /// checks.)
    #[test]
    fn live_server_survives_byte_soup(seed in 0u64..100_000) {
        static SERVER: std::sync::OnceLock<(std::sync::Arc<Daemon>, Server, PathBuf)> =
            std::sync::OnceLock::new();
        let (daemon, _server, socket) = SERVER.get_or_init(|| {
            let socket = socket_path("soup");
            let daemon = Daemon::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
            let server = Server::serve(daemon.clone(), &socket).expect("server binds");
            (daemon, server, socket)
        });
        let len = (seed % 96) as usize;
        hostile_exchange(socket, &garbage_bytes(seed, len));
        let mut c = Client::connect(socket).expect("server still accepts");
        let resp = c.request(&Request::Status(None)).expect("status still works");
        prop_assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
        let _ = daemon; // kept alive for the whole sweep
    }
}
