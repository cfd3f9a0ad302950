//! A minimal blocking control-plane client (used by `comfortctl`, the
//! examples, and the integration tests).

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use comfort_telemetry::json::{self, Field, JsonValue, Text};
use comfort_telemetry::{Event, RetryPolicy};

use crate::wire::{read_frame, write_frame, Request};

/// One connection to a `comfortd` control socket.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon's socket.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        Ok(Client { stream: UnixStream::connect(socket)? })
    }

    /// Wraps an already-connected stream (e.g. one that has exchanged
    /// hand-rolled frames first).
    pub fn from_stream(stream: UnixStream) -> Client {
        Client { stream }
    }

    /// Connects under an explicit [`RetryPolicy`] (the workspace-wide
    /// transient-fault policy): up to `1 + max_retries` attempts with
    /// exponential backoff between them. The terminal error names how
    /// many retries were burned.
    pub fn connect_with_policy(socket: &Path, policy: RetryPolicy) -> io::Result<Client> {
        match policy.run(|| Client::connect(socket)) {
            Ok((client, _)) => Ok(client),
            Err((e, retries)) => Err(io::Error::new(
                e.kind(),
                format!("{} (after {} connect retries): {e}", socket.display(), retries),
            )),
        }
    }

    /// Connects, retrying with backoff until the daemon binds its socket
    /// (daemon startup is asynchronous). `timeout` bounds the *cumulative
    /// backoff*: the derived policy's sleeps sum to at least `timeout`
    /// before the attempt budget runs out, so a daemon that never appears
    /// fails in bounded time instead of hammering the socket forever.
    pub fn connect_with_retry(socket: &Path, timeout: Duration) -> io::Result<Client> {
        const BASE_MILLIS: u64 = 4;
        // Cumulative backoff of n retries at base b is b * (2^n - 1);
        // pick the smallest n that covers the timeout (capped: ~4 min).
        let want = timeout.as_millis() as u64;
        let mut retries = 0u32;
        while retries < 16 && BASE_MILLIS * ((1u64 << retries) - 1) < want {
            retries += 1;
        }
        let policy = RetryPolicy { max_retries: retries, backoff_base_millis: BASE_MILLIS };
        Client::connect_with_policy(socket, policy)
    }

    /// Sends one request and reads one response frame.
    pub fn request(&mut self, request: &Request) -> io::Result<JsonValue> {
        write_frame(&mut self.stream, &request.to_json())?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))?;
        json::parse(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Streams a campaign's telemetry, invoking `on_event` per event
    /// frame, read through the event codec, until the closing status frame
    /// (returned) arrives. An event's [`Event::to_json`] is the line the
    /// campaign's JSONL telemetry file holds for it.
    pub fn tail(
        &mut self,
        campaign: &str,
        mut on_event: impl FnMut(&Event),
    ) -> io::Result<JsonValue> {
        write_frame(&mut self.stream, &Request::Tail(campaign.to_string()).to_json())?;
        loop {
            let frame = read_frame(&mut self.stream)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))?;
            let bad = |e| io::Error::new(io::ErrorKind::InvalidData, e);
            let v = Text::check(&frame).map_err(bad)?;
            // Event frames have no "ok" key; the closing frame does.
            if v.members().is_some_and(|frame| frame.get("ok").is_some()) {
                return Ok(v.to_value());
            }
            on_event(&Event::read(v).map_err(bad)?);
        }
    }
}
