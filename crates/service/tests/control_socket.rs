//! End-to-end control-plane test: a daemon behind a Unix-socket server,
//! driven only through the wire protocol ([`Client`]) — submit, status,
//! tail streaming, cancel, and a drain whose `ok` certifies a clean stop.

use std::path::PathBuf;
use std::time::Duration;

use comfort_lm::GeneratorConfig;
use comfort_service::client::Client;
use comfort_service::daemon::{Daemon, ServiceConfig};
use comfort_service::server::Server;
use comfort_service::spec::CampaignSpec;
use comfort_service::wire::Request;
use comfort_telemetry::json::JsonValue;
use comfort_telemetry::{MemorySink, SinkHandle};

fn socket_path(name: &str) -> PathBuf {
    // Unix socket paths are capped around 108 bytes; keep it short.
    let mut p = std::env::temp_dir();
    p.push(format!("cmf-{}-{name}.sock", std::process::id()));
    p
}

fn small_spec(tenant: &str, seed: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: tenant.to_string(),
        seed: Some(seed),
        corpus_programs: Some(60),
        lm: Some(GeneratorConfig { order: 6, bpe_merges: 120, top_k: 8, max_tokens: 400 }),
        max_cases: Some(30),
        shard_cases: Some(15),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        ..CampaignSpec::default()
    }
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

#[test]
fn submit_status_tail_cancel_and_drain_over_the_socket() {
    let socket = socket_path("e2e");
    let daemon = Daemon::start(ServiceConfig {
        workers: 2,
        sink: SinkHandle::new(MemorySink::new()),
        ..ServiceConfig::default()
    });
    let server = Server::serve(daemon.clone(), &socket).expect("bind control socket");

    let mut client =
        Client::connect_with_retry(&socket, Duration::from_secs(5)).expect("client connects");

    // Submit two campaigns for different tenants over the wire, the first
    // teeing its telemetry into a JSONL file.
    let telemetry = std::env::temp_dir().join(format!("cmf-{}-e2e.jsonl", std::process::id()));
    let spec =
        CampaignSpec { telemetry: Some(telemetry.display().to_string()), ..small_spec("acme", 91) };
    let submit = client.request(&Request::Submit(Box::new(spec))).expect("submit round-trips");
    assert!(ok(&submit), "submit rejected: {}", submit.to_json());
    let id = submit
        .get("campaign")
        .and_then(JsonValue::as_str)
        .expect("submit returns the campaign id")
        .to_string();
    let submit2 = client
        .request(&Request::Submit(Box::new(small_spec("umbrella", 92))))
        .expect("second submit round-trips");
    assert!(ok(&submit2));
    let id2 = submit2.get("campaign").and_then(JsonValue::as_str).unwrap().to_string();

    // Unknown-campaign errors are typed, not connection failures.
    let missing = client.request(&Request::Status(Some("c-9999".to_string()))).unwrap();
    assert!(!ok(&missing));
    assert_eq!(missing.get("reason").and_then(JsonValue::as_str), Some("not_found"));

    // Cancel the second campaign over the wire.
    let cancelled = client.request(&Request::Cancel(id2.clone())).unwrap();
    assert!(ok(&cancelled));

    // `tail` streams the first campaign's live telemetry until terminal;
    // the closing frame is `{"ok":true,"done":true}`.
    let mut streamed = Vec::new();
    let closing = client.tail(&id, |event| streamed.push(event.to_json())).expect("tail streams");
    assert!(ok(&closing));
    assert_eq!(closing.get("done").and_then(JsonValue::as_bool), Some(true));
    assert!(!streamed.is_empty(), "tail should have streamed campaign events");

    // Status over the wire: both campaigns listed, the occupancy table
    // rendered server-side.
    let status = client.request(&Request::Status(None)).expect("status round-trips");
    assert!(ok(&status));
    let campaigns = match status.get("campaigns") {
        Some(JsonValue::Array(items)) => items.clone(),
        other => panic!("campaigns must be an array, got {other:?}"),
    };
    assert_eq!(campaigns.len(), 2);
    let occupancy =
        status.get("occupancy").and_then(JsonValue::as_str).expect("occupancy rendered");
    assert!(occupancy.contains("Service occupancy"));
    assert!(occupancy.contains(&id));

    // Per-campaign status of the completed campaign carries its checksum.
    daemon.wait(&id, Duration::from_secs(300));
    let one = client.request(&Request::Status(Some(id.clone()))).unwrap();
    assert!(ok(&one));
    let campaign = one.get("campaign").expect("campaign object");
    assert_eq!(campaign.get("state").and_then(JsonValue::as_str), Some("completed"));
    assert!(campaign.get("checksum").is_some(), "completed status carries the checksum");

    // Drain: the ok frame arrives only after the daemon fully stopped,
    // and it flags the server down (the daemon main loop's exit signal).
    daemon.wait(&id2, Duration::from_secs(300));
    let drained = client.request(&Request::Drain).expect("drain round-trips");
    assert!(ok(&drained));
    assert_eq!(drained.get("drained").and_then(JsonValue::as_bool), Some(true));
    assert!(daemon.is_draining());
    server.wait();
    server.stop();
    assert!(!socket.exists(), "socket file removed on stop");

    // The tail streamed the lines the telemetry file holds, byte for byte.
    let file = std::fs::read_to_string(&telemetry).expect("telemetry file written");
    assert_eq!(file.lines().collect::<Vec<_>>(), streamed);
    let _ = std::fs::remove_file(&telemetry);
}

#[test]
fn malformed_frames_get_typed_errors_not_disconnects() {
    let socket = socket_path("bad");
    let daemon = Daemon::start(ServiceConfig {
        workers: 1,
        sink: SinkHandle::new(MemorySink::new()),
        ..ServiceConfig::default()
    });
    let server = Server::serve(daemon.clone(), &socket).expect("bind control socket");

    {
        use std::io::{Read, Write};
        let mut stream = {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match std::os::unix::net::UnixStream::connect(&socket) {
                    Ok(s) => break s,
                    Err(e) if std::time::Instant::now() >= deadline => {
                        panic!("cannot connect: {e}")
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        };
        // A syntactically valid frame holding garbage JSON: the server
        // answers with a typed bad_request error and keeps the
        // connection open for the next frame.
        let payload = b"this is not json";
        stream.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(payload).unwrap();
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        stream.read_exact(&mut body).unwrap();
        let response =
            comfort_telemetry::json::parse(std::str::from_utf8(&body).expect("utf-8 response"))
                .expect("JSON response");
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(response.get("reason").and_then(JsonValue::as_str), Some("bad_request"));

        // The same connection still serves well-formed requests.
        let mut client = Client::from_stream(stream);
        let status = client.request(&Request::Status(None)).expect("connection survived");
        assert!(ok(&status));
    }

    daemon.drain();
    server.stop();
}
