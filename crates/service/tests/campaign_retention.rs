//! A finished campaign releases what only a live campaign needs: its
//! journal and telemetry files are closed and its shard slots dropped, and
//! only the `max_active` most recently finished campaigns keep their event
//! tail. Every campaign keeps its status, checksum and final report, and an
//! evicted tail answers a typed `expired`, over the API and the socket.
//!
//! One test in its own binary: it counts this process's open file
//! descriptors, which concurrent tests would disturb.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use comfort_core::checkpoint::report_checksum;
use comfort_core::session::CampaignSession;
use comfort_lm::GeneratorConfig;
use comfort_service::client::Client;
use comfort_service::daemon::{CampaignState, Daemon, ServiceConfig, TailError};
use comfort_service::metrics::MetricsSnapshot;
use comfort_service::server::Server;
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::json::JsonValue;
use comfort_telemetry::{MemorySink, SinkHandle};

/// Campaigns kept with their tails; the test serves three more.
const KEEP: usize = 2;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-retention-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A small two-shard campaign with a journal and a telemetry file.
fn journalled_spec(k: usize) -> CampaignSpec {
    CampaignSpec {
        tenant: format!("tenant-{}", k % 2),
        seed: Some(70 + k as u64),
        corpus_programs: Some(40),
        lm: Some(GeneratorConfig { order: 6, bpe_merges: 100, top_k: 8, max_tokens: 400 }),
        max_cases: Some(20),
        shard_cases: Some(10),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        checkpoint: Some(temp_path(&format!("{k}.ckpt")).display().to_string()),
        telemetry: Some(temp_path(&format!("{k}.jsonl")).display().to_string()),
        ..CampaignSpec::default()
    }
}

fn library_checksum(spec: &CampaignSpec) -> u64 {
    let mut bare = spec.clone();
    bare.checkpoint = None;
    bare.telemetry = None;
    let config = bare.build_config().expect("spec builds a config");
    report_checksum(&CampaignSession::new(config).run_with_threads(1).expect("library run"))
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// The open-fd count once it is back to `baseline`, or after ten seconds.
/// A campaign closes its files just after it turns terminal, outside its
/// state lock, and they close last in its retirement.
fn open_fds_settled(baseline: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = open_fds();
        if open == baseline || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn finished_campaigns_close_files_and_keep_only_recent_tails() {
    let service_events = MemorySink::new();
    let daemon = Daemon::start(ServiceConfig {
        workers: 2,
        max_active: KEEP,
        tenant_quota: KEEP,
        sink: SinkHandle::new(service_events.clone()),
        ..ServiceConfig::default()
    });
    let socket = temp_path("ctl.sock");
    let server = Server::serve(daemon.clone(), &socket).expect("bind control socket");
    let baseline = open_fds();

    let mut finished = Vec::new();
    for k in 0..KEEP + 3 {
        let spec = journalled_spec(k);
        let id = daemon.submit(&spec).expect("admitted");
        let status = daemon.wait(&id, Duration::from_secs(300)).expect("campaign exists");
        assert_eq!(status.state, CampaignState::Completed, "campaign {id}");
        assert_eq!(status.checksum, Some(library_checksum(&spec)), "campaign {id}");
        // Retirement closes the journal and the telemetry file.
        assert_eq!(open_fds_settled(baseline), baseline, "campaign {id} left files open");
        let (tail, terminal) = daemon.tail_events(&id, 0).expect("a fresh tail is kept");
        assert!(terminal && !tail.is_empty());
        finished.push((id, spec, status, tail.len()));
    }

    let (expired, kept) = finished.split_at(finished.len() - KEEP);
    for (id, _, status, _) in expired {
        assert_eq!(daemon.tail_events(id, 0), Err(TailError::Expired), "campaign {id}");
        // Everything but the tail survives eviction.
        assert_eq!(daemon.campaign_status(id).as_ref(), Some(status));
        let (_, checksum) = daemon.final_report(id).expect("final report kept");
        assert_eq!(Some(checksum), status.checksum);
    }
    for (id, _, status, len) in kept {
        let (tail, terminal) = daemon.tail_events(id, 0).expect("recent tail kept");
        assert!(terminal);
        assert_eq!(tail.len(), *len, "campaign {id} tail lost events");
        assert_eq!(daemon.campaign_status(id).as_ref(), Some(status));
    }
    assert_eq!(daemon.tail_events("c-9999", 0), Err(TailError::NotFound));

    // Over the socket: a kept tail streams in full, an evicted one answers
    // the typed `expired` error.
    let mut client = Client::connect(&socket).expect("connect");
    let (id, _, _, len) = &kept[0];
    let mut streamed = 0;
    let closing = client.tail(id, |_| streamed += 1).expect("tail streams");
    assert_eq!(closing.get("done").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(streamed, *len);
    let (id, ..) = &expired[0];
    let closing = client.tail(id, |_| panic!("an expired tail streams nothing")).expect("answer");
    assert_eq!(closing.get("reason").and_then(JsonValue::as_str), Some("expired"));
    drop(client);

    let from_events = MetricsSnapshot::from_events(service_events.events().iter());
    let live = daemon.metrics();
    assert_eq!(from_events, live, "event-derived counters diverge from live metrics");
    live.leases_conserved(daemon.leases_held()).expect("lease ledger conserved");
    live.campaigns_conserved(daemon.campaigns_active()).expect("campaign ledger conserved");
    assert_eq!(live.campaigns_completed, finished.len() as u64);

    daemon.drain();
    server.stop();
    for (_, spec, ..) in &finished {
        for path in [&spec.checkpoint, &spec.telemetry].into_iter().flatten() {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(format!("{path}.spec.json"));
        }
    }
}
