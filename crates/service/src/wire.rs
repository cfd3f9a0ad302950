//! The control-plane wire protocol.
//!
//! Frames are length-prefixed JSON: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Requests and responses are
//! single frames; `tail` responses are a frame *stream* (one frame per
//! telemetry event, then a closing `{"done":true}` frame). The length
//! prefix keeps framing trivial for non-line-oriented payloads and makes
//! oversized or garbage input fail fast instead of deadlocking a read
//! loop.

use std::io::{self, Read, Write};

use comfort_telemetry::json::{self, Field, JsonValue};
use comfort_telemetry::json_record;

use crate::spec::CampaignSpec;

/// Upper bound on a single frame's payload (a submit spec is < 1 KiB;
/// anything near this is garbage or an attack, not a request).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A control-plane request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign for execution.
    Submit(Box<CampaignSpec>),
    /// Status of one campaign (`Some(id)`) or the whole daemon (`None`).
    Status(Option<String>),
    /// Cancel a campaign by id.
    Cancel(String),
    /// Begin a graceful drain: stop leasing, finish in-flight shards,
    /// checkpoint, exit.
    Drain,
    /// Stream a campaign's live JSONL telemetry.
    Tail(String),
}

/// A request's frame, `{campaign?, cmd, spec?}`, in key order.
struct Frame {
    campaign: Option<String>,
    cmd: String,
    spec: Option<CampaignSpec>,
}

json_record!(Frame { campaign, cmd, spec });

impl Request {
    /// Renders the request as one JSON frame payload.
    pub fn to_json(&self) -> String {
        let (cmd, campaign, spec) = match self {
            Request::Submit(spec) => ("submit", None, Some(CampaignSpec::clone(spec))),
            Request::Status(campaign) => ("status", campaign.clone(), None),
            Request::Cancel(id) => ("cancel", Some(id.clone()), None),
            Request::Drain => ("drain", None, None),
            Request::Tail(id) => ("tail", Some(id.clone()), None),
        };
        let mut out = String::with_capacity(64);
        Frame { campaign, cmd: cmd.to_string(), spec }.write(&mut out);
        out
    }

    /// Parses a request frame.
    pub fn from_json_str(text: &str) -> Result<Request, String> {
        let Frame { campaign, cmd, spec } = json::read(text)?;
        let no_campaign = "field 'campaign' is missing";
        match cmd.as_str() {
            "submit" => Ok(Request::Submit(Box::new(spec.ok_or("field 'spec' is missing")?))),
            "status" => Ok(Request::Status(campaign)),
            "cancel" => Ok(Request::Cancel(campaign.ok_or(no_campaign)?)),
            "drain" => Ok(Request::Drain),
            "tail" => Ok(Request::Tail(campaign.ok_or(no_campaign)?)),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// Builds an error response payload (`ok:false`), optionally carrying the
/// typed backpressure fields (`reason`, `retry_after_millis`).
pub fn error_response(
    error: &str,
    reason: Option<&str>,
    retry_after_millis: Option<u64>,
) -> String {
    let mut pairs =
        vec![("ok", JsonValue::Bool(false)), ("error", JsonValue::String(error.to_string()))];
    if let Some(reason) = reason {
        pairs.push(("reason", JsonValue::String(reason.to_string())));
    }
    if let Some(ms) = retry_after_millis {
        pairs.push(("retry_after_millis", JsonValue::Int(ms as i128)));
    }
    JsonValue::object(pairs).to_json()
}

/// Builds a success response payload (`ok:true` plus `extra` fields).
pub fn ok_response<K: Into<String>>(extra: impl IntoIterator<Item = (K, JsonValue)>) -> String {
    let mut pairs: Vec<(String, JsonValue)> = vec![("ok".to_string(), JsonValue::Bool(true))];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.into(), v)));
    JsonValue::object(pairs).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").expect("write");
        write_frame(&mut buf, "").expect("write empty");
        write_frame(&mut buf, "{\"k\":1}").expect("write json");
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some("{\"k\":1}"));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn oversized_and_torn_frames_fail_fast() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A frame truncated mid-payload is an error, not a silent None.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(Box::new(CampaignSpec::for_tenant("acme"))),
            Request::Status(None),
            Request::Status(Some("c-0001".to_string())),
            Request::Cancel("c-0002".to_string()),
            Request::Drain,
            Request::Tail("c-0003".to_string()),
        ];
        for req in reqs {
            let back = Request::from_json_str(&req.to_json()).expect("parse");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn bad_requests_name_the_problem() {
        assert!(Request::from_json_str("{}").unwrap_err().contains("cmd"));
        assert!(Request::from_json_str(r#"{"cmd":"zap"}"#).unwrap_err().contains("zap"));
        assert!(Request::from_json_str(r#"{"cmd":"cancel"}"#).unwrap_err().contains("campaign"));
        assert!(Request::from_json_str(r#"{"cmd":"submit"}"#).unwrap_err().contains("spec"));
        let err = Request::from_json_str(r#"{"cmd":"submit","spec":{"tenant":""}}"#).unwrap_err();
        assert!(err.contains("'spec.tenant'"), "{err}");
        let err = Request::from_json_str(r#"{"cmd":"submit","spec":7}"#).unwrap_err();
        assert!(err.contains("'spec' must be an object"), "{err}");
    }

    #[test]
    fn responses_carry_typed_backpressure() {
        let text = error_response("queue full", Some("queue_full"), Some(250));
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("reason").and_then(JsonValue::as_str), Some("queue_full"));
        assert_eq!(v.get("retry_after_millis").and_then(JsonValue::as_u64), Some(250));
        let text = ok_response([("campaign", JsonValue::String("c-1".to_string()))]);
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("campaign").and_then(JsonValue::as_str), Some("c-1"));
    }
}
