//! Golden-frame tests for the `vgld` wire protocol, end to end: raw bytes
//! are written to a live daemon's socket (no [`vgl::serve::Client`]
//! convenience layer in the loop) and the exact response frames are pinned.
//! Every byte sequence here travels through the real framing code —
//! `read_frame` on the daemon's connection reader, the request decoder,
//! and `write_frame` on the way back.
//!
//! The corpus covers the four frame classes the serving contract names:
//! valid frames, oversized-length frames, frames split across many short
//! writes, and garbage payloads. Error responses are fully deterministic,
//! so they are compared against exact expected JSON; success responses pin
//! every stable field and the full key set (only `compile_us` and
//! `code_size` carry build-dependent numbers).

mod common;

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use vgl::proto::{read_frame, write_frame, Request, MAX_FRAME};
use vgl::serve::{with_daemon, ServeConfig};
use vgl_obs::json::Json;

const PROGRAM: &str = "def main() -> int { return 40 + 2; }";

/// A length-prefixed frame around arbitrary payload bytes (which need not
/// be valid UTF-8 or JSON — that is the point).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Connects, writes `bytes` in one shot, and reads a single response frame.
fn roundtrip_raw(path: &Path, bytes: &[u8]) -> Json {
    let stream = UnixStream::connect(path).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    (&stream).write_all(bytes).expect("writes");
    read_frame(&mut &stream).expect("response reads").expect("one response frame")
}

/// The `{"ok":false,"error":…}` object `proto::error_response` renders —
/// the exact shape every protocol-level failure must come back as.
fn error_json(message: &str) -> Json {
    let mut o = Json::object();
    o.set("ok", Json::Bool(false));
    o.set("error", Json::from(message));
    o
}

#[test]
fn golden_valid_run_frame() {
    with_daemon(ServeConfig::default(), |path| {
        let payload = format!(
            r#"{{"cmd":"run","session":"golden","source":{}}}"#,
            Json::from(PROGRAM).render()
        );
        let resp = roundtrip_raw(path, &frame(payload.as_bytes()));
        // Every stable field, exactly.
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("compiled"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
        assert_eq!(resp.get("output").and_then(Json::as_str), Some(""));
        assert_eq!(resp.get("methods").and_then(Json::as_u64), Some(1));
        let warm = resp.get("warm").expect("warm block");
        assert_eq!(warm.get("artifact_hit"), Some(&Json::Bool(false)));
        assert_eq!(warm.get("methods_spliced").and_then(Json::as_u64), Some(0));
        // The full key set is part of the contract: clients match on it.
        let Json::Obj(entries) = &resp else { panic!("response is an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["ok", "compiled", "code_size", "methods", "compile_us", "warm", "result", "output"],
            "response key set and order are pinned"
        );
    });
}

#[test]
fn golden_valid_check_frame_with_default_session() {
    with_daemon(ServeConfig::default(), |path| {
        // No `session` field: the decoder must default it, not error.
        let payload = r#"{"cmd":"check","source":"def main() -> int { return nope; }"}"#;
        let resp = roundtrip_raw(path, &frame(payload.as_bytes()));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let errors = resp
            .get("report")
            .and_then(|r| r.get("errors"))
            .and_then(Json::as_u64)
            .expect("error count");
        assert!(errors >= 1, "unknown identifier is a diagnostic: {resp}");
    });
}

#[test]
fn golden_oversized_length_prefix() {
    with_daemon(ServeConfig::default(), |path| {
        // A 4 GiB length prefix: rejected before any allocation, with the
        // bound spelled out. The daemon closes only this connection.
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        let resp = roundtrip_raw(path, &bytes);
        assert_eq!(
            resp,
            error_json(&format!(
                "frame of 4294967295 bytes exceeds the {MAX_FRAME}-byte limit"
            ))
        );
        // One byte over the bound is also rejected…
        let resp = roundtrip_raw(path, &(((MAX_FRAME + 1) as u32).to_be_bytes())[..]);
        assert_eq!(
            resp,
            error_json(&format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                MAX_FRAME + 1
            ))
        );
        // …and the daemon still serves the next client.
        let resp = roundtrip_raw(
            path,
            &frame(
                Request::Run { session: "after".into(), source: PROGRAM.into() }
                    .to_json()
                    .render()
                    .as_bytes(),
            ),
        );
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
    });
}

#[test]
fn golden_garbage_payloads() {
    with_daemon(ServeConfig::default(), |path| {
        // Valid frame, invalid UTF-8 payload.
        let resp = roundtrip_raw(path, &frame(&[0xff, 0xfe, 0x80]));
        assert_eq!(resp, error_json("frame payload is not utf-8"));

        // Valid frame, valid UTF-8, not JSON.
        let resp = roundtrip_raw(path, &frame(b"?not json"));
        let err = resp.get("error").and_then(Json::as_str).expect("error text");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(
            err.starts_with("frame payload is not json: json error at byte 0"),
            "parse failures name the byte offset: {err}"
        );

        // Valid JSON, invalid request — one exact message per defect.
        let cases = [
            (r#"{"cmd":"warp"}"#, "invalid request: unknown cmd 'warp'"),
            (r#"{"session":"s"}"#, "invalid request: missing field 'cmd'"),
            (r#"{"cmd":"compile"}"#, "invalid request: missing field 'source'"),
            (
                r#"{"cmd":"run","session":7,"source":"x"}"#,
                "invalid request: field 'session' must be a string",
            ),
            (r#"{"cmd":"run","source":[]}"#, "invalid request: field 'source' must be a string"),
        ];
        // Invalid *requests* (unlike invalid frames) keep the connection:
        // run the whole table plus a healthy request on one stream.
        let stream = UnixStream::connect(path).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        for (payload, want) in cases {
            (&stream).write_all(&frame(payload.as_bytes())).expect("writes");
            let resp =
                read_frame(&mut &stream).expect("response reads").expect("response frame");
            assert_eq!(resp, error_json(want), "payload: {payload}");
        }
        write_frame(
            &mut &stream,
            &Request::Run { session: "still-alive".into(), source: PROGRAM.into() }.to_json(),
        )
        .expect("writes");
        let resp = read_frame(&mut &stream).expect("reads").expect("frame");
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
    });
}

#[test]
fn golden_frame_split_across_many_writes() {
    with_daemon(ServeConfig::default(), |path| {
        let req = Request::Run { session: "dribble".into(), source: PROGRAM.into() };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &req.to_json()).expect("encodes");
        let stream = UnixStream::connect(path).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        // One byte per write, flushed every time — the worst legal client.
        // The length prefix itself is split too.
        for b in &bytes {
            (&stream).write_all(std::slice::from_ref(b)).expect("writes");
            (&stream).flush().expect("flushes");
        }
        let resp = read_frame(&mut &stream).expect("reads").expect("frame");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
    });
}

#[test]
fn golden_two_frames_one_write() {
    with_daemon(ServeConfig::default(), |path| {
        // Two complete frames coalesced into a single write: the framing
        // layer must answer each in order on the same connection.
        let first = Request::Run {
            session: "pipelined".into(),
            source: "def main() -> int { return 7; }".into(),
        };
        let second = Request::Run {
            session: "pipelined".into(),
            source: "def main() -> int { return 11; }".into(),
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &first.to_json()).expect("encodes");
        write_frame(&mut bytes, &second.to_json()).expect("encodes");
        let stream = UnixStream::connect(path).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        (&stream).write_all(&bytes).expect("writes");
        let r1 = read_frame(&mut &stream).expect("reads").expect("first frame");
        let r2 = read_frame(&mut &stream).expect("reads").expect("second frame");
        assert_eq!(r1.get("result").and_then(Json::as_str), Some("7"));
        assert_eq!(r2.get("result").and_then(Json::as_str), Some("11"));
    });
}

#[test]
fn golden_truncated_frame_on_close() {
    with_daemon(ServeConfig::default(), |path| {
        // A client that promises 64 bytes, sends 10, and half-closes: the
        // daemon reports the truncation and drops only that connection.
        let stream = UnixStream::connect(path).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        (&stream).write_all(&64u32.to_be_bytes()).expect("writes");
        (&stream).write_all(b"0123456789").expect("writes");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let resp = read_frame(&mut &stream).expect("reads").expect("error frame");
        assert_eq!(resp, error_json("connection closed mid-frame"));
        assert!(
            matches!(read_frame(&mut &stream), Ok(None)),
            "connection is closed after the error response"
        );
        // The daemon survives.
        let resp = roundtrip_raw(
            path,
            &frame(
                Request::Run { session: "after".into(), source: PROGRAM.into() }
                    .to_json()
                    .render()
                    .as_bytes(),
            ),
        );
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
    });
}

#[test]
fn golden_largest_legal_frame_is_served() {
    with_daemon(ServeConfig::default(), |path| {
        // A legal frame just under the bound: a comment pads the source to
        // ~1 MiB (full 16 MiB would dominate test time for no extra
        // coverage of the bound check, which `golden_oversized_length_prefix`
        // pins from the other side).
        let padding = "x".repeat(1 << 20);
        let source = format!("// {padding}\n{PROGRAM}");
        let req = Request::Run { session: "big".into(), source };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &req.to_json()).expect("encodes");
        let resp = roundtrip_raw(path, &bytes);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("result").and_then(Json::as_str), Some("42"));
    });
}

/// The daemon `stats` schema: every key path is pinned (order-free). The
/// per-command counts and the session map are keyed by traffic, so only
/// their own paths are listed.
#[test]
fn golden_stats_key_paths() {
    with_daemon(ServeConfig::default(), |path| {
        let run = Request::Run { session: "golden".into(), source: PROGRAM.into() };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &run.to_json()).expect("encodes");
        roundtrip_raw(path, &bytes);
        let stats = roundtrip_raw(path, &frame(br#"{"cmd":"stats"}"#));
        let got = common::key_paths(&stats, &["requests", "sessions"]);
        let want = [
            "cache",
            "cache.artifacts",
            "cache.artifacts.evictions",
            "cache.artifacts.hit_rate",
            "cache.artifacts.hits",
            "cache.artifacts.inserts",
            "cache.artifacts.lookups",
            "cache.funcs",
            "cache.funcs.evictions",
            "cache.funcs.hit_rate",
            "cache.funcs.hits",
            "cache.funcs.inserts",
            "cache.funcs.lookups",
            "cache.methods_compiled",
            "cache.methods_spliced",
            "cache.splice_rate",
            "connections",
            "in_flight",
            "latency_us",
            "latency_us.count",
            "latency_us.max_us",
            "latency_us.p50_us",
            "latency_us.p90_us",
            "latency_us.p99_us",
            "ok",
            "requests",
            "sessions",
            "uptime_ms",
        ];
        assert_eq!(got.iter().map(String::as_str).collect::<Vec<_>>(), want, "{stats}");
    });
}
