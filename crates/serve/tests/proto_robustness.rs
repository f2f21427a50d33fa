//! Wire-protocol robustness fuzz: whatever bytes a client throws at the
//! daemon, the answer is a structured `error` event — never a silent drop,
//! never a panic, never a dead daemon.
//!
//! Three generators drive a single long-lived daemon through raw TCP (no
//! [`Client`] conveniences — the point is hostile input):
//!
//! * arbitrary printable garbage lines,
//! * strict prefixes of a *valid* verify request (every torn-write shape),
//! * well-formed JSON whose `cmd` the protocol does not know.
//!
//! Each case additionally pings on the same connection afterwards: a
//! malformed line must not cost the connection, let alone the daemon. The
//! one exception is an oversized (> 1 MiB) line — there is no
//! resynchronization point inside an unterminated line, so the contract is
//! an explicit error *then* connection close, with the daemon still
//! accepting new connections (pinned by a plain test below).

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;
use xcv_serve::{Event, Policy, Request, Server, ServerConfig, VerifyRequest};

/// One daemon for the whole fuzz binary, leaked so it outlives every test
/// thread (its `Drop` would otherwise shut the accept loop down).
fn daemon() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::spawn(ServerConfig::default()).expect("ephemeral port");
        let addr = server.addr();
        Box::leak(Box::new(server));
        addr
    })
}

/// Send one raw line, read one response line, then prove the connection
/// (and the daemon behind it) still serves by round-tripping a ping.
fn send_line_then_ping(line: &str) -> Result<Event, String> {
    assert!(!line.contains('\n'), "generator bug: embedded newline");
    let mut stream = TcpStream::connect(daemon()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    writeln!(stream, "{line}").map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| format!("recv: {e}"))?;
    if resp.is_empty() {
        return Err("silent drop: connection closed without a response".to_string());
    }
    let event = Event::parse(resp.trim_end())?;
    writeln!(stream, "{}", Request::Ping.to_json()).map_err(|e| format!("ping send: {e}"))?;
    let mut pong = String::new();
    reader
        .read_line(&mut pong)
        .map_err(|e| format!("ping recv: {e}"))?;
    match Event::parse(pong.trim_end())? {
        Event::Pong => Ok(event),
        other => Err(format!("connection broken after bad line: {other:?}")),
    }
}

/// A canonical valid request to cut prefixes from.
fn valid_request_json() -> String {
    Request::Verify(VerifyRequest {
        functionals: vec!["PBE".to_string(), "LYP".to_string()],
        conditions: Vec::new(),
        policy: Policy::Gate {
            budget_ms: 50,
            threshold: 0.3,
        },
    })
    .to_json()
}

/// Printable garbage with a JSON-flavoured alphabet — heavy on the
/// structural characters so the parser's every early-exit path gets hit.
fn garbage(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = br#"{}[]":,\ abcdefgverifypingstamx0123456789.-_"#;
    let mut state = seed | 1;
    let mut out = String::with_capacity(len + 1);
    for _ in 0..len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let i = (state.wrapping_mul(0x2545F4914F6CDD1D) % ALPHABET.len() as u64) as usize;
        out.push(ALPHABET[i] as char);
    }
    if out.trim().is_empty() {
        out.push('x'); // a blank line is legitimately ignored, not errored
    }
    out
}

proptest! {
    #[test]
    fn garbage_lines_get_a_structured_error(len in 1usize..120, seed in 0u64..u64::MAX) {
        let line = garbage(len, seed);
        match send_line_then_ping(&line) {
            Ok(Event::Error { .. }) => {}
            Ok(other) => {
                return Err(TestCaseError::Fail(format!(
                    "garbage {line:?} was answered with {other:?}, not an error"
                )))
            }
            Err(e) => return Err(TestCaseError::Fail(format!("garbage {line:?}: {e}"))),
        }
    }

    #[test]
    fn truncated_requests_get_a_structured_error(cut in 0u64..u64::MAX) {
        let full = valid_request_json();
        // Every strict non-empty prefix: exactly the shapes a torn write,
        // a crashed client, or a hostile peer produces.
        let idx = 1 + (cut as usize) % (full.len() - 1);
        let line = &full[..idx];
        match send_line_then_ping(line) {
            Ok(Event::Error { .. }) => {}
            Ok(other) => {
                return Err(TestCaseError::Fail(format!(
                    "prefix {line:?} was answered with {other:?}, not an error"
                )))
            }
            Err(e) => return Err(TestCaseError::Fail(format!("prefix {line:?}: {e}"))),
        }
    }

    #[test]
    fn unknown_commands_get_a_structured_error(pick in 0usize..6, seed in 0u64..u64::MAX) {
        let cmd = match pick {
            0 => "frobnicate".to_string(),
            1 => "VERIFY".to_string(), // case matters on the wire
            2 => "verify2".to_string(),
            3 => String::new(),
            4 => "ping ".to_string(),
            _ => garbage(8, seed).replace(['"', '\\'], "x"),
        };
        let line = format!("{{\"cmd\": \"{cmd}\"}}");
        match send_line_then_ping(&line) {
            Ok(Event::Error { message }) => {
                prop_assert!(!message.is_empty(), "error carries a diagnostic");
            }
            Ok(other) => {
                return Err(TestCaseError::Fail(format!(
                    "unknown cmd {cmd:?} was answered with {other:?}, not an error"
                )))
            }
            Err(e) => return Err(TestCaseError::Fail(format!("unknown cmd {cmd:?}: {e}"))),
        }
    }
}

/// An unterminated line past the 1 MiB cap has no resynchronization point:
/// the daemon answers one explicit error, closes that connection, and keeps
/// accepting new ones.
#[test]
fn oversized_lines_error_and_close_but_the_daemon_survives() {
    let mut stream = TcpStream::connect(daemon()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // Exactly one byte past the cap, newline included: the daemon consumes
    // the whole line (so its close is a clean FIN that cannot clobber the
    // queued error reply with a reset) and still must reject it.
    let mut line = vec![b'x'; 1 << 20];
    line.push(b'\n');
    stream.write_all(&line).expect("flood");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("error line");
    match Event::parse(resp.trim_end()).expect("structured event") {
        Event::Error { message } => {
            assert!(message.contains("exceeds"), "names the cap: {message:?}")
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // The flooded connection is closed...
    let mut rest = String::new();
    let closed = matches!(reader.read_line(&mut rest), Ok(0) | Err(_));
    assert!(closed, "flooded connection must close, got {rest:?}");
    // ...and the daemon still serves fresh ones.
    let mut client = xcv_serve::Client::connect(daemon()).expect("connect");
    client.ping().expect("daemon survived the flood");
}

/// A line of nothing but `[` just under the 1 MiB cap nests a million
/// levels deep: the reader's depth limit turns it into a structured error
/// (a recursive descent to the bottom would overflow the connection
/// thread's stack and abort the whole daemon).
#[test]
fn deeply_nested_lines_error_and_the_daemon_survives() {
    let line = "[".repeat((1 << 20) - 1);
    match send_line_then_ping(&line) {
        Ok(Event::Error { message }) => {
            assert!(message.contains("nesting"), "names the limit: {message:?}")
        }
        other => panic!("expected an error, got {other:?}"),
    }
    let mut client = xcv_serve::Client::connect(daemon()).expect("connect");
    client.ping().expect("daemon survived the deep line");
}
