//! Protocol conformance under malformed input: truncated frames,
//! oversized lengths, bad checksums, bad magic, partial interleaved
//! writes and garbage ASCII lines must all produce clean error replies or
//! clean disconnects — never a panic, a hang, or a corrupted neighbour
//! connection.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use l2r_serve::frame::{
    self, parse_frame, write_frame, FrameParse, Opcode, Status, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use l2r_serve::{BinClient, Client, Counter, ServerConfig};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Reads until EOF (clean disconnect) or timeout, returning everything the
/// server sent. A timeout fails the test: the server must never leave a
/// poisoned connection silently open.
fn read_until_eof(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("server hung instead of disconnecting: {e}"),
        }
    }
}

/// Parses every complete frame out of `bytes`, failing on trailing junk.
fn parse_all_frames(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match parse_frame(&bytes[pos..]) {
            FrameParse::Frame {
                kind,
                payload,
                consumed,
            } => {
                frames.push((kind, payload.to_vec()));
                pos += consumed;
            }
            other => panic!("unparseable server output at {pos}: {other:?}"),
        }
    }
    frames
}

#[test]
fn malformed_binary_frames_get_clean_errors_or_disconnects() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // Truncated length prefix, then EOF: no reply owed, just a clean close.
    let mut s = raw_connect(addr);
    let mut partial = FRAME_MAGIC.to_vec();
    partial.push(Opcode::Route as u8);
    partial.extend_from_slice(&[0x10, 0x00]); // 2 of 4 length bytes
    s.write_all(&partial).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    assert!(
        read_until_eof(&mut s).is_empty(),
        "half a header deserves no reply"
    );

    // Oversized length: one final Err frame, then disconnect.
    let mut s = raw_connect(addr);
    let mut bad = FRAME_MAGIC.to_vec();
    bad.push(Opcode::Route as u8);
    bad.extend_from_slice(&((MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes()));
    s.write_all(&bad).unwrap();
    let frames = parse_all_frames(&read_until_eof(&mut s));
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, Status::Err as u8, "expected an Err frame");

    // Bad checksum: corrupt the last CRC byte of an otherwise valid frame.
    let mut s = raw_connect(addr);
    let mut buf = Vec::new();
    frame::encode_ping(&mut buf);
    *buf.last_mut().unwrap() ^= 0xFF;
    s.write_all(&buf).unwrap();
    let frames = parse_all_frames(&read_until_eof(&mut s));
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, Status::Err as u8);

    // Bad magic that still starts with the binary tag byte.
    let mut s = raw_connect(addr);
    s.write_all(&[FRAME_MAGIC[0], b'X', b'X', b'X', 0, 0, 0, 0, 0])
        .unwrap();
    let frames = parse_all_frames(&read_until_eof(&mut s));
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, Status::Err as u8);

    // The server is still healthy for everyone else.
    let mut bin = BinClient::connect(addr).unwrap();
    bin.ping().expect("server must survive malformed peers");
    bin.shutdown_server().unwrap();
    handle.shutdown().unwrap();
    assert!(state.stats().get(Counter::Errors) >= 3);
}

#[test]
fn malformed_payloads_in_valid_frames_are_request_scoped() {
    let (handle, addr, _state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let mut s = raw_connect(addr);

    // A well-formed envelope whose payload is garbage for its opcode, an
    // unknown opcode, and then a valid ping — all pipelined in one write.
    let mut buf = Vec::new();
    write_frame(&mut buf, Opcode::Route as u8, &[0xDE, 0xAD]);
    write_frame(&mut buf, 0x7F, &[]);
    frame::encode_ping(&mut buf);
    s.write_all(&buf).unwrap();

    // Replies must arrive in request order: Err, Err, Ok — and the
    // connection must survive the two bad requests.
    let mut bin_replies = Vec::new();
    let mut acc = Vec::new();
    let mut chunk = [0u8; 4096];
    while bin_replies.len() < 3 {
        let n = s.read(&mut chunk).expect("reply");
        assert!(n > 0, "server closed a connection it should keep");
        acc.extend_from_slice(&chunk[..n]);
        let mut pos = 0;
        while let FrameParse::Frame {
            kind,
            payload,
            consumed,
        } = parse_frame(&acc[pos..])
        {
            bin_replies.push((kind, payload.to_vec()));
            pos += consumed;
        }
        acc.drain(..pos);
    }
    assert_eq!(bin_replies[0].0, Status::Err as u8);
    assert_eq!(bin_replies[1].0, Status::Err as u8);
    assert_eq!(bin_replies[2].0, Status::Ok as u8);
    assert!(bin_replies[2].1.is_empty(), "ping answers an empty payload");

    handle.shutdown().unwrap();
}

#[test]
fn interleaved_partial_writes_still_parse() {
    let (handle, addr, _state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // Dribble a valid route request one byte at a time; the incremental
    // parser must wait for the full frame and then answer normally.
    let mut s = raw_connect(addr);
    let mut buf = Vec::new();
    frame::encode_route(&mut buf, common::DATASET, 0, 1);
    for byte in &buf {
        s.write_all(std::slice::from_ref(byte)).unwrap();
        s.flush().unwrap();
    }
    let mut acc = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let FrameParse::Frame { kind, .. } = parse_frame(&acc) {
            assert!(
                kind == Status::Ok as u8 || kind == Status::NoRoute as u8,
                "dribbled route answered kind {kind}"
            );
            break;
        }
        let n = s.read(&mut chunk).expect("reply");
        assert!(n > 0, "server closed a slow-but-valid connection");
        acc.extend_from_slice(&chunk[..n]);
    }

    handle.shutdown().unwrap();
}

#[test]
fn garbage_ascii_lines_get_err_replies_not_disconnects() {
    let (handle, addr, state) = common::start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).unwrap();
    for bad in [
        "frobnicate",
        "route",
        "route D1 zero one",
        "route nosuch 0 1",
        "route_batch D1 0:1",
        "reload D1",
    ] {
        let resp = client.request(bad).expect("reply");
        assert!(resp.starts_with("ERR"), "`{bad}` -> {resp}");
    }
    // The same connection still routes fine afterwards.
    let resp = client.request("route D1 0 1").unwrap();
    assert!(resp.starts_with("OK ") || resp == "NOROUTE", "{resp}");

    // An over-long request line is answered with ERR and then closed.
    let mut s = raw_connect(addr);
    let huge = vec![b'x'; 80 * 1024];
    s.write_all(&huge).unwrap();
    let out = read_until_eof(&mut s);
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("ERR"), "over-long line got: {text}");

    handle.shutdown().unwrap();
    assert!(state.stats().get(Counter::Errors) >= 7);
}
