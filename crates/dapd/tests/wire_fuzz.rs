//! Seeded fuzz coverage for `wire` decoding: arbitrary bytes, arbitrary
//! mutations of valid frames, and truncation at every offset must never
//! panic, and must always yield either `Truncated` or a typed garbage
//! error — extending the enumerated negative cases in the wire module's
//! unit tests to tens of thousands of adversarial inputs.
//!
//! The buffered stream reader is checked differentially against
//! `decode_frame`: whatever way the socket chops a byte stream into
//! reads, the reader must yield exactly the frames (and the first error)
//! that decoding the concatenated bytes does.
//!
//! Everything is driven by `SplitMix64` seeds, so a failure reproduces
//! exactly and CI runs are deterministic.

use dapd::wire::READ_BUF_BYTES;
use dapd::wire::{decode_frame, encode_frame, read_frame, read_frame_counted, WireError};
use dapd::{Message, RejectCode, MAX_PAYLOAD};
use std::io::{self, BufReader, Cursor, Read};
use workloads::rng::SplitMix64;

const SEED: u64 = 0xF022_5EED;

fn sample_messages(rng: &mut SplitMix64) -> Message {
    match rng.below(8) {
        0 => Message::GetRoute {
            tenant: rng.below(1 << 16) as u16,
            bytes: rng.next_u64() as u32,
        },
        1 => Message::ReportServed {
            source: rng.below(256) as u8,
            bytes: rng.next_u64() as u32,
            latency_ns: rng.next_u64() as u32,
        },
        2 => Message::SnapshotStats,
        3 => Message::Shutdown,
        4 => Message::Route {
            source: rng.below(256) as u8,
            window: rng.next_u64() as u32,
        },
        5 => Message::Ack,
        6 => {
            let len = rng.below(64) as usize;
            let text: String = (0..len)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect();
            Message::Stats(text)
        }
        _ => Message::Reject(match rng.below(4) {
            0 => RejectCode::UnknownTenant,
            1 => RejectCode::UnknownBackend,
            2 => RejectCode::ShuttingDown,
            _ => RejectCode::Overloaded,
        }),
    }
}

/// decode_frame is total: random byte soup either parses (with a sane
/// consumed length) or fails with a typed error. It must never panic.
#[test]
fn random_bytes_never_panic_the_decoder() {
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..20_000 {
        let len = rng.below(64) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        match decode_frame(&buf) {
            Ok((_, consumed)) => assert!(consumed <= buf.len(), "consumed beyond input"),
            Err(
                WireError::Truncated { .. }
                | WireError::UnknownType(_)
                | WireError::BadPayloadLen { .. }
                | WireError::FrameTooLarge(_)
                | WireError::BadUtf8
                | WireError::BadRejectCode(_)
                | WireError::BadShutdownToken,
            ) => {}
        }
    }
}

/// Truncating a valid frame at EVERY offset yields `Truncated` with an
/// honest byte count — never a panic, never a misparse — for a large
/// seeded sample of messages, not just the unit tests' fixed list.
#[test]
fn truncation_at_every_offset_is_reported_honestly() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for _ in 0..2_000 {
        let msg = sample_messages(&mut rng);
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert_eq!(got, cut, "honest 'got' for {msg:?}");
                    assert!(needed > cut, "claimed need {needed} <= have {cut}");
                }
                other => panic!("cut={cut} of {msg:?}: expected Truncated, got {other:?}"),
            }
        }
    }
}

/// Mutating valid frames (random byte stomps) never panics, and the
/// result is either a successful parse of *some* message or a typed
/// error — and never a forged `Shutdown` (the token makes that require
/// at least eight coordinated payload bytes, which random stomps of
/// non-Shutdown frames cannot produce with a wrong-length payload).
#[test]
fn mutated_frames_decode_totally() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    for _ in 0..5_000 {
        let msg = sample_messages(&mut rng);
        let mut frame = encode_frame(&msg);
        let stomps = 1 + rng.below(4) as usize;
        for _ in 0..stomps {
            let i = rng.index(frame.len());
            frame[i] = rng.next_u64() as u8;
        }
        if let Ok((Message::Shutdown, _)) = decode_frame(&frame) {
            // Only a frame that was already a shutdown (with stomps that
            // happened to restore it) may decode as one.
            assert_eq!(msg, Message::Shutdown, "stomped {msg:?} forged a shutdown");
        }
    }
}

/// The stream reader classifies every failure as either UnexpectedEof
/// (truncated stream) or InvalidData (typed garbage) — the two cases a
/// server loop needs to distinguish — and never panics or hangs.
#[test]
fn stream_reader_yields_only_eof_or_invalid_data() {
    let mut rng = SplitMix64::new(SEED ^ 3);
    for _ in 0..20_000 {
        let len = rng.below(48) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "unexpected error kind {:?}",
                e.kind()
            ),
        }
    }
}

/// A hostile length prefix larger than MAX_PAYLOAD is rejected before
/// allocation for every type byte, so no seed can make the reader
/// reserve gigabytes.
#[test]
fn oversized_prefixes_never_allocate() {
    let mut rng = SplitMix64::new(SEED ^ 4);
    for _ in 0..2_000 {
        let len = MAX_PAYLOAD + 1 + (rng.next_u64() as u32 & 0x7fff_ffff).min(u32::MAX >> 2);
        let ty = rng.below(256) as u8;
        let mut frame = len.to_le_bytes().to_vec();
        frame.push(ty);
        assert_eq!(decode_frame(&frame), Err(WireError::FrameTooLarge(len)));
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

/// A byte source that hands out its data 1..=`max_chunk` bytes per
/// `read`, the way a socket may split a stream, and counts what it gave.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    max_chunk: usize,
    rng: SplitMix64,
}

impl Chunked {
    fn new(data: Vec<u8>, max_chunk: usize, seed: u64) -> Self {
        Self {
            data,
            pos: 0,
            max_chunk,
            rng: SplitMix64::new(seed),
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.data.len() - self.pos;
        if left == 0 || buf.is_empty() {
            return Ok(0);
        }
        let n = (1 + self.rng.below(self.max_chunk as u64) as usize)
            .min(left)
            .min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// How a frame stream ends for its reader.
#[derive(Debug, PartialEq)]
enum End {
    /// Clean EOF at a frame boundary.
    Clean,
    /// EOF inside a frame.
    Eof,
    /// Undecodable bytes.
    Garbage(WireError),
}

/// The reference: `decode_frame` run over the whole byte stream.
fn decode_all(bytes: &[u8]) -> (Vec<(Message, usize)>, End) {
    let mut frames = Vec::new();
    let mut pos = 0;
    loop {
        match decode_frame(&bytes[pos..]) {
            Ok((msg, len)) => {
                frames.push((msg, len));
                pos += len;
            }
            Err(WireError::Truncated { .. }) if pos == bytes.len() => return (frames, End::Clean),
            Err(WireError::Truncated { .. }) => return (frames, End::Eof),
            Err(e) => return (frames, End::Garbage(e)),
        }
    }
}

/// The same stream through the buffered reader.
fn read_all<R: io::BufRead>(r: &mut R) -> (Vec<(Message, usize)>, End) {
    let mut frames = Vec::new();
    loop {
        match read_frame_counted(r) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, End::Clean),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return (frames, End::Eof),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                let wire = e
                    .get_ref()
                    .and_then(|inner| inner.downcast_ref::<WireError>())
                    .expect("InvalidData wraps a WireError")
                    .clone();
                return (frames, End::Garbage(wire));
            }
        }
    }
}

/// Buffer capacities to read through: smaller than a header, smaller
/// than most frames, and the size the daemon and client use.
const CAPACITIES: [usize; 6] = [1, 4, 11, 16, 64, READ_BUF_BYTES];

/// A random frame for the chunking tests: mostly valid messages, some
/// `Stats` replies longer than the read buffer, and sometimes garbage
/// (random bytes or a stomped valid frame).
fn stream_element(rng: &mut SplitMix64) -> Vec<u8> {
    match rng.below(12) {
        0 => (0..1 + rng.below(12))
            .map(|_| rng.next_u64() as u8)
            .collect(),
        1 => {
            let mut frame = encode_frame(&sample_messages(rng));
            let i = rng.index(frame.len());
            frame[i] = rng.next_u64() as u8;
            frame
        }
        2 => {
            let len = READ_BUF_BYTES + rng.below(3 * READ_BUF_BYTES as u64) as usize;
            encode_frame(&Message::Stats("x".repeat(len)))
        }
        _ => encode_frame(&sample_messages(rng)),
    }
}

/// However the stream is chopped into reads, and whatever the buffer
/// size, the reader yields exactly the frames, wire sizes and final
/// outcome that decoding the concatenated bytes does.
#[test]
fn chunked_reader_matches_decode_over_concatenated_bytes() {
    let mut rng = SplitMix64::new(SEED ^ 5);
    let mut garbage_ends = 0;
    for case in 0..3_000u64 {
        let elements = 1 + rng.below(10);
        let bytes: Vec<u8> = (0..elements)
            .flat_map(|_| stream_element(&mut rng))
            .collect();
        let max_chunk = 1 + rng.below(40) as usize;
        let capacity = CAPACITIES[rng.index(CAPACITIES.len())];
        let expected = decode_all(&bytes);
        if matches!(expected.1, End::Garbage(_)) {
            garbage_ends += 1;
        }
        let source = Chunked::new(bytes, max_chunk, SEED ^ case);
        let got = read_all(&mut BufReader::with_capacity(capacity, source));
        assert_eq!(
            got, expected,
            "case {case}: chunks of 1..={max_chunk}, buffer {capacity}"
        );
    }
    assert!(garbage_ends > 100, "only {garbage_ends} garbage streams");
}

/// A stream cut inside its last frame yields every whole frame, then
/// `UnexpectedEof` — never a frame built from the partial tail.
#[test]
fn truncated_tail_is_unexpected_eof_never_a_frame() {
    let mut rng = SplitMix64::new(SEED ^ 6);
    for case in 0..2_000u64 {
        let msgs: Vec<Message> = (0..1 + rng.below(6))
            .map(|_| sample_messages(&mut rng))
            .collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
        let last = frames.last().expect("at least one frame");
        let keep = 1 + rng.index(last.len() - 1);
        let mut bytes = frames[..frames.len() - 1].concat();
        bytes.extend_from_slice(&last[..keep]);
        let capacity = CAPACITIES[rng.index(CAPACITIES.len())];
        let source = Chunked::new(bytes, 1 + rng.below(16) as usize, SEED ^ case);
        let (got, end) = read_all(&mut BufReader::with_capacity(capacity, source));
        let whole: Vec<Message> = got.into_iter().map(|(m, _)| m).collect();
        assert_eq!(whole, msgs[..msgs.len() - 1], "case {case}");
        assert_eq!(end, End::Eof, "case {case}: tail of {keep} bytes");
    }
}

/// An oversize length prefix fails from its header alone, even when
/// the header arrives a byte at a time: the reader neither allocates
/// the claimed payload nor waits for it.
#[test]
fn chunked_oversize_prefix_is_rejected_from_the_header() {
    let mut rng = SplitMix64::new(SEED ^ 7);
    for case in 0..500u64 {
        let len = MAX_PAYLOAD + 1 + (rng.next_u64() as u32 >> 2);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(rng.below(256) as u8);
        // A long payload follows: a reader that waited for it would
        // drain all of it.
        bytes.resize(bytes.len() + 64 * 1024, 0);
        let capacity = CAPACITIES[rng.index(CAPACITIES.len())];
        let mut reader =
            BufReader::with_capacity(capacity, Chunked::new(bytes, 1 + case as usize % 8, case));
        let (got, end) = read_all(&mut reader);
        assert!(got.is_empty());
        assert_eq!(end, End::Garbage(WireError::FrameTooLarge(len)));
        let pulled = reader.get_ref().pos;
        assert!(
            pulled <= 5 + capacity,
            "case {case}: read {pulled} bytes past a {capacity}-byte buffer"
        );
    }
}
