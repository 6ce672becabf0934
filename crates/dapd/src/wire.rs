//! `dap-wire`: the daemon's length-prefixed binary protocol.
//!
//! Every frame on the socket is
//!
//! ```text
//! +----------------+----------+-------------------+
//! | payload_len u32 | type u8 | payload (LE ints) |
//! +----------------+----------+-------------------+
//! ```
//!
//! with `payload_len` little-endian and *not* counting the type byte.
//! Integers inside payloads are little-endian. Request types occupy
//! `1..=4`, response types `129..=131` plus the `Reject` type `255`, so a
//! client that accidentally feeds a response back to the server (or vice
//! versa) fails loudly with [`WireError::UnknownType`] rather than being
//! misparsed.
//!
//! Decoding is total: any byte sequence either parses to exactly one
//! [`Message`] plus a consumed length, or returns a typed [`WireError`].
//! Truncated input is distinguished from garbage so stream readers know
//! whether to wait for more bytes or drop the connection.
//!
//! `Shutdown` — the one request that takes the daemon down — must carry
//! the eight-byte [`SHUTDOWN_TOKEN`] payload, so neither random garbage
//! nor a bit-flipped legitimate frame can ever be parsed as a shutdown
//! order ([`WireError::BadShutdownToken`] otherwise).

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum payload length a peer may send (1 MiB). Larger frames are
/// rejected before allocation, so a hostile length prefix cannot OOM the
/// daemon.
pub const MAX_PAYLOAD: u32 = 1 << 20;

const TYPE_GET_ROUTE: u8 = 1;
const TYPE_REPORT_SERVED: u8 = 2;
const TYPE_SNAPSHOT_STATS: u8 = 3;
const TYPE_SHUTDOWN: u8 = 4;
const TYPE_ROUTE: u8 = 129;
const TYPE_ACK: u8 = 130;
const TYPE_STATS: u8 = 131;
const TYPE_REJECT: u8 = 255;

/// The payload every `Shutdown` frame must carry. Shutdown is the one
/// request that takes the whole service down, so it is the one frame a
/// corrupted stream or a garbage-spewing peer must never be able to
/// forge: a single flipped byte can turn one request type into another,
/// but it cannot conjure these eight bytes.
pub const SHUTDOWN_TOKEN: [u8; 8] = *b"DAPDHALT";

/// Why the daemon refused a request (payload of [`Message::Reject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The tenant id is outside the configured tenant table.
    UnknownTenant = 1,
    /// The backend id is outside the configured backend table.
    UnknownBackend = 2,
    /// A request arrived while the daemon was shutting down.
    ShuttingDown = 3,
    /// The daemon is at its connection cap or this connection exhausted
    /// its frame/byte budget; the connection is closed after this frame.
    /// Clients should back off and reconnect.
    Overloaded = 4,
}

impl RejectCode {
    fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(RejectCode::UnknownTenant),
            2 => Some(RejectCode::UnknownBackend),
            3 => Some(RejectCode::ShuttingDown),
            4 => Some(RejectCode::Overloaded),
            _ => None,
        }
    }
}

/// One protocol message, request or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → daemon: which backend should serve `bytes` for `tenant`?
    GetRoute {
        /// Index into the daemon's tenant table.
        tenant: u16,
        /// Size of the access being routed, in bytes.
        bytes: u32,
    },
    /// Client → daemon: backend `source` just served `bytes` in
    /// `latency_ns` nanoseconds of busy time. Feeds the measured-
    /// bandwidth estimate for the next re-solve.
    ReportServed {
        /// Index into the daemon's backend table.
        source: u8,
        /// Bytes the backend delivered.
        bytes: u32,
        /// Busy time spent delivering them, in nanoseconds.
        latency_ns: u32,
    },
    /// Client → daemon: render the current stats as Prometheus text.
    SnapshotStats,
    /// Client → daemon: stop accepting connections and exit cleanly.
    Shutdown,
    /// Daemon → client: serve the access from backend `source`.
    Route {
        /// The chosen backend index.
        source: u8,
        /// The resolve-window sequence number the decision was made in.
        window: u32,
    },
    /// Daemon → client: request applied, nothing to return.
    Ack,
    /// Daemon → client: the stats exposition text.
    Stats(String),
    /// Daemon → client: request refused.
    Reject(RejectCode),
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::GetRoute { .. } => TYPE_GET_ROUTE,
            Message::ReportServed { .. } => TYPE_REPORT_SERVED,
            Message::SnapshotStats => TYPE_SNAPSHOT_STATS,
            Message::Shutdown => TYPE_SHUTDOWN,
            Message::Route { .. } => TYPE_ROUTE,
            Message::Ack => TYPE_ACK,
            Message::Stats(_) => TYPE_STATS,
            Message::Reject(_) => TYPE_REJECT,
        }
    }
}

/// A typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before a complete frame: `needed` total bytes are
    /// required but only `got` are present. Stream readers should wait
    /// for more input; datagram-style consumers should treat this as
    /// corruption.
    Truncated {
        /// Total bytes the frame needs.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The type byte does not name any protocol message.
    UnknownType(u8),
    /// The payload length does not match the fixed size of this type.
    BadPayloadLen {
        /// The frame's type byte.
        ty: u8,
        /// The length the prefix claimed.
        got: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    FrameTooLarge(u32),
    /// A `Stats` payload was not valid UTF-8.
    BadUtf8,
    /// A `Reject` payload carried an unassigned code.
    BadRejectCode(u8),
    /// A `Shutdown` frame did not carry [`SHUTDOWN_TOKEN`]. Corruption or
    /// garbage must never be able to stop the daemon.
    BadShutdownToken,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            WireError::UnknownType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::BadPayloadLen { ty, got } => {
                write!(f, "bad payload length {got} for message type {ty:#04x}")
            }
            WireError::FrameTooLarge(len) => {
                write!(f, "frame payload {len} exceeds max {MAX_PAYLOAD}")
            }
            WireError::BadUtf8 => write!(f, "stats payload is not valid UTF-8"),
            WireError::BadRejectCode(c) => write!(f, "unassigned reject code {c}"),
            WireError::BadShutdownToken => write!(f, "shutdown frame lacks the magic token"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message as a complete frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::new();
    match msg {
        Message::GetRoute { tenant, bytes } => {
            payload.extend_from_slice(&tenant.to_le_bytes());
            payload.extend_from_slice(&bytes.to_le_bytes());
        }
        Message::ReportServed {
            source,
            bytes,
            latency_ns,
        } => {
            payload.push(*source);
            payload.extend_from_slice(&bytes.to_le_bytes());
            payload.extend_from_slice(&latency_ns.to_le_bytes());
        }
        Message::SnapshotStats | Message::Ack => {}
        Message::Shutdown => payload.extend_from_slice(&SHUTDOWN_TOKEN),
        Message::Route { source, window } => {
            payload.push(*source);
            payload.extend_from_slice(&window.to_le_bytes());
        }
        Message::Stats(text) => payload.extend_from_slice(text.as_bytes()),
        Message::Reject(code) => payload.push(*code as u8),
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.push(msg.type_byte());
    frame.extend_from_slice(&payload);
    frame
}

fn fixed_len(ty: u8) -> Option<usize> {
    match ty {
        TYPE_GET_ROUTE => Some(6),
        TYPE_REPORT_SERVED => Some(9),
        TYPE_SNAPSHOT_STATS | TYPE_ACK => Some(0),
        TYPE_SHUTDOWN => Some(SHUTDOWN_TOKEN.len()),
        TYPE_ROUTE => Some(5),
        TYPE_REJECT => Some(1),
        TYPE_STATS => None, // variable
        _ => None,
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decodes one frame from the front of `buf`.
///
/// On success returns the message and the total number of bytes consumed
/// (header + payload), so stream readers can advance their buffer.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), WireError> {
    if buf.len() < 5 {
        return Err(WireError::Truncated {
            needed: 5,
            got: buf.len(),
        });
    }
    let payload_len = le_u32(&buf[0..4]);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(payload_len));
    }
    let ty = buf[4];
    // Reject unknown types and wrong fixed lengths *before* waiting for
    // the payload: garbage should fail fast even when "truncated".
    match ty {
        TYPE_GET_ROUTE | TYPE_REPORT_SERVED | TYPE_SNAPSHOT_STATS | TYPE_SHUTDOWN | TYPE_ROUTE
        | TYPE_ACK | TYPE_STATS | TYPE_REJECT => {}
        other => return Err(WireError::UnknownType(other)),
    }
    if let Some(expected) = fixed_len(ty) {
        if payload_len as usize != expected {
            return Err(WireError::BadPayloadLen {
                ty,
                got: payload_len,
            });
        }
    }
    let total = 5 + payload_len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let p = &buf[5..total];
    let msg = match ty {
        TYPE_GET_ROUTE => Message::GetRoute {
            tenant: le_u16(&p[0..2]),
            bytes: le_u32(&p[2..6]),
        },
        TYPE_REPORT_SERVED => Message::ReportServed {
            source: p[0],
            bytes: le_u32(&p[1..5]),
            latency_ns: le_u32(&p[5..9]),
        },
        TYPE_SNAPSHOT_STATS => Message::SnapshotStats,
        TYPE_SHUTDOWN => {
            if p != SHUTDOWN_TOKEN {
                return Err(WireError::BadShutdownToken);
            }
            Message::Shutdown
        }
        TYPE_ROUTE => Message::Route {
            source: p[0],
            window: le_u32(&p[1..5]),
        },
        TYPE_ACK => Message::Ack,
        TYPE_STATS => {
            Message::Stats(String::from_utf8(p.to_vec()).map_err(|_| WireError::BadUtf8)?)
        }
        TYPE_REJECT => {
            Message::Reject(RejectCode::from_u8(p[0]).ok_or(WireError::BadRejectCode(p[0]))?)
        }
        _ => unreachable!("type validated above"),
    };
    Ok((msg, total))
}

/// Read-buffer size for one connection (each end of the socket gives
/// every connection one [`io::BufReader`] of this capacity). Every
/// request and every reply except `Stats` fits several times over, so
/// one `read` syscall usually fills the buffer with a whole frame and
/// the exact reads below are served from memory.
pub const READ_BUF_BYTES: usize = 512;

fn invalid_data(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads exactly one frame from a buffered blocking stream.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary; EOF mid-frame is
/// an [`io::ErrorKind::UnexpectedEof`] error, and protocol violations
/// surface as [`io::ErrorKind::InvalidData`] wrapping the [`WireError`].
/// Never consumes bytes past the end of the frame it returns.
pub fn read_frame<R: BufRead>(r: &mut R) -> io::Result<Option<Message>> {
    Ok(read_frame_counted(r)?.map(|(msg, _)| msg))
}

/// Like [`read_frame`], but also reports the frame's total wire size
/// (header + payload) so callers can enforce per-connection byte budgets
/// without re-encoding the message.
///
/// The 5-byte header is validated on its own first, so an oversize
/// length prefix or an unknown type fails before any allocation or wait
/// for the payload.
pub fn read_frame_counted<R: BufRead>(r: &mut R) -> io::Result<Option<(Message, usize)>> {
    if r.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let total = match decode_frame(&header) {
        // A payload-free frame is complete with its header.
        Ok((msg, len)) => return Ok(Some((msg, len))),
        Err(WireError::Truncated { needed, .. }) => needed,
        Err(e) => return Err(invalid_data(e)),
    };
    let mut frame = vec![0u8; total];
    frame[..5].copy_from_slice(&header);
    r.read_exact(&mut frame[5..])?;
    let (msg, len) = decode_frame(&frame).map_err(invalid_data)?;
    debug_assert_eq!(len, total);
    Ok(Some((msg, len)))
}

/// Writes one frame to a blocking stream.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::GetRoute {
                tenant: 7,
                bytes: 4096,
            },
            Message::GetRoute {
                tenant: u16::MAX,
                bytes: u32::MAX,
            },
            Message::ReportServed {
                source: 1,
                bytes: 65_536,
                latency_ns: 42,
            },
            Message::SnapshotStats,
            Message::Shutdown,
            Message::Route {
                source: 0,
                window: 9,
            },
            Message::Ack,
            Message::Stats(String::new()),
            Message::Stats("dapd_decisions_total 12\n".to_string()),
            Message::Reject(RejectCode::UnknownTenant),
            Message::Reject(RejectCode::UnknownBackend),
            Message::Reject(RejectCode::ShuttingDown),
            Message::Reject(RejectCode::Overloaded),
        ]
    }

    #[test]
    fn round_trip_every_message_type() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            let (decoded, consumed) = decode_frame(&frame).expect("decode");
            assert_eq!(decoded, msg);
            assert_eq!(consumed, frame.len(), "whole frame consumed for {msg:?}");
        }
    }

    #[test]
    fn round_trip_through_streams() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            write_frame(&mut buf, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in all_messages() {
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn every_truncation_is_detected() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut]) {
                    Err(WireError::Truncated { needed, got }) => {
                        assert_eq!(got, cut);
                        assert!(needed > cut, "claimed need {needed} <= have {cut}");
                    }
                    other => panic!("cut={cut} of {msg:?}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn garbage_type_byte_rejected() {
        for ty in [0u8, 5, 100, 128, 132, 200, 254] {
            let mut frame = vec![0, 0, 0, 0, ty];
            frame.extend_from_slice(&[0; 16]);
            // Unknown type must be detected from the 5-byte header alone.
            assert_eq!(decode_frame(&frame), Err(WireError::UnknownType(ty)));
            assert_eq!(decode_frame(&frame[..5]), Err(WireError::UnknownType(ty)));
        }
    }

    #[test]
    fn wrong_fixed_payload_length_rejected() {
        // GetRoute claims 7 payload bytes instead of 6.
        let mut frame = vec![7, 0, 0, 0, 1];
        frame.extend_from_slice(&[0; 7]);
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadPayloadLen { ty: 1, got: 7 })
        );
        // ... detected even before the payload arrives.
        assert_eq!(
            decode_frame(&frame[..5]),
            Err(WireError::BadPayloadLen { ty: 1, got: 7 })
        );
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let frame = [(MAX_PAYLOAD + 1).to_le_bytes().as_slice(), &[3u8]].concat();
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::FrameTooLarge(MAX_PAYLOAD + 1))
        );
        let mut cursor = std::io::Cursor::new(frame);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_utf8_stats_rejected() {
        let mut frame = vec![2, 0, 0, 0, TYPE_STATS];
        frame.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_frame(&frame), Err(WireError::BadUtf8));
    }

    #[test]
    fn unassigned_reject_code_rejected() {
        let frame = vec![1, 0, 0, 0, TYPE_REJECT, 99];
        assert_eq!(decode_frame(&frame), Err(WireError::BadRejectCode(99)));
    }

    #[test]
    fn shutdown_without_token_rejected() {
        // Right length, wrong bytes: a forged or corrupted shutdown.
        let mut frame = vec![8, 0, 0, 0, TYPE_SHUTDOWN];
        frame.extend_from_slice(b"xxxxxxxx");
        assert_eq!(decode_frame(&frame), Err(WireError::BadShutdownToken));
        // Wrong length fails even earlier, as a length mismatch.
        let frame = vec![0, 0, 0, 0, TYPE_SHUTDOWN];
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadPayloadLen {
                ty: TYPE_SHUTDOWN,
                got: 0
            })
        );
    }

    #[test]
    fn single_byte_corruption_never_yields_shutdown() {
        // The whole point of the token: flip any one byte of any valid
        // frame and the result must never decode as Shutdown (except a
        // frame that already was one).
        for msg in all_messages() {
            if msg == Message::Shutdown {
                continue;
            }
            let frame = encode_frame(&msg);
            for i in 0..frame.len() {
                for bit in 0..8u8 {
                    let mut corrupt = frame.clone();
                    corrupt[i] ^= 1 << bit;
                    if let Ok((Message::Shutdown, _)) = decode_frame(&corrupt) {
                        panic!("bit {bit} of byte {i} in {msg:?} forged a shutdown");
                    }
                }
            }
        }
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let msg = Message::GetRoute {
            tenant: 1,
            bytes: 64,
        };
        let frame = encode_frame(&msg);
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
    }

    #[test]
    fn decode_reports_consumed_length_with_trailing_bytes() {
        let msg = Message::Route {
            source: 2,
            window: 5,
        };
        let mut buf = encode_frame(&msg);
        let frame_len = buf.len();
        buf.extend_from_slice(&encode_frame(&Message::Ack));
        let (decoded, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(consumed, frame_len, "first frame only");
        let (next, _) = decode_frame(&buf[consumed..]).unwrap();
        assert_eq!(next, Message::Ack);
    }
}
