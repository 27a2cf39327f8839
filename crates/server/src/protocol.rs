//! The Spitfire wire protocol: length-prefixed binary frames with a
//! versioned header and a per-frame CRC-32.
//!
//! Every frame — request or reply — starts with the same 24-byte header
//! (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  len         total frame length, header included
//!      4     4  crc         CRC-32C over bytes [8, len)
//!      8     1  version     protocol version (PROTOCOL_VERSION)
//!      9     1  opcode      command (request) / echoed command (reply)
//!     10     2  flags       reply: bit 0 = error, bit 1 = retryable
//!     12     4  tenant      tenant id (reply: echoed)
//!     16     8  request_id  client-chosen correlation id (reply: echoed)
//!     24     …  body        opcode-specific payload
//! ```
//!
//! The CRC is the canonical [`spitfire_sync::crc32`] — the same checksum
//! the WAL framing and the snapshot block headers use — so the wire
//! format and the log format corrupt-detect identically. A
//! receiver rejects frames that are truncated, oversized, version-skewed,
//! or checksum-mismatched *before* interpreting the body.
//!
//! Request bodies:
//!
//! | opcode | body |
//! |---|---|
//! | `GET` | `key u64` |
//! | `PUT` | `key u64, vlen u32, value` |
//! | `DELETE` | `key u64` |
//! | `SCAN` | `start u64, limit u32` |
//! | `BEGIN` / `COMMIT` / `ABORT` / `STATS` / `SHUTDOWN` | empty |
//!
//! Reply bodies (error flag clear): `GET` returns `vlen u32, value`;
//! `SCAN` returns `count u32` then `key u64, vlen u32, value` per row;
//! `BEGIN` returns `txn_id u64`; `STATS` returns `len u32, json`; the
//! rest are empty. With the error flag set the body is
//! `code u8, mlen u16, message` and bit 1 of `flags` mirrors
//! [`TxnError::is_retryable`](spitfire_txn::TxnError::is_retryable) so a
//! client can retry without parsing server error strings.

use spitfire_sync::crc32;
use spitfire_txn::TxnError;

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER: usize = 24;

/// Upper bound on one frame (header + body). Chosen to fit any sane SCAN
/// reply while keeping a malicious `len` from allocating gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Reply flag bit 0: the body is an error (`code, mlen, message`).
pub const FLAG_ERROR: u16 = 1 << 0;
/// Reply flag bit 1: the error is retryable (backoff and resend).
pub const FLAG_RETRYABLE: u16 = 1 << 1;

/// Command opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Point read.
    Get = 1,
    /// Upsert.
    Put = 2,
    /// Tombstone the key.
    Delete = 3,
    /// Range scan from a start key.
    Scan = 4,
    /// Open an explicit transaction on this connection.
    Begin = 5,
    /// Commit the open transaction.
    Commit = 6,
    /// Abort the open transaction.
    Abort = 7,
    /// Server statistics (JSON).
    Stats = 8,
    /// Ask the server to shut down (must be enabled server-side).
    Shutdown = 9,
}

impl Opcode {
    /// Parse a wire opcode.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            1 => Opcode::Get,
            2 => Opcode::Put,
            3 => Opcode::Delete,
            4 => Opcode::Scan,
            5 => Opcode::Begin,
            6 => Opcode::Commit,
            7 => Opcode::Abort,
            8 => Opcode::Stats,
            9 => Opcode::Shutdown,
            _ => return None,
        })
    }
}

/// A decoded request command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Point read of `key`.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Upsert `key` to `value`.
    Put {
        /// Key to write.
        key: u64,
        /// New value bytes.
        value: Vec<u8>,
    },
    /// Delete `key` (tombstone).
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// Scan up to `limit` live rows with keys ≥ `start`.
    Scan {
        /// First key of the range.
        start: u64,
        /// Maximum rows returned.
        limit: u32,
    },
    /// Open an explicit transaction.
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Server statistics.
    Stats,
    /// Request server shutdown.
    Shutdown,
}

impl Command {
    /// The wire opcode of this command.
    pub fn opcode(&self) -> Opcode {
        match self {
            Command::Get { .. } => Opcode::Get,
            Command::Put { .. } => Opcode::Put,
            Command::Delete { .. } => Opcode::Delete,
            Command::Scan { .. } => Opcode::Scan,
            Command::Begin => Opcode::Begin,
            Command::Commit => Opcode::Commit,
            Command::Abort => Opcode::Abort,
            Command::Stats => Opcode::Stats,
            Command::Shutdown => Opcode::Shutdown,
        }
    }

    /// Whether this command *finishes* work rather than creating it.
    /// Admission control always lets these through: shedding a COMMIT or
    /// ABORT would strand an open transaction holding versions and locks.
    pub fn is_finishing(&self) -> bool {
        matches!(
            self,
            Command::Commit | Command::Abort | Command::Stats | Command::Shutdown
        )
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Tenant the connection acts for.
    pub tenant: u32,
    /// Client correlation id, echoed in the reply.
    pub request_id: u64,
    /// The command.
    pub cmd: Command,
}

/// Typed error codes carried in error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// MVTO conflict; abort and retry the transaction.
    Conflict = 1,
    /// Key not visible / does not exist.
    NotFound = 2,
    /// Insert of an existing key.
    Duplicate = 3,
    /// Transaction state misuse (commit without begin, nested begin, …).
    TxnState = 4,
    /// Admission control shed the request (queues or memory pressure).
    Overload = 5,
    /// The tenant's token-bucket quota is exhausted.
    RateLimited = 6,
    /// Malformed frame or illegal field.
    Protocol = 7,
    /// Anything else (I/O faults, internal errors).
    Internal = 8,
}

impl ErrorCode {
    /// Parse a wire error code.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Conflict,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::Duplicate,
            4 => ErrorCode::TxnState,
            5 => ErrorCode::Overload,
            6 => ErrorCode::RateLimited,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A decoded reply body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success with no payload.
    Ok,
    /// GET result.
    Value(Vec<u8>),
    /// SCAN result rows.
    Rows(Vec<(u64, Vec<u8>)>),
    /// BEGIN result.
    TxnId(u64),
    /// STATS result (JSON text).
    Stats(String),
    /// Typed error.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Whether a backoff-and-resend can plausibly succeed.
        retryable: bool,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Error reply mapping a [`TxnError`] onto the wire, preserving its
    /// retryability.
    pub fn from_txn_error(e: &TxnError) -> Reply {
        let code = match e {
            TxnError::Conflict => ErrorCode::Conflict,
            TxnError::NotFound => ErrorCode::NotFound,
            TxnError::Duplicate => ErrorCode::Duplicate,
            TxnError::InactiveTransaction | TxnError::TransactionOpen => ErrorCode::TxnState,
            _ => ErrorCode::Internal,
        };
        Reply::Error {
            code,
            retryable: e.is_retryable(),
            message: e.to_string(),
        }
    }

    /// Shed reply used by admission control (always retryable).
    pub fn shed(code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Error {
            code,
            retryable: true,
            message: message.into(),
        }
    }
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyFrame {
    /// Echoed tenant.
    pub tenant: u32,
    /// Echoed correlation id.
    pub request_id: u64,
    /// Echoed opcode.
    pub opcode: Opcode,
    /// The body.
    pub reply: Reply,
}

/// Frame decoding errors. I/O errors are surfaced separately by the
/// transport helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length smaller than the header or larger than
    /// [`MAX_FRAME`].
    BadLength(u32),
    /// Checksum mismatch.
    BadCrc {
        /// CRC carried in the header.
        want: u32,
        /// CRC computed over the received bytes.
        got: u32,
    },
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Body shorter than its opcode requires, or with inconsistent
    /// internal lengths.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "bad frame length {n}"),
            FrameError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {want:#010x}, body {got:#010x}"
                )
            }
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadOpcode(o) => write!(f, "unknown opcode {o}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Little-endian cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self.at.checked_add(n).ok_or(FrameError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(FrameError::Malformed(what));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn done(&self, what: &'static str) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed(what))
        }
    }
}

/// Build a frame around `body`, filling in length and CRC.
fn seal(opcode: Opcode, flags: u16, tenant: u32, request_id: u64, body: &[u8]) -> Vec<u8> {
    let len = HEADER + body.len();
    debug_assert!(len <= MAX_FRAME, "oversized frame");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.push(PROTOCOL_VERSION);
    out.push(opcode as u8);
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Encode a request into a ready-to-send frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    match &req.cmd {
        Command::Get { key } | Command::Delete { key } => {
            body.extend_from_slice(&key.to_le_bytes());
        }
        Command::Put { key, value } => {
            body.extend_from_slice(&key.to_le_bytes());
            body.extend_from_slice(&(value.len() as u32).to_le_bytes());
            body.extend_from_slice(value);
        }
        Command::Scan { start, limit } => {
            body.extend_from_slice(&start.to_le_bytes());
            body.extend_from_slice(&limit.to_le_bytes());
        }
        Command::Begin | Command::Commit | Command::Abort | Command::Stats | Command::Shutdown => {}
    }
    seal(req.cmd.opcode(), 0, req.tenant, req.request_id, &body)
}

/// Encode a reply into a ready-to-send frame. `opcode` echoes the request.
pub fn encode_reply(opcode: Opcode, tenant: u32, request_id: u64, reply: &Reply) -> Vec<u8> {
    let mut body = Vec::new();
    let mut flags = 0u16;
    match reply {
        Reply::Ok => {}
        Reply::Value(v) => {
            body.extend_from_slice(&(v.len() as u32).to_le_bytes());
            body.extend_from_slice(v);
        }
        Reply::Rows(rows) => {
            body.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for (key, v) in rows {
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&(v.len() as u32).to_le_bytes());
                body.extend_from_slice(v);
            }
        }
        Reply::TxnId(id) => body.extend_from_slice(&id.to_le_bytes()),
        Reply::Stats(json) => {
            body.extend_from_slice(&(json.len() as u32).to_le_bytes());
            body.extend_from_slice(json.as_bytes());
        }
        Reply::Error {
            code,
            retryable,
            message,
        } => {
            flags |= FLAG_ERROR;
            if *retryable {
                flags |= FLAG_RETRYABLE;
            }
            body.push(*code as u8);
            let msg = message.as_bytes();
            let mlen = msg.len().min(u16::MAX as usize);
            body.extend_from_slice(&(mlen as u16).to_le_bytes());
            body.extend_from_slice(&msg[..mlen]);
        }
    }
    seal(opcode, flags, tenant, request_id, &body)
}

/// Validate a whole frame (header + CRC + version) and return
/// `(opcode, flags, tenant, request_id, body)`.
fn open_frame(frame: &[u8]) -> Result<(Opcode, u16, u32, u64, &[u8]), FrameError> {
    if frame.len() < HEADER || frame.len() > MAX_FRAME {
        return Err(FrameError::BadLength(frame.len() as u32));
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    if len != frame.len() {
        return Err(FrameError::BadLength(len as u32));
    }
    let want = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let got = crc32(&frame[8..]);
    if want != got {
        return Err(FrameError::BadCrc { want, got });
    }
    if frame[8] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(frame[8]));
    }
    let opcode = Opcode::from_u8(frame[9]).ok_or(FrameError::BadOpcode(frame[9]))?;
    let flags = u16::from_le_bytes(frame[10..12].try_into().unwrap());
    let tenant = u32::from_le_bytes(frame[12..16].try_into().unwrap());
    let request_id = u64::from_le_bytes(frame[16..24].try_into().unwrap());
    Ok((opcode, flags, tenant, request_id, &frame[HEADER..]))
}

/// Decode a complete request frame.
pub fn decode_request(frame: &[u8]) -> Result<Request, FrameError> {
    let (opcode, _flags, tenant, request_id, body) = open_frame(frame)?;
    let mut c = Cursor::new(body);
    let cmd = match opcode {
        Opcode::Get => Command::Get {
            key: c.u64("get key")?,
        },
        Opcode::Put => {
            let key = c.u64("put key")?;
            let vlen = c.u32("put vlen")? as usize;
            let value = c.take(vlen, "put value")?.to_vec();
            Command::Put { key, value }
        }
        Opcode::Delete => Command::Delete {
            key: c.u64("delete key")?,
        },
        Opcode::Scan => Command::Scan {
            start: c.u64("scan start")?,
            limit: c.u32("scan limit")?,
        },
        Opcode::Begin => Command::Begin,
        Opcode::Commit => Command::Commit,
        Opcode::Abort => Command::Abort,
        Opcode::Stats => Command::Stats,
        Opcode::Shutdown => Command::Shutdown,
    };
    c.done("trailing request bytes")?;
    Ok(Request {
        tenant,
        request_id,
        cmd,
    })
}

/// Decode a complete reply frame.
pub fn decode_reply(frame: &[u8]) -> Result<ReplyFrame, FrameError> {
    let (opcode, flags, tenant, request_id, body) = open_frame(frame)?;
    let mut c = Cursor::new(body);
    let reply = if flags & FLAG_ERROR != 0 {
        let code_raw = c.u8("error code")?;
        let code = ErrorCode::from_u8(code_raw).ok_or(FrameError::Malformed("error code"))?;
        let mlen = c.u16("error mlen")? as usize;
        let message = String::from_utf8_lossy(c.take(mlen, "error message")?).into_owned();
        Reply::Error {
            code,
            retryable: flags & FLAG_RETRYABLE != 0,
            message,
        }
    } else {
        match opcode {
            Opcode::Get => {
                let vlen = c.u32("value len")? as usize;
                Reply::Value(c.take(vlen, "value")?.to_vec())
            }
            Opcode::Scan => {
                let count = c.u32("row count")? as usize;
                if count > MAX_FRAME {
                    return Err(FrameError::Malformed("row count"));
                }
                let mut rows = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let key = c.u64("row key")?;
                    let vlen = c.u32("row vlen")? as usize;
                    rows.push((key, c.take(vlen, "row value")?.to_vec()));
                }
                Reply::Rows(rows)
            }
            Opcode::Begin => Reply::TxnId(c.u64("txn id")?),
            Opcode::Stats => {
                let jlen = c.u32("stats len")? as usize;
                Reply::Stats(String::from_utf8_lossy(c.take(jlen, "stats json")?).into_owned())
            }
            Opcode::Put | Opcode::Delete | Opcode::Commit | Opcode::Abort | Opcode::Shutdown => {
                Reply::Ok
            }
        }
    };
    c.done("trailing reply bytes")?;
    Ok(ReplyFrame {
        tenant,
        request_id,
        opcode,
        reply,
    })
}

/// Read one whole frame from `r` (blocking). Returns `Ok(None)` on a
/// clean EOF at a frame boundary; a mid-frame EOF is an
/// `UnexpectedEof` I/O error. Length sanity is checked *before* the body
/// is allocated.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => {
            if n < 4 {
                r.read_exact(&mut len_buf[n..])?;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(HEADER..=MAX_FRAME).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::BadLength(len as u32).to_string(),
        ));
    }
    let mut frame = vec![0u8; len];
    frame[0..4].copy_from_slice(&len_buf);
    r.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(cmd: Command) -> Request {
        let req = Request {
            tenant: 3,
            request_id: 77,
            cmd,
        };
        let frame = encode_request(&req);
        assert_eq!(decode_request(&frame).unwrap(), req);
        req
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Command::Get { key: 42 });
        round_trip_request(Command::Put {
            key: 1,
            value: vec![9u8; 100],
        });
        round_trip_request(Command::Delete { key: u64::MAX });
        round_trip_request(Command::Scan {
            start: 10,
            limit: 64,
        });
        round_trip_request(Command::Begin);
        round_trip_request(Command::Commit);
        round_trip_request(Command::Abort);
        round_trip_request(Command::Stats);
        round_trip_request(Command::Shutdown);
    }

    #[test]
    fn replies_round_trip() {
        for (op, reply) in [
            (Opcode::Get, Reply::Value(vec![1, 2, 3])),
            (
                Opcode::Scan,
                Reply::Rows(vec![(1, vec![4u8; 8]), (2, vec![5u8; 8])]),
            ),
            (Opcode::Begin, Reply::TxnId(99)),
            (Opcode::Put, Reply::Ok),
            (Opcode::Stats, Reply::Stats("{\"x\":1}".into())),
            (
                Opcode::Get,
                Reply::Error {
                    code: ErrorCode::Overload,
                    retryable: true,
                    message: "shed".into(),
                },
            ),
            (
                Opcode::Commit,
                Reply::Error {
                    code: ErrorCode::Conflict,
                    retryable: true,
                    message: "conflict".into(),
                },
            ),
        ] {
            let frame = encode_reply(op, 7, 123, &reply);
            let decoded = decode_reply(&frame).unwrap();
            assert_eq!(decoded.opcode, op);
            assert_eq!(decoded.tenant, 7);
            assert_eq!(decoded.request_id, 123);
            assert_eq!(decoded.reply, reply);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let req = Request {
            tenant: 0,
            request_id: 1,
            cmd: Command::Put {
                key: 5,
                value: vec![7u8; 32],
            },
        };
        let good = encode_request(&req);
        assert!(decode_request(&good).is_ok());

        // Flip one body byte: CRC must catch it.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            decode_request(&bad),
            Err(FrameError::BadCrc { .. })
        ));

        // Flip a header byte after the CRC region start (version).
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_request(&bad),
            Err(FrameError::BadCrc { .. }) | Err(FrameError::BadVersion(99))
        ));

        // Version skew with a recomputed CRC is still rejected.
        let mut bad = good.clone();
        bad[8] = 2;
        let crc = crc32(&bad[8..]);
        bad[4..8].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_request(&bad), Err(FrameError::BadVersion(2)));

        // Unknown opcode with a recomputed CRC.
        let mut bad = good.clone();
        bad[9] = 0xEE;
        let crc = crc32(&bad[8..]);
        bad[4..8].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_request(&bad), Err(FrameError::BadOpcode(0xEE)));

        // Truncated frame: declared length disagrees with the slice.
        let bad = &good[..good.len() - 3];
        assert!(matches!(decode_request(bad), Err(FrameError::BadLength(_))));

        // Body shorter than the opcode needs (recomputed length + CRC).
        let mut bad = good.clone();
        bad.truncate(HEADER + 8); // key only, vlen missing
        let len = bad.len() as u32;
        bad[0..4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&bad[8..]);
        bad[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_request(&bad),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn read_frame_handles_eof_and_oversize() {
        use std::io::Cursor as IoCursor;
        // Clean EOF.
        let mut empty = IoCursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        // Mid-frame EOF.
        let frame = encode_request(&Request {
            tenant: 0,
            request_id: 0,
            cmd: Command::Begin,
        });
        let mut truncated = IoCursor::new(frame[..frame.len() - 1].to_vec());
        assert!(read_frame(&mut truncated).is_err());
        // Whole frame round-trips through the transport reader.
        let mut whole = IoCursor::new(frame.clone());
        assert_eq!(read_frame(&mut whole).unwrap().unwrap(), frame);
        // Oversized declared length is rejected before allocation.
        let mut huge = IoCursor::new(((MAX_FRAME + 1) as u32).to_le_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
    }

    #[test]
    fn txn_errors_map_to_codes_and_retryability() {
        let conflict = Reply::from_txn_error(&TxnError::Conflict);
        assert!(matches!(
            conflict,
            Reply::Error {
                code: ErrorCode::Conflict,
                retryable: true,
                ..
            }
        ));
        let nf = Reply::from_txn_error(&TxnError::NotFound);
        assert!(matches!(
            nf,
            Reply::Error {
                code: ErrorCode::NotFound,
                retryable: false,
                ..
            }
        ));
        let open = Reply::from_txn_error(&TxnError::TransactionOpen);
        assert!(matches!(
            open,
            Reply::Error {
                code: ErrorCode::TxnState,
                retryable: false,
                ..
            }
        ));
    }
}
