//! The length-prefixed wire protocol: a fixed 20-byte header (magic,
//! version, kind/status, request id, payload length) followed by a UTF-8
//! payload in the `ir::textfmt` instance format.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "LMRA"
//!      4     2  protocol version (big-endian, currently 1)
//!      6     2  request kind / response status (big-endian)
//!      8     8  request id (big-endian; echoed verbatim in the response)
//!     16     4  payload length in bytes (big-endian)
//! ```
//!
//! Requests: `ping` (empty payload), `allocate` (an `allocate
//! registers=N [timeout_ms=M]` header line followed by a textfmt block
//! spec), `program` (a `program` header line followed by `-- block` /
//! `-- patterns` / `-- link` sections, one textfmt spec per block).
//! Responses echo the request id with a status code and a deterministic
//! text payload, so duplicate requests byte-compare.
//!
//! Every decode error is typed ([`WireError`], [`PayloadError`]) and every
//! oversized frame is refused with [`Status::TooLarge`] *before* the
//! payload is read — the malformed-input fuzz suite under `tests/` and the
//! seed corpus under `fuzz/` hold the decoder to "no panics, ever".

use lemra_core::{AllocationProblem, AllocationReport, BlockChain, Placement, ProgramAllocation};
use lemra_ir::{format_block_spec, parse_block_spec, ActivitySource, ParseSpecError, VarId};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Frame magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"LMRA";
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Default cap on payload size; larger frames are refused with
/// [`Status::TooLarge`] without reading the payload.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;
/// Registers accepted per request (the paper's instances use ≤ 16; this
/// bounds solver work per request).
pub const MAX_REGISTERS: u32 = 4096;

/// What a request frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Liveness probe; empty payload, `pong` response.
    Ping,
    /// Single-block allocation of a textfmt instance.
    Allocate,
    /// Whole-program allocation of a serialized block chain.
    Program,
}

impl RequestKind {
    fn from_u16(code: u16) -> Option<RequestKind> {
        match code {
            0 => Some(RequestKind::Ping),
            1 => Some(RequestKind::Allocate),
            2 => Some(RequestKind::Program),
            _ => None,
        }
    }

    /// The on-wire code.
    pub fn as_u16(self) -> u16 {
        match self {
            RequestKind::Ping => 0,
            RequestKind::Allocate => 1,
            RequestKind::Program => 2,
        }
    }
}

/// Response status codes — the degradation ladder a client sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request served; payload is the allocation / digest / pong.
    Ok,
    /// The payload failed to parse; payload is the typed reason.
    BadRequest,
    /// The declared payload length exceeded the server's cap.
    TooLarge,
    /// Admission control shed the request (queue at its watermark).
    /// Retry with backoff.
    Overloaded,
    /// The per-request deadline expired (in queue or mid-solve).
    DeadlineExceeded,
    /// The pipeline returned a structured allocation error.
    AllocFailed,
    /// A panic was contained while serving the request.
    Internal,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
}

impl Status {
    fn from_u16(code: u16) -> Option<Status> {
        match code {
            0 => Some(Status::Ok),
            1 => Some(Status::BadRequest),
            2 => Some(Status::TooLarge),
            3 => Some(Status::Overloaded),
            4 => Some(Status::DeadlineExceeded),
            5 => Some(Status::AllocFailed),
            6 => Some(Status::Internal),
            7 => Some(Status::ShuttingDown),
            _ => None,
        }
    }

    /// The on-wire code.
    pub fn as_u16(self) -> u16 {
        match self {
            Status::Ok => 0,
            Status::BadRequest => 1,
            Status::TooLarge => 2,
            Status::Overloaded => 3,
            Status::DeadlineExceeded => 4,
            Status::AllocFailed => 5,
            Status::Internal => 6,
            Status::ShuttingDown => 7,
        }
    }

    /// Whether a client retry can reasonably succeed (shed load, torn
    /// connection — not a malformed request).
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::Overloaded | Status::ShuttingDown)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Status::Ok => "ok",
            Status::BadRequest => "bad_request",
            Status::TooLarge => "too_large",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::AllocFailed => "alloc_failed",
            Status::Internal => "internal",
            Status::ShuttingDown => "shutting_down",
        };
        f.write_str(name)
    }
}

/// A decoded frame, direction-agnostic: `code` is a [`RequestKind`] on the
/// way in and a [`Status`] on the way out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Kind or status code (validated by the typed readers).
    pub code: u16,
    /// Request id, echoed in responses.
    pub id: u64,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Typed frame-decode errors. Never panics, never silently truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Unknown request kind code.
    BadKind(u16),
    /// Unknown response status code.
    BadStatus(u16),
    /// Declared payload length exceeds the cap; carries the request id so
    /// the server can respond [`Status::TooLarge`] in kind.
    TooLarge {
        /// Request id from the refused header.
        id: u64,
        /// Declared payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The stream ended inside a frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// An I/O error other than clean EOF.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown request kind {k}"),
            WireError::BadStatus(s) => write!(f, "unknown response status {s}"),
            WireError::TooLarge { id, len, max } => {
                write!(f, "request {id}: payload of {len} bytes exceeds cap {max}")
            }
            WireError::Truncated { context } => write!(f, "frame truncated in {context}"),
            WireError::Io(kind) => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

/// Encodes one frame.
///
/// Header and payload go out in a single `write_all` from one buffer: two
/// writes would put a small header segment on the wire first, and Nagle's
/// algorithm then holds the payload until the peer's delayed ACK (~40 ms)
/// on a socket without `TCP_NODELAY`.
///
/// # Errors
///
/// I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, code: u16, id: u64, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_be_bytes());
    frame.extend_from_slice(&code.to_be_bytes());
    frame.extend_from_slice(&id.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    debug_assert_eq!(frame.len(), HEADER_LEN);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Decodes one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// anything else that ends early is [`WireError::Truncated`]. The payload
/// is only read after its declared length passes the `max_payload` check.
///
/// # Errors
///
/// Any [`WireError`]; the connection should be closed on all of them
/// except [`WireError::TooLarge`], which the server answers first.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated { context: "header" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if header[0..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[0..4]);
        return Err(WireError::BadMagic(m));
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let code = u16::from_be_bytes([header[6], header[7]]);
    let id = u64::from_be_bytes(header[8..16].try_into().expect("8-byte slice"));
    let len = u32::from_be_bytes(header[16..20].try_into().expect("4-byte slice"));
    if len > max_payload {
        return Err(WireError::TooLarge {
            id,
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "payload" }
        } else {
            WireError::Io(e.kind())
        }
    })?;
    Ok(Some(Frame { code, id, payload }))
}

/// [`read_frame`] plus request-kind validation.
///
/// # Errors
///
/// [`WireError::BadKind`] on an unknown kind code, and everything
/// [`read_frame`] reports.
pub fn read_request(
    r: &mut impl Read,
    max_payload: u32,
) -> Result<Option<(RequestKind, Frame)>, WireError> {
    match read_frame(r, max_payload)? {
        None => Ok(None),
        Some(frame) => {
            let kind = RequestKind::from_u16(frame.code).ok_or(WireError::BadKind(frame.code))?;
            Ok(Some((kind, frame)))
        }
    }
}

/// [`read_frame`] plus response-status validation.
///
/// # Errors
///
/// [`WireError::BadStatus`] on an unknown status code, [`WireError::Truncated`]
/// on EOF mid-stream (a clean EOF before any byte is also truncation here:
/// a response was expected), and everything [`read_frame`] reports.
pub fn read_response(r: &mut impl Read, max_payload: u32) -> Result<(Status, Frame), WireError> {
    match read_frame(r, max_payload)? {
        None => Err(WireError::Truncated {
            context: "response",
        }),
        Some(frame) => {
            let status = Status::from_u16(frame.code).ok_or(WireError::BadStatus(frame.code))?;
            Ok((status, frame))
        }
    }
}

// ---------------------------------------------------------------------------
// Payload parsing
// ---------------------------------------------------------------------------

/// Typed payload-parse errors, each naming what was wrong; surfaced to the
/// client as the [`Status::BadRequest`] payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The first line was missing or did not start with the expected verb.
    MissingHeader {
        /// The verb that was expected (`allocate` or `program`).
        expected: &'static str,
    },
    /// A malformed header line or section directive.
    BadDirective {
        /// What was wrong.
        reason: String,
    },
    /// The embedded textfmt block spec failed to parse.
    Spec(ParseSpecError),
    /// The assembled block chain is structurally invalid.
    BadChain {
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::NotUtf8 => write!(f, "payload is not valid UTF-8"),
            PayloadError::MissingHeader { expected } => {
                write!(f, "payload must start with a `{expected}` header line")
            }
            PayloadError::BadDirective { reason } => write!(f, "{reason}"),
            PayloadError::Spec(e) => write!(f, "block spec: {e}"),
            PayloadError::BadChain { reason } => write!(f, "bad block chain: {reason}"),
        }
    }
}

impl std::error::Error for PayloadError {}

impl From<ParseSpecError> for PayloadError {
    fn from(e: ParseSpecError) -> Self {
        PayloadError::Spec(e)
    }
}

/// A parsed `allocate` request.
#[derive(Debug, Clone)]
pub struct AllocateRequest {
    /// The instance, with default energy model and graph style.
    pub problem: AllocationProblem,
    /// Variable names from the spec, [`VarId`] order.
    pub names: Vec<String>,
    /// Client-supplied deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
}

/// A parsed `program` request.
#[derive(Debug, Clone)]
pub struct ProgramRequest {
    /// The block chain, ready for `allocate_program_threads`.
    pub chain: BlockChain,
    /// Client-supplied deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
}

/// One `key=value` attribute split; bare words are values with empty keys.
fn split_attr(word: &str) -> (&str, Option<&str>) {
    match word.split_once('=') {
        Some((k, v)) => (k, Some(v)),
        None => (word, None),
    }
}

fn parse_u64_attr(key: &str, value: Option<&str>) -> Result<u64, PayloadError> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| PayloadError::BadDirective {
            reason: format!("`{key}` needs a non-negative integer value"),
        })
}

fn parse_f64_attr(key: &str, value: Option<&str>) -> Result<f64, PayloadError> {
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|h| h.is_finite() && *h >= 0.0)
        .ok_or_else(|| PayloadError::BadDirective {
            reason: format!("`{key}` needs a finite non-negative value"),
        })
}

/// Attributes shared by `allocate` headers and `-- block` directives.
#[derive(Debug, Default)]
struct BlockAttrs {
    registers: Option<u32>,
    timeout_ms: Option<u64>,
    hamming: Option<f64>,
}

fn attrs_from<'a>(
    words: impl Iterator<Item = &'a str>,
    allow_timeout: bool,
) -> Result<BlockAttrs, PayloadError> {
    let mut attrs = BlockAttrs::default();
    for word in words {
        let (key, value) = split_attr(word);
        match key {
            "registers" => {
                let n = parse_u64_attr(key, value)?;
                if n == 0 || n > u64::from(MAX_REGISTERS) {
                    return Err(PayloadError::BadDirective {
                        reason: format!("`registers` must be in 1..={MAX_REGISTERS}, got {n}"),
                    });
                }
                attrs.registers = Some(n as u32);
            }
            "timeout_ms" if allow_timeout => {
                attrs.timeout_ms = Some(parse_u64_attr(key, value)?);
            }
            "hamming" => attrs.hamming = Some(parse_f64_attr(key, value)?),
            other => {
                return Err(PayloadError::BadDirective {
                    reason: format!("unknown attribute `{other}`"),
                });
            }
        }
    }
    Ok(attrs)
}

fn payload_text(payload: &[u8]) -> Result<&str, PayloadError> {
    std::str::from_utf8(payload).map_err(|_| PayloadError::NotUtf8)
}

/// Splits the payload into its header line (first non-blank, non-comment
/// line, which must start with `expected`) and the remainder.
fn split_header<'a>(
    text: &'a str,
    expected: &'static str,
) -> Result<(&'a str, &'a str), PayloadError> {
    let mut offset = 0;
    for line in text.lines() {
        let content = line.split('#').next().unwrap_or("").trim();
        let line_end = offset + line.len();
        if content.is_empty() {
            offset = line_end + 1;
            continue;
        }
        if content == expected || content.starts_with(&format!("{expected} ")) {
            let rest = text.get(line_end..).unwrap_or("");
            return Ok((content, rest));
        }
        return Err(PayloadError::MissingHeader { expected });
    }
    Err(PayloadError::MissingHeader { expected })
}

/// Parses an `allocate` payload: the header line, then a textfmt spec.
///
/// # Errors
///
/// Any [`PayloadError`]; all are surfaced as [`Status::BadRequest`].
pub fn parse_allocate_payload(payload: &[u8]) -> Result<AllocateRequest, PayloadError> {
    let text = payload_text(payload)?;
    let (header, body) = split_header(text, "allocate")?;
    let attrs = attrs_from(header.split_whitespace().skip(1), true)?;
    let registers = attrs.registers.ok_or_else(|| PayloadError::BadDirective {
        reason: "`allocate` needs registers=<n>".to_owned(),
    })?;
    let spec = parse_block_spec(body)?;
    let mut problem = AllocationProblem::new(spec.table, registers);
    if let Some(h) = attrs.hamming {
        problem = problem.with_activity(ActivitySource::Uniform { hamming: h });
    }
    Ok(AllocateRequest {
        problem,
        names: spec.names,
        timeout_ms: attrs.timeout_ms,
    })
}

/// Parses a `program` payload into a [`BlockChain`].
///
/// Grammar after the `program [timeout_ms=M]` header line:
///
/// ```text
/// -- block registers=R [hamming=H]   # starts block k
/// <textfmt lines for block k>
/// -- patterns width=W aa,1b,...      # optional: BitPatterns activity
/// -- link 3:0 5:1                    # optional: carried pairs k -> k+1
/// ```
///
/// A missing `-- link` between two blocks means no carried values. The
/// serialized form is produced by [`format_program_payload`] and
/// round-trips.
///
/// # Errors
///
/// Any [`PayloadError`]; all are surfaced as [`Status::BadRequest`].
pub fn parse_program_payload(payload: &[u8]) -> Result<ProgramRequest, PayloadError> {
    let text = payload_text(payload)?;
    let (header, body) = split_header(text, "program")?;
    let attrs = attrs_from(header.split_whitespace().skip(1), true)?;

    struct PendingBlock {
        registers: u32,
        hamming: Option<f64>,
        spec: String,
        patterns: Option<(Vec<u64>, u32)>,
    }
    let mut blocks: Vec<PendingBlock> = Vec::new();
    let mut links: Vec<Option<Vec<(VarId, VarId)>>> = Vec::new();

    for raw in body.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(directive) = line.strip_prefix("--") {
            let mut words = directive.split_whitespace();
            match words.next() {
                Some("block") => {
                    let attrs = attrs_from(words, false)?;
                    let registers = attrs.registers.ok_or_else(|| PayloadError::BadDirective {
                        reason: "`-- block` needs registers=<n>".to_owned(),
                    })?;
                    blocks.push(PendingBlock {
                        registers,
                        hamming: attrs.hamming,
                        spec: String::new(),
                        patterns: None,
                    });
                }
                Some("patterns") => {
                    let block = blocks
                        .last_mut()
                        .ok_or_else(|| PayloadError::BadDirective {
                            reason: "`-- patterns` before any `-- block`".to_owned(),
                        })?;
                    if block.patterns.is_some() {
                        return Err(PayloadError::BadDirective {
                            reason: "duplicate `-- patterns` for one block".to_owned(),
                        });
                    }
                    let width_word = words.next().ok_or_else(|| PayloadError::BadDirective {
                        reason: "`-- patterns` needs width=<bits>".to_owned(),
                    })?;
                    let (key, value) = split_attr(width_word);
                    if key != "width" {
                        return Err(PayloadError::BadDirective {
                            reason: format!("`-- patterns` expected width=<bits>, got `{key}`"),
                        });
                    }
                    let width = parse_u64_attr(key, value)?;
                    if width == 0 || width > 64 {
                        return Err(PayloadError::BadDirective {
                            reason: format!("pattern width must be in 1..=64, got {width}"),
                        });
                    }
                    let list = words.next().ok_or_else(|| PayloadError::BadDirective {
                        reason: "`-- patterns` needs a comma-separated hex list".to_owned(),
                    })?;
                    if words.next().is_some() {
                        return Err(PayloadError::BadDirective {
                            reason: "`-- patterns` takes exactly width= and one list".to_owned(),
                        });
                    }
                    let mut patterns = Vec::new();
                    for hex in list.split(',').filter(|p| !p.is_empty()) {
                        let p = u64::from_str_radix(hex, 16).map_err(|_| {
                            PayloadError::BadDirective {
                                reason: format!("bad hex pattern `{hex}`"),
                            }
                        })?;
                        patterns.push(p);
                    }
                    block.patterns = Some((patterns, width as u32));
                }
                Some("link") => {
                    if blocks.is_empty() {
                        return Err(PayloadError::BadDirective {
                            reason: "`-- link` before any `-- block`".to_owned(),
                        });
                    }
                    let gap = blocks.len() - 1;
                    if links.len() > gap {
                        return Err(PayloadError::BadDirective {
                            reason: format!("duplicate `-- link` after block {gap}"),
                        });
                    }
                    links.resize(gap, None);
                    let mut pairs = Vec::new();
                    for pair in words {
                        let (out, into) =
                            pair.split_once(':')
                                .ok_or_else(|| PayloadError::BadDirective {
                                    reason: format!("link pair `{pair}` is not out:in"),
                                })?;
                        let parse = |s: &str| {
                            s.parse::<u32>().map_err(|_| PayloadError::BadDirective {
                                reason: format!("link pair `{pair}` has a non-numeric var id"),
                            })
                        };
                        pairs.push((VarId(parse(out)?), VarId(parse(into)?)));
                    }
                    links.push(Some(pairs));
                }
                Some(other) => {
                    return Err(PayloadError::BadDirective {
                        reason: format!("unknown section directive `-- {other}`"),
                    });
                }
                None => {
                    return Err(PayloadError::BadDirective {
                        reason: "empty `--` section directive".to_owned(),
                    });
                }
            }
        } else {
            let block = blocks
                .last_mut()
                .ok_or_else(|| PayloadError::BadDirective {
                    reason: format!("`{line}` before any `-- block` directive"),
                })?;
            block.spec.push_str(line);
            block.spec.push('\n');
        }
    }

    if blocks.is_empty() {
        return Err(PayloadError::BadChain {
            reason: "a program needs at least one `-- block`".to_owned(),
        });
    }
    if links.len() > blocks.len() - 1 {
        return Err(PayloadError::BadChain {
            reason: "`-- link` after the final block".to_owned(),
        });
    }

    let mut chain_blocks = Vec::with_capacity(blocks.len());
    for pending in blocks {
        let spec = parse_block_spec(&pending.spec)?;
        let var_count = spec.table.len();
        let mut problem = AllocationProblem::new(spec.table, pending.registers);
        if let Some((patterns, width)) = pending.patterns {
            if patterns.len() != var_count {
                return Err(PayloadError::BadChain {
                    reason: format!(
                        "pattern count {} does not match {} block variables",
                        patterns.len(),
                        var_count
                    ),
                });
            }
            problem = problem.with_activity(ActivitySource::BitPatterns { patterns, width });
        } else if let Some(h) = pending.hamming {
            problem = problem.with_activity(ActivitySource::Uniform { hamming: h });
        }
        chain_blocks.push(problem);
    }
    let links = (0..chain_blocks.len() - 1)
        .map(|gap| links.get(gap).cloned().flatten().unwrap_or_default())
        .collect();

    Ok(ProgramRequest {
        chain: BlockChain {
            blocks: chain_blocks,
            links,
        },
        timeout_ms: attrs.timeout_ms,
    })
}

// ---------------------------------------------------------------------------
// Payload formatting (client side + deterministic responses)
// ---------------------------------------------------------------------------

/// Builds an `allocate` request payload from a raw textfmt spec.
pub fn format_allocate_payload(spec: &str, registers: u32, timeout_ms: Option<u64>) -> Vec<u8> {
    let mut out = format!("allocate registers={registers}");
    if let Some(ms) = timeout_ms {
        let _ = write!(out, " timeout_ms={ms}");
    }
    out.push('\n');
    out.push_str(spec);
    out.into_bytes()
}

/// Why a [`BlockChain`] cannot be expressed in protocol v1 (which carries
/// default energy models, graph style and split options only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedChain {
    /// Which block and field stopped serialization.
    pub reason: String,
}

impl std::fmt::Display for UnsupportedChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chain not expressible in wire format v1: {}",
            self.reason
        )
    }
}

impl std::error::Error for UnsupportedChain {}

/// Serializes a [`BlockChain`] into a `program` payload that
/// [`parse_program_payload`] round-trips. Protocol v1 carries per-block
/// registers, lifetimes, and `BitPatterns`/`Uniform` activity; chains
/// using non-default energy models, styles, splits or pair-table activity
/// are refused.
///
/// # Errors
///
/// [`UnsupportedChain`] naming the first inexpressible field.
pub fn format_program_payload(
    chain: &BlockChain,
    timeout_ms: Option<u64>,
) -> Result<Vec<u8>, UnsupportedChain> {
    let mut out = String::from("program");
    if let Some(ms) = timeout_ms {
        let _ = write!(out, " timeout_ms={ms}");
    }
    out.push('\n');
    for (i, block) in chain.blocks.iter().enumerate() {
        let default = AllocationProblem::new(block.lifetimes.clone(), block.registers);
        let unsupported = |field: &str| UnsupportedChain {
            reason: format!("block {i}: non-default {field}"),
        };
        if block.energy != default.energy {
            return Err(unsupported("energy model"));
        }
        if block.register_energy != default.register_energy {
            return Err(unsupported("register energy kind"));
        }
        if block.style != default.style {
            return Err(unsupported("graph style"));
        }
        if block.split != default.split {
            return Err(unsupported("split options"));
        }
        if block.relief_arcs != default.relief_arcs {
            return Err(unsupported("relief arcs"));
        }
        if !block.carried_in_memory.is_empty() || !block.carried_in_register.is_empty() {
            return Err(unsupported("carried-variable pins (derived from links)"));
        }
        let _ = write!(out, "-- block registers={}", block.registers);
        let mut patterns_line = None;
        match &block.activity {
            ActivitySource::BitPatterns { patterns, width } => {
                let list: Vec<String> = patterns.iter().map(|p| format!("{p:x}")).collect();
                patterns_line = Some(format!("-- patterns width={} {}", width, list.join(",")));
            }
            ActivitySource::Uniform { hamming } => {
                if block.activity != default.activity {
                    let _ = write!(out, " hamming={hamming}");
                }
            }
            ActivitySource::PairTable { .. } => {
                return Err(unsupported("pair-table activity"));
            }
        }
        out.push('\n');
        out.push_str(&format_block_spec(&block.lifetimes, &[]));
        if let Some(line) = patterns_line {
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(pairs) = chain.links.get(i) {
            if !pairs.is_empty() {
                let list: Vec<String> = pairs
                    .iter()
                    .map(|(a, b)| format!("{}:{}", a.0, b.0))
                    .collect();
                let _ = writeln!(out, "-- link {}", list.join(" "));
            }
        }
    }
    Ok(out.into_bytes())
}

/// Renders an `allocate` response payload: a deterministic text digest of
/// the allocation (placements per variable, report counters), so duplicate
/// requests byte-compare and CI can diff server output against offline
/// allocation.
pub fn format_allocation(
    request: &AllocateRequest,
    allocation: &lemra_core::Allocation,
    report: &AllocationReport,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "allocation registers_used={} locations={} flow_cost={}",
        allocation.registers_used(),
        allocation.storage_locations(),
        allocation.flow_cost().as_units(),
    );
    let _ = writeln!(
        out,
        "energy static={:.3} activity={:.3}",
        report.static_energy, report.activity_energy
    );
    let _ = writeln!(
        out,
        "accesses mem={}/{} reg={}/{}",
        report.mem_reads, report.mem_writes, report.reg_reads, report.reg_writes
    );
    let segmentation = allocation.segmentation();
    for lt in request.problem.lifetimes.iter() {
        let var = lt.var;
        let name = request
            .names
            .get(var.index())
            .map_or_else(|| var.to_string(), Clone::clone);
        let _ = write!(out, "var {name}:");
        for seg in segmentation.segments_of(var) {
            let id = segmentation.id_of(var, seg.index);
            match allocation.placement(id) {
                Placement::Register(r) => {
                    let _ = write!(out, " R{r}");
                }
                Placement::Memory => match allocation.memory_address(var) {
                    Some(addr) => {
                        let _ = write!(out, " M{addr}");
                    }
                    None => out.push_str(" M?"),
                },
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a `program` response payload: the same per-block digest lines
/// the `wholeprogram` driver prints, preceded by a `program` header. The
/// load generator computes this offline from `allocate_program_threads`
/// and byte-compares it against the server's response.
pub fn format_program_digest(program: &ProgramAllocation) -> String {
    let mut out = String::new();
    let total_vars: usize = program
        .chain
        .problems
        .iter()
        .map(|p| p.lifetimes.len())
        .sum();
    let _ = writeln!(
        out,
        "program blocks={} vars={}",
        program.chain.reports.len(),
        total_vars
    );
    for (i, report) in program.chain.reports.iter().enumerate() {
        let problem = &program.chain.problems[i];
        let _ = writeln!(
            out,
            "block {i:>3}: regs={} mem_rw={}/{} reg_rw={}/{} carried_reg={} carried_mem={} \
             static={:.3} activity={:.3} addrs={}",
            report.registers_used,
            report.mem_reads,
            report.mem_writes,
            report.reg_reads,
            report.reg_writes,
            problem.carried_in_register.len(),
            problem.carried_in_memory.len(),
            report.static_energy,
            report.activity_energy,
            program.realloc[i].locations,
        );
    }
    let _ = writeln!(
        out,
        "total: static={:.3} activity={:.3} mem_accesses={} switching={:.3}",
        program.chain.total_static_energy(),
        program.chain.total_activity_energy(),
        program.chain.total_mem_accesses(),
        program.total_switching(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const FIGURE1: &str = "\
block 7
var a def=1 reads=3
var b def=1 reads=3
var c def=2 liveout
var d def=3 liveout
var e def=5 reads=7
";

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 42, b"hello").unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 5);
        let frame = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(frame.code, 1);
        assert_eq!(frame.id, 42);
        assert_eq!(frame.payload, b"hello");
        // Clean EOF at the frame boundary.
        let mut cursor = Cursor::new(&buf);
        read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .is_none());
    }

    #[test]
    fn decoder_rejects_bad_headers_typed() {
        let mut good = Vec::new();
        write_frame(&mut good, 0, 7, b"").unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad_magic), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[5] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad_version), DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadVersion(9))
        ));

        for cut in 1..good.len() {
            let err = read_frame(&mut Cursor::new(&good[..cut]), DEFAULT_MAX_PAYLOAD);
            assert!(
                matches!(err, Err(WireError::Truncated { .. }) | Ok(Some(_))),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_the_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 3, &[0u8; 64]).unwrap();
        match read_frame(&mut Cursor::new(&buf), 16) {
            Err(WireError::TooLarge {
                id: 3,
                len: 64,
                max: 16,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn allocate_payload_round_trips() {
        let payload = format_allocate_payload(FIGURE1, 2, Some(250));
        let req = parse_allocate_payload(&payload).unwrap();
        assert_eq!(req.problem.registers, 2);
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.names, vec!["a", "b", "c", "d", "e"]);
        assert_eq!(req.problem.lifetimes.block_len(), 7);
    }

    #[test]
    fn allocate_payload_errors_are_typed() {
        assert!(matches!(
            parse_allocate_payload(&[0xff, 0xfe]),
            Err(PayloadError::NotUtf8)
        ));
        assert!(matches!(
            parse_allocate_payload(b"block 7\n"),
            Err(PayloadError::MissingHeader {
                expected: "allocate"
            })
        ));
        assert!(matches!(
            parse_allocate_payload(b"allocate\nblock 7\n"),
            Err(PayloadError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_allocate_payload(b"allocate registers=0\nblock 7\n"),
            Err(PayloadError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_allocate_payload(b"allocate registers=2\nvar a def=1\n"),
            Err(PayloadError::Spec(_))
        ));
    }

    #[test]
    fn program_payload_round_trips_with_patterns_and_links() {
        use lemra_ir::LifetimeTable;
        let table = |shift: u32| {
            LifetimeTable::from_intervals(8, vec![(1 + shift, vec![4], false), (2, vec![6], true)])
                .unwrap()
        };
        let chain = BlockChain {
            blocks: vec![
                AllocationProblem::new(table(0), 2).with_activity(ActivitySource::BitPatterns {
                    patterns: vec![0x1a, 0xff],
                    width: 8,
                }),
                AllocationProblem::new(table(1), 3),
            ],
            links: vec![vec![(VarId(1), VarId(0))]],
        };
        let payload = format_program_payload(&chain, None).unwrap();
        let req = parse_program_payload(&payload).unwrap();
        assert_eq!(req.chain.blocks.len(), 2);
        assert_eq!(req.chain.links, chain.links);
        assert_eq!(req.chain.blocks[0].registers, 2);
        assert_eq!(req.chain.blocks[1].registers, 3);
        assert_eq!(
            req.chain.blocks[0].activity,
            ActivitySource::BitPatterns {
                patterns: vec![0x1a, 0xff],
                width: 8
            }
        );
        assert_eq!(req.chain.blocks[0].lifetimes, chain.blocks[0].lifetimes);
        // Round-trip again: serialize the parsed chain and byte-compare.
        let payload2 = format_program_payload(&req.chain, None).unwrap();
        assert_eq!(payload, payload2);
    }

    #[test]
    fn program_payload_errors_are_typed() {
        assert!(matches!(
            parse_program_payload(b"program\n"),
            Err(PayloadError::BadChain { .. })
        ));
        assert!(matches!(
            parse_program_payload(b"program\nblock 7\n"),
            Err(PayloadError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_program_payload(b"program\n-- widget\n"),
            Err(PayloadError::BadDirective { .. })
        ));
        assert!(matches!(
            parse_program_payload(
                b"program\n-- block registers=2\nblock 4\nvar a def=1\n-- patterns width=8 zz\n"
            ),
            Err(PayloadError::BadDirective { .. })
        ));
        // Pattern count must match the block's variable count.
        assert!(matches!(
            parse_program_payload(
                b"program\n-- block registers=2\nblock 4\nvar a def=1 reads=3\n-- patterns width=8 1,2,3\n"
            ),
            Err(PayloadError::BadChain { .. })
        ));
    }
}
