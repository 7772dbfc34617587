//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every frame is one line of UTF-8 JSON terminated by `\n`, at most
//! [`MAX_LINE_BYTES`] long, with a `"type"` tag naming the variant. The
//! encoder and decoder are hand-rolled (the workspace is offline-vendored
//! and carries no serde) and build no JSON tree.
//!
//! Decoding is one validating scan of the line, trailing bytes included,
//! that picks out the frame's known keys as it goes. The **first**
//! occurrence of a key wins; later duplicates and unknown keys are
//! validated and dropped. Numbers are parsed in place with
//! `str::parse::<f64>` and must be finite. Strings stay borrowed from the
//! line and are unescaped only when read, and only if they hold an
//! escape, so an escaped key such as `"us\u0065r"` still names `user`.
//! Nested arrays and objects (`shares`, the `stats` sections) stay as
//! validated spans that are re-scanned when the frame reads them.
//! Nesting is bounded at 64 open containers, the frame's own object
//! included: deeper input is [`ErrorCode::Malformed`], so no line can
//! exhaust a connection thread's stack.
//!
//! Encoding writes straight into the caller's buffer. `f64` fields are
//! formatted with Rust's shortest-round-trip `Display`, so a value
//! decodes back to the exact same bits — the property the round-trip
//! proptests pin.
//!
//! Sessions open with a versioned handshake: the client's first frame
//! must be `{"type":"hello","version":N}` with `N` equal to
//! [`PROTOCOL_VERSION`]; anything else is refused with an error frame and
//! the connection closes. After `{"type":"welcome",..}` the client streams
//! requests and reads one response frame per request, in order. Errors
//! never tear down framing: a malformed line is answered with an error
//! frame and the session continues (only oversized lines close the
//! connection, because the frame boundary itself is no longer trusted).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Protocol version spoken by this build; bumped on any wire change
/// (v2 added the `observe` sequence number for idempotent retries, the
/// `overloaded`/`evicted` error codes, and the shed/evicted counters in
/// server stats).
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame (including the terminating newline). Lines
/// beyond it are rejected with an [`ErrorCode::Oversized`] frame and the
/// connection closes.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// Machine-readable error category carried by an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version differs from [`PROTOCOL_VERSION`].
    Version,
    /// First frame was not `hello`, or `hello` arrived twice.
    Handshake,
    /// The line was not valid JSON, or not a known frame shape.
    Malformed,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// A field failed validation (non-finite harvest, unknown user, ...).
    BadRequest,
    /// The referenced user does not exist in the resident fleet.
    UnknownUser,
    /// A checkpoint/restore operation failed (I/O or format).
    Snapshot,
    /// The server is shedding this request class under overload; safe to
    /// retry after a backoff.
    Overloaded,
    /// The connection is being evicted (stalled mid-frame past the
    /// server's frame deadline).
    Evicted,
    /// The server failed internally while handling the request.
    Internal,
}

impl ErrorCode {
    /// The stable wire string of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Version => "version",
            ErrorCode::Handshake => "handshake",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownUser => "unknown_user",
            ErrorCode::Snapshot => "snapshot",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Evicted => "evicted",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back to the code.
    #[must_use]
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "version" => ErrorCode::Version,
            "handshake" => ErrorCode::Handshake,
            "malformed" => ErrorCode::Malformed,
            "oversized" => ErrorCode::Oversized,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_user" => ErrorCode::UnknownUser,
            "snapshot" => ErrorCode::Snapshot,
            "overloaded" => ErrorCode::Overloaded,
            "evicted" => ErrorCode::Evicted,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: the error frame it should be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Versioned handshake; must be the first frame of a session.
    Hello {
        /// Client protocol version.
        version: u32,
    },
    /// Stream one completed hour of one user's life into the resident
    /// state: hour `hour` (any absolute hour; slotted mod 24) harvested
    /// `harvest_j` joules, with an optional activity intensity.
    Observe {
        /// Fleet user index.
        user: u32,
        /// Hour the observation describes (taken mod 24 for the diurnal
        /// slot).
        hour: u32,
        /// Energy harvested during the hour, in joules (finite, >= 0).
        harvest_j: f64,
        /// Optional activity intensity for the hour (finite if present).
        activity: Option<f64>,
        /// Optional client sequence number (starting at 1, strictly
        /// increasing per user) making the observe idempotent: resending
        /// the newest applied number replays the cached budget instead of
        /// reapplying the observation.
        seq: Option<u64>,
    },
    /// Serve an allocation decision for the user's upcoming hour from the
    /// cohort's cached plan frontier. Read-only: repeated decides are
    /// idempotent.
    Decide {
        /// Fleet user index.
        user: u32,
    },
    /// Fetch fleet + server statistics.
    Stats,
    /// Write a versioned binary snapshot of the whole population.
    Checkpoint {
        /// Filesystem path to write.
        path: String,
    },
    /// Replace the whole population's state from a snapshot.
    Restore {
        /// Filesystem path to read.
        path: String,
    },
    /// Gracefully stop the server: in-flight connections drain, an exit
    /// checkpoint is written if configured, the process exits 0.
    Shutdown,
}

/// One operating point's share of a served decision, on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireShare {
    /// Operating point id.
    pub id: u8,
    /// Seconds of the period at this point.
    pub seconds: f64,
}

/// The deterministic, checkpoint-covered half of a `stats` response:
/// pure functions of the observation stream, bit-identical across
/// checkpoint/restore (the property the snapshot tests pin).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Resident users.
    pub users: u32,
    /// Distinct `(operating points, alpha)` cohorts sharing a frontier.
    pub cohorts: u32,
    /// Total observations absorbed.
    pub observations: u64,
    /// Sum of harvested energy over all observations, in joules.
    pub harvested_j: f64,
    /// Sum of granted budgets over all observations, in joules.
    pub budget_j: f64,
    /// Sum of current virtual-battery levels, in joules.
    pub battery_j: f64,
    /// Sum of reported activity intensities.
    pub activity: f64,
    /// FNV-1a digest over every user's serialized resident state.
    pub state_digest: u64,
}

/// The timing-dependent half of a `stats` response: request counters and
/// latency quantiles. Not checkpointed (a restored server starts fresh).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Total requests handled (post-handshake).
    pub requests: u64,
    /// Error frames sent.
    pub errors: u64,
    /// `observe` requests handled.
    pub observes: u64,
    /// `decide` requests handled.
    pub decides: u64,
    /// `checkpoint` requests handled.
    pub checkpoints: u64,
    /// `restore` requests handled.
    pub restores: u64,
    /// Connections evicted for stalling mid-frame past the frame
    /// deadline (slow-loris defense).
    pub evicted: u64,
    /// `observe` requests shed with [`ErrorCode::Overloaded`] while the
    /// server was over its shed threshold.
    pub shed: u64,
    /// Server-side observe handling p50, in microseconds.
    pub observe_p50_us: f64,
    /// Server-side observe handling p99, in microseconds.
    pub observe_p99_us: f64,
    /// Server-side decide handling p50, in microseconds.
    pub decide_p50_us: f64,
    /// Server-side decide handling p99, in microseconds.
    pub decide_p99_us: f64,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    Welcome {
        /// Server protocol version (equals [`PROTOCOL_VERSION`]).
        version: u32,
        /// Resident fleet size.
        users: u32,
    },
    /// An observation was absorbed; echoes the open-loop budget granted
    /// for the observed hour.
    Observed {
        /// Fleet user index.
        user: u32,
        /// Echo of the observed hour.
        hour: u32,
        /// Budget granted for the observed hour, in joules.
        budget_j: f64,
    },
    /// A served allocation decision.
    Decision {
        /// Fleet user index.
        user: u32,
        /// Budget the plan was decided at, in joules.
        budget_j: f64,
        /// Expected accuracy of the plan over the period.
        accuracy: f64,
        /// Active seconds of the plan.
        active_s: f64,
        /// Energy the plan consumes, in joules.
        energy_j: f64,
        /// Off-state seconds of the plan.
        off_s: f64,
        /// The (at most two) point shares of the blend, ascending id.
        shares: Vec<WireShare>,
    },
    /// Fleet + server statistics.
    Stats {
        /// Deterministic, checkpoint-covered statistics.
        fleet: FleetStats,
        /// Timing-dependent request-path statistics.
        server: ServerStats,
    },
    /// A checkpoint was written.
    CheckpointDone {
        /// Path written.
        path: String,
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// A snapshot was restored.
    RestoreDone {
        /// Path read.
        path: String,
        /// Users restored.
        users: u32,
    },
    /// Acknowledges a shutdown request; the server stops accepting and
    /// drains.
    ShuttingDown,
    /// An error frame.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Response {
        Response::Error {
            code: e.code,
            message: e.message,
        }
    }
}

// ---------------------------------------------------------------------
// One-pass validating scanner
// ---------------------------------------------------------------------

/// Deepest container nesting a frame may carry, the frame's own object
/// included. Deeper input is [`ErrorCode::Malformed`]; the bound is what
/// keeps the scanner's recursion, and so one hostile line, from
/// exhausting a connection thread's stack.
const MAX_DEPTH: usize = 64;

/// A JSON string as it sits in the line, quotes included. It is
/// unescaped only when read, and only if it holds an escape.
#[derive(Debug, Clone, Copy)]
struct Text<'a> {
    quoted: &'a str,
    escaped: bool,
}

impl<'a> Text<'a> {
    /// The decoded string: borrowed from the line unless it held an
    /// escape.
    fn read(self) -> Result<Cow<'a, str>, ProtocolError> {
        if self.escaped {
            let mut out = String::with_capacity(self.quoted.len());
            Scanner::new(self.quoted).string(Some(&mut out))?;
            return Ok(Cow::Owned(out));
        }
        self.quoted
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(Cow::Borrowed)
            .ok_or_else(|| ProtocolError::new(ErrorCode::Malformed, "string lost its quotes"))
    }
}

/// One scanned JSON value. Numbers are decoded in place; strings and
/// containers stay as already-validated spans of the line.
#[derive(Debug, Clone, Copy)]
enum Val<'a> {
    /// The key did not occur in the object.
    Absent,
    Null,
    Bool,
    Num(f64),
    Str(Text<'a>),
    /// An array, brackets included.
    Arr(&'a str),
    /// An object, braces included.
    Obj(&'a str),
}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> ProtocolError {
        ProtocolError::new(ErrorCode::Malformed, format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ProtocolError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// The text from `start` to the cursor. Both ends sit next to ASCII
    /// bytes, so they are always char boundaries.
    fn since(&self, start: usize) -> Result<&'a str, ProtocolError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("span off a char boundary"))
    }

    /// Scans one value, with `depth` containers already open around it.
    fn value(&mut self, depth: usize) -> Result<Val<'a>, ProtocolError> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(b'{') => {
                self.object(depth + 1, |_, _| Ok(()))?;
                Ok(Val::Obj(self.since(start)?))
            }
            Some(b'[') => {
                self.array(depth + 1, |_| Ok(()))?;
                Ok(Val::Arr(self.since(start)?))
            }
            Some(b'"') => {
                let escaped = self.string(None)?;
                Ok(Val::Str(Text {
                    quoted: self.since(start)?,
                    escaped,
                }))
            }
            Some(b't') => self.literal("true", Val::Bool),
            Some(b'f') => self.literal("false", Val::Bool),
            Some(b'n') => self.literal("null", Val::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Val::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Val<'a>) -> Result<Val<'a>, ProtocolError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Scans an object as the `depth`-th open container, handing each
    /// member's key and value to `member` in order.
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(Text<'a>, Val<'a>) -> Result<(), ProtocolError>,
    ) -> Result<(), ProtocolError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.expect_byte(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            let escaped = self.string(None)?;
            let key = Text {
                quoted: self.since(start)?,
                escaped,
            };
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth)?;
            member(key, value)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Scans an array as the `depth`-th open container, handing each
    /// item to `item` in order.
    fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(Val<'a>) -> Result<(), ProtocolError>,
    ) -> Result<(), ProtocolError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.expect_byte(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self.value(depth)?)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Validates one string and reports whether it holds an escape. With
    /// `out`, also appends its unescaped contents there.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<bool, ProtocolError> {
        self.expect_byte(b'"')?;
        let mut escaped = false;
        // Start of the escape-free run not yet copied to `out`.
        let mut run = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' | b'\\' => {
                    if let Some(out) = &mut out {
                        out.push_str(self.since(run)?);
                    }
                    self.pos += 1;
                    if b == b'"' {
                        return Ok(escaped);
                    }
                    escaped = true;
                    let c = self.escape()?;
                    if let Some(out) = &mut out {
                        out.push(c);
                    }
                    run = self.pos;
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                // Bytes of a multi-byte UTF-8 sequence are never ASCII, so
                // stepping over them one at a time is exact.
                _ => self.pos += 1,
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, ProtocolError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("dangling escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // \uDC00..DFFF.
                if (0xD800..0xDC00).contains(&cp) {
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    if !rest.starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ProtocolError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<f64, ProtocolError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits();
        }
        let v: f64 = self
            .since(start)?
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(v)
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }
}

/// Validates `line` as one JSON object in a single scan, trailing bytes
/// included, and returns the value of each of `keys`: the **first**
/// occurrence wins, and later duplicates and unlisted keys are validated
/// and dropped. A key that is absent reads [`Val::Absent`].
fn fields<'a, const N: usize>(
    line: &'a str,
    keys: [&str; N],
) -> Result<[Val<'a>; N], ProtocolError> {
    let mut vals = [Val::Absent; N];
    let mut scan = Scanner::new(line);
    scan.skip_ws();
    if scan.peek() != Some(b'{') {
        return Err(ProtocolError::new(
            ErrorCode::Malformed,
            "frame is not a JSON object",
        ));
    }
    scan.object(1, |key, value| {
        let key = key.read()?;
        let slot = keys
            .iter()
            .position(|k| *k == key)
            .and_then(|i| vals.get_mut(i));
        if let Some(slot @ Val::Absent) = slot {
            *slot = value;
        }
        Ok(())
    })?;
    scan.skip_ws();
    if scan.pos != scan.bytes.len() {
        return Err(scan.err("trailing bytes after JSON value"));
    }
    Ok(vals)
}

// ---------------------------------------------------------------------
// Typed extraction
// ---------------------------------------------------------------------

fn need<'a>(v: Val<'a>, key: &str) -> Result<Val<'a>, ProtocolError> {
    match v {
        Val::Absent => Err(ProtocolError::new(
            ErrorCode::Malformed,
            format!("missing field {key:?}"),
        )),
        v => Ok(v),
    }
}

fn need_obj<'a>(v: Val<'a>, key: &str) -> Result<&'a str, ProtocolError> {
    match need(v, key)? {
        Val::Obj(obj) => Ok(obj),
        _ => Err(ProtocolError::new(
            ErrorCode::Malformed,
            "frame is not a JSON object",
        )),
    }
}

fn need_f64(v: Val, key: &str) -> Result<f64, ProtocolError> {
    match need(v, key)? {
        Val::Num(v) => Ok(v),
        _ => Err(ProtocolError::new(
            ErrorCode::Malformed,
            format!("field {key:?} is not a number"),
        )),
    }
}

fn need_u32(v: Val, key: &str) -> Result<u32, ProtocolError> {
    let v = need_f64(v, key)?;
    if v.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&v) {
        return Err(ProtocolError::new(
            ErrorCode::Malformed,
            format!("field {key:?} is not a u32"),
        ));
    }
    Ok(v as u32)
}

fn need_u64(v: Val, key: &str) -> Result<u64, ProtocolError> {
    let v = need_f64(v, key)?;
    if v.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&v) {
        return Err(ProtocolError::new(
            ErrorCode::Malformed,
            format!("field {key:?} is not an exactly-representable u64"),
        ));
    }
    Ok(v as u64)
}

fn need_str<'a>(v: Val<'a>, key: &str) -> Result<Cow<'a, str>, ProtocolError> {
    match need(v, key)? {
        Val::Str(text) => text.read(),
        _ => Err(ProtocolError::new(
            ErrorCode::Malformed,
            format!("field {key:?} is not a string"),
        )),
    }
}

fn decode_shares(v: Val) -> Result<Vec<WireShare>, ProtocolError> {
    let Val::Arr(items) = need(v, "shares")? else {
        return Err(ProtocolError::new(
            ErrorCode::Malformed,
            "field \"shares\" is not an array",
        ));
    };
    let mut shares = Vec::new();
    Scanner::new(items).array(1, |item| {
        let Val::Obj(share) = item else {
            return Err(ProtocolError::new(
                ErrorCode::Malformed,
                "frame is not a JSON object",
            ));
        };
        let [id, seconds] = fields(share, ["id", "seconds"])?;
        let id = u8::try_from(need_u32(id, "id")?)
            .map_err(|_| ProtocolError::new(ErrorCode::Malformed, "share id overflows u8"))?;
        shares.push(WireShare {
            id,
            seconds: need_f64(seconds, "seconds")?,
        });
        Ok(())
    })?;
    Ok(shares)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends `s` JSON-escaped (quoted) to `out`.
fn push_escaped(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// Appends an `f64` in shortest-round-trip form. Only finite values reach
/// the wire (validation upstream), but map the impossible defensively.
fn push_f64(out: &mut String, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.push_str("null");
        Ok(())
    }
}

/// Appends `,"key":v` for each float field.
fn push_f64_fields<const N: usize>(out: &mut String, fields: [(&str, f64); N]) -> fmt::Result {
    for (key, v) in fields {
        write!(out, ",\"{key}\":")?;
        push_f64(out, v)?;
    }
    Ok(())
}

/// The keys a request frame may carry, the hot frames' keys first in
/// wire order so a lookup usually stops at the first candidate.
const REQUEST_KEYS: [&str; 8] = [
    "type",
    "user",
    "hour",
    "harvest_j",
    "activity",
    "seq",
    "version",
    "path",
];

/// The keys a response frame may carry, ordered like [`REQUEST_KEYS`].
const RESPONSE_KEYS: [&str; 17] = [
    "type", "user", "hour", "budget_j", "accuracy", "active_s", "energy_j", "off_s", "shares",
    "version", "users", "fleet", "server", "path", "bytes", "code", "message",
];

impl Request {
    /// Encodes the request as one JSON line **without** the trailing
    /// newline (the framing layer appends it).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(64);
        self.encode_into(&mut s);
        s
    }

    /// Appends the encoded request to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.write(out);
    }

    fn write(&self, s: &mut String) -> fmt::Result {
        match self {
            Request::Hello { version } => {
                write!(s, "{{\"type\":\"hello\",\"version\":{version}}}")
            }
            Request::Observe {
                user,
                hour,
                harvest_j,
                activity,
                seq,
            } => {
                write!(
                    s,
                    "{{\"type\":\"observe\",\"user\":{user},\"hour\":{hour},\"harvest_j\":"
                )?;
                push_f64(s, *harvest_j)?;
                if let Some(a) = activity {
                    s.push_str(",\"activity\":");
                    push_f64(s, *a)?;
                }
                if let Some(n) = seq {
                    write!(s, ",\"seq\":{n}")?;
                }
                s.push('}');
                Ok(())
            }
            Request::Decide { user } => write!(s, "{{\"type\":\"decide\",\"user\":{user}}}"),
            Request::Stats => s.write_str("{\"type\":\"stats\"}"),
            Request::Checkpoint { path } => {
                s.push_str("{\"type\":\"checkpoint\",\"path\":");
                push_escaped(s, path)?;
                s.write_char('}')
            }
            Request::Restore { path } => {
                s.push_str("{\"type\":\"restore\",\"path\":");
                push_escaped(s, path)?;
                s.write_char('}')
            }
            Request::Shutdown => s.write_str("{\"type\":\"shutdown\"}"),
        }
    }

    /// Decodes one line (without its newline) into a request.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`ErrorCode::Malformed`] on anything that
    /// is not a well-formed known request frame.
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        let [ty, user, hour, harvest_j, activity, seq, version, path] = fields(line, REQUEST_KEYS)?;
        match &*need_str(ty, "type")? {
            "hello" => Ok(Request::Hello {
                version: need_u32(version, "version")?,
            }),
            "observe" => {
                let activity = match activity {
                    Val::Absent | Val::Null => None,
                    activity => Some(need_f64(activity, "activity")?),
                };
                let seq = match seq {
                    Val::Absent | Val::Null => None,
                    seq => Some(need_u64(seq, "seq")?),
                };
                Ok(Request::Observe {
                    user: need_u32(user, "user")?,
                    hour: need_u32(hour, "hour")?,
                    harvest_j: need_f64(harvest_j, "harvest_j")?,
                    activity,
                    seq,
                })
            }
            "decide" => Ok(Request::Decide {
                user: need_u32(user, "user")?,
            }),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint {
                path: need_str(path, "path")?.into_owned(),
            }),
            "restore" => Ok(Request::Restore {
                path: need_str(path, "path")?.into_owned(),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("unknown request type {other:?}"),
            )),
        }
    }
}

impl Response {
    /// Encodes the response as one JSON line **without** the trailing
    /// newline.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(96);
        self.encode_into(&mut s);
        s
    }

    /// Appends the encoded response to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.write(out);
    }

    fn write(&self, s: &mut String) -> fmt::Result {
        match self {
            Response::Welcome { version, users } => write!(
                s,
                "{{\"type\":\"welcome\",\"version\":{version},\"users\":{users}}}"
            ),
            Response::Observed {
                user,
                hour,
                budget_j,
            } => {
                write!(
                    s,
                    "{{\"type\":\"observed\",\"user\":{user},\"hour\":{hour},\"budget_j\":"
                )?;
                push_f64(s, *budget_j)?;
                s.write_char('}')
            }
            Response::Decision {
                user,
                budget_j,
                accuracy,
                active_s,
                energy_j,
                off_s,
                shares,
            } => {
                write!(s, "{{\"type\":\"decision\",\"user\":{user}")?;
                push_f64_fields(
                    s,
                    [
                        ("budget_j", *budget_j),
                        ("accuracy", *accuracy),
                        ("active_s", *active_s),
                        ("energy_j", *energy_j),
                        ("off_s", *off_s),
                    ],
                )?;
                s.push_str(",\"shares\":[");
                for (i, share) in shares.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write!(s, "{{\"id\":{},\"seconds\":", share.id)?;
                    push_f64(s, share.seconds)?;
                    s.push('}');
                }
                s.write_str("]}")
            }
            Response::Stats { fleet, server } => {
                s.push_str("{\"type\":\"stats\",\"fleet\":");
                fleet.write(s)?;
                s.push_str(",\"server\":");
                server.write(s)?;
                s.write_char('}')
            }
            Response::CheckpointDone { path, bytes } => {
                s.push_str("{\"type\":\"checkpoint_done\",\"path\":");
                push_escaped(s, path)?;
                write!(s, ",\"bytes\":{bytes}}}")
            }
            Response::RestoreDone { path, users } => {
                s.push_str("{\"type\":\"restore_done\",\"path\":");
                push_escaped(s, path)?;
                write!(s, ",\"users\":{users}}}")
            }
            Response::ShuttingDown => s.write_str("{\"type\":\"shutting_down\"}"),
            Response::Error { code, message } => {
                write!(s, "{{\"type\":\"error\",\"code\":\"{code}\",\"message\":")?;
                push_escaped(s, message)?;
                s.write_char('}')
            }
        }
    }

    /// Decodes one line (without its newline) into a response.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`ErrorCode::Malformed`] on anything that
    /// is not a well-formed known response frame.
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        let [ty, user, hour, budget_j, accuracy, active_s, energy_j, off_s, shares, version, users, fleet, server, path, bytes, code, message] =
            fields(line, RESPONSE_KEYS)?;
        match &*need_str(ty, "type")? {
            "welcome" => Ok(Response::Welcome {
                version: need_u32(version, "version")?,
                users: need_u32(users, "users")?,
            }),
            "observed" => Ok(Response::Observed {
                user: need_u32(user, "user")?,
                hour: need_u32(hour, "hour")?,
                budget_j: need_f64(budget_j, "budget_j")?,
            }),
            "decision" => {
                let shares = decode_shares(shares)?;
                Ok(Response::Decision {
                    user: need_u32(user, "user")?,
                    budget_j: need_f64(budget_j, "budget_j")?,
                    accuracy: need_f64(accuracy, "accuracy")?,
                    active_s: need_f64(active_s, "active_s")?,
                    energy_j: need_f64(energy_j, "energy_j")?,
                    off_s: need_f64(off_s, "off_s")?,
                    shares,
                })
            }
            "stats" => Ok(Response::Stats {
                fleet: FleetStats::decode_obj(need_obj(fleet, "fleet")?)?,
                server: ServerStats::decode_obj(need_obj(server, "server")?)?,
            }),
            "checkpoint_done" => Ok(Response::CheckpointDone {
                path: need_str(path, "path")?.into_owned(),
                bytes: need_u64(bytes, "bytes")?,
            }),
            "restore_done" => Ok(Response::RestoreDone {
                path: need_str(path, "path")?.into_owned(),
                users: need_u32(users, "users")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => {
                let code_str = need_str(code, "code")?;
                let code = ErrorCode::parse(&code_str).ok_or_else(|| {
                    ProtocolError::new(
                        ErrorCode::Malformed,
                        format!("unknown error code {code_str:?}"),
                    )
                })?;
                Ok(Response::Error {
                    code,
                    message: need_str(message, "message")?.into_owned(),
                })
            }
            other => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("unknown response type {other:?}"),
            )),
        }
    }
}

impl FleetStats {
    /// Encodes the deterministic fleet section as a JSON object. Field
    /// values are pure functions of the observation stream, and `f64`s
    /// print in shortest-round-trip form — so bit-identical state yields
    /// a byte-identical encoding (what the checkpoint tests compare).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(160);
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) -> fmt::Result {
        write!(
            s,
            "{{\"users\":{},\"cohorts\":{},\"observations\":{},\"harvested_j\":",
            self.users, self.cohorts, self.observations
        )?;
        push_f64(s, self.harvested_j)?;
        push_f64_fields(
            s,
            [
                ("budget_j", self.budget_j),
                ("battery_j", self.battery_j),
                ("activity", self.activity),
            ],
        )?;
        write!(s, ",\"state_digest\":\"{:016x}\"}}", self.state_digest)
    }

    fn decode_obj(obj: &str) -> Result<FleetStats, ProtocolError> {
        let [users, cohorts, observations, harvested_j, budget_j, battery_j, activity, state_digest] =
            fields(
                obj,
                [
                    "users",
                    "cohorts",
                    "observations",
                    "harvested_j",
                    "budget_j",
                    "battery_j",
                    "activity",
                    "state_digest",
                ],
            )?;
        let digest_hex = need_str(state_digest, "state_digest")?;
        let state_digest = u64::from_str_radix(&digest_hex, 16).map_err(|_| {
            ProtocolError::new(ErrorCode::Malformed, "state_digest is not a hex u64")
        })?;
        Ok(FleetStats {
            users: need_u32(users, "users")?,
            cohorts: need_u32(cohorts, "cohorts")?,
            observations: need_u64(observations, "observations")?,
            harvested_j: need_f64(harvested_j, "harvested_j")?,
            budget_j: need_f64(budget_j, "budget_j")?,
            battery_j: need_f64(battery_j, "battery_j")?,
            activity: need_f64(activity, "activity")?,
            state_digest,
        })
    }
}

impl ServerStats {
    /// Encodes the server section as a JSON object.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(224);
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) -> fmt::Result {
        write!(
            s,
            "{{\"connections\":{},\"requests\":{},\"errors\":{},\"observes\":{},\
             \"decides\":{},\"checkpoints\":{},\"restores\":{},\"evicted\":{},\"shed\":{}",
            self.connections,
            self.requests,
            self.errors,
            self.observes,
            self.decides,
            self.checkpoints,
            self.restores,
            self.evicted,
            self.shed
        )?;
        push_f64_fields(
            s,
            [
                ("observe_p50_us", self.observe_p50_us),
                ("observe_p99_us", self.observe_p99_us),
                ("decide_p50_us", self.decide_p50_us),
                ("decide_p99_us", self.decide_p99_us),
            ],
        )?;
        s.write_char('}')
    }

    fn decode_obj(obj: &str) -> Result<ServerStats, ProtocolError> {
        let [connections, requests, errors, observes, decides, checkpoints, restores, evicted, shed, observe_p50_us, observe_p99_us, decide_p50_us, decide_p99_us] =
            fields(
                obj,
                [
                    "connections",
                    "requests",
                    "errors",
                    "observes",
                    "decides",
                    "checkpoints",
                    "restores",
                    "evicted",
                    "shed",
                    "observe_p50_us",
                    "observe_p99_us",
                    "decide_p50_us",
                    "decide_p99_us",
                ],
            )?;
        Ok(ServerStats {
            connections: need_u64(connections, "connections")?,
            requests: need_u64(requests, "requests")?,
            errors: need_u64(errors, "errors")?,
            observes: need_u64(observes, "observes")?,
            decides: need_u64(decides, "decides")?,
            checkpoints: need_u64(checkpoints, "checkpoints")?,
            restores: need_u64(restores, "restores")?,
            evicted: need_u64(evicted, "evicted")?,
            shed: need_u64(shed, "shed")?,
            observe_p50_us: need_f64(observe_p50_us, "observe_p50_us")?,
            observe_p99_us: need_f64(observe_p99_us, "observe_p99_us")?,
            decide_p50_us: need_f64(decide_p50_us, "decide_p50_us")?,
            decide_p99_us: need_f64(decide_p99_us, "decide_p99_us")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Hello { version: 2 },
            Request::Observe {
                user: 42,
                hour: 17,
                harvest_j: 1.2345678901234567,
                activity: Some(0.5),
                seq: Some(u64::from(u32::MAX) + 7),
            },
            Request::Observe {
                user: 0,
                hour: 0,
                harvest_j: 0.0,
                activity: None,
                seq: None,
            },
            Request::Decide { user: u32::MAX },
            Request::Stats,
            Request::Checkpoint {
                path: "/tmp/weird \"path\"\\with\nescapes\tand unicode é🙂".into(),
            },
            Request::Restore {
                path: String::new(),
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(
                !line.contains('\n'),
                "encoded frame contains newline: {line}"
            );
            assert_eq!(Request::decode(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Welcome {
                version: 2,
                users: 2000,
            },
            Response::Observed {
                user: 3,
                hour: 23,
                budget_j: 0.18,
            },
            Response::Decision {
                user: 9,
                budget_j: 4.999999999999999,
                accuracy: 0.87,
                active_s: 3600.0,
                energy_j: 5.0,
                off_s: 0.0,
                shares: vec![
                    WireShare {
                        id: 4,
                        seconds: 1511.9999999,
                    },
                    WireShare {
                        id: 5,
                        seconds: 2088.0000001,
                    },
                ],
            },
            Response::Stats {
                fleet: FleetStats {
                    users: 10,
                    cohorts: 10,
                    observations: 240,
                    harvested_j: 123.456,
                    budget_j: 100.0,
                    battery_j: 299.5,
                    activity: 0.0,
                    state_digest: 0xDEAD_BEEF_CAFE_F00D,
                },
                server: ServerStats {
                    connections: 3,
                    requests: 250,
                    errors: 1,
                    observes: 240,
                    decides: 9,
                    checkpoints: 0,
                    restores: 0,
                    evicted: 2,
                    shed: 5,
                    observe_p50_us: 1.5,
                    observe_p99_us: 12.0,
                    decide_p50_us: 0.5,
                    decide_p99_us: 4.0,
                },
            },
            Response::CheckpointDone {
                path: "/tmp/ckpt.bin".into(),
                bytes: 123_456,
            },
            Response::RestoreDone {
                path: "snap".into(),
                users: 64,
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::Malformed,
                message: "broken \"frame\"".into(),
            },
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(
                !line.contains('\n'),
                "encoded frame contains newline: {line}"
            );
            assert_eq!(Response::decode(&line).unwrap(), resp, "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "not json",
            "{",
            "{}",
            "[1,2]",
            "{\"type\":\"nope\"}",
            "{\"type\":\"observe\",\"user\":1}",
            "{\"type\":\"observe\",\"user\":-1,\"hour\":0,\"harvest_j\":1}",
            "{\"type\":\"observe\",\"user\":1.5,\"hour\":0,\"harvest_j\":1}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":-1}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":1.5}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":\"x\"}",
            "{\"type\":\"decide\",\"user\":\"three\"}",
            "{\"type\":\"hello\",\"version\":1} trailing",
            "{\"type\":\"checkpoint\",\"path\":7}",
            "{\"type\":\"hello\",\"version\":1e999}",
            "{\"type\":\"error\",\"code\":\"martian\",\"message\":\"x\"}",
        ] {
            assert!(Request::decode(line).is_err(), "accepted request: {line:?}");
            assert!(
                Response::decode(line).is_err(),
                "accepted response: {line:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let req = Request::decode("{\"type\":\"checkpoint\",\"path\":\"\\u00e9\\ud83d\\ude02x\"}")
            .unwrap();
        assert_eq!(
            req,
            Request::Checkpoint {
                path: "é😂x".into()
            }
        );
        assert!(Request::decode("{\"type\":\"checkpoint\",\"path\":\"\\ud83d\"}").is_err());
    }

    /// `{"type":"stats","x":` followed by `containers` nested arrays
    /// holding one number: the frame's own object plus `containers`.
    fn stats_with_nesting(containers: usize) -> String {
        format!(
            "{{\"type\":\"stats\",\"x\":{}1{}}}",
            "[".repeat(containers),
            "]".repeat(containers)
        )
    }

    #[test]
    fn nesting_up_to_max_depth_decodes_and_deeper_is_malformed() {
        let at_bound = stats_with_nesting(MAX_DEPTH - 1);
        assert_eq!(Request::decode(&at_bound).unwrap(), Request::Stats);
        let err = Request::decode(&stats_with_nesting(MAX_DEPTH)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn line_long_nesting_is_malformed_without_exhausting_the_stack() {
        // One line just under the cap, nested as deep as it can go. The
        // decode runs on a fresh default-stack thread, like a connection
        // handler.
        let brackets = "[".repeat(MAX_LINE_BYTES - 1);
        let members = "{\"a\":".repeat((MAX_LINE_BYTES - 1) / 5);
        for line in [brackets, members] {
            let (req, resp) = std::thread::spawn(move || {
                (
                    Request::decode(&line).map_err(|e| e.code),
                    Response::decode(&line).map_err(|e| e.code),
                )
            })
            .join()
            .expect("decoder thread survives");
            assert_eq!(req, Err(ErrorCode::Malformed));
            assert_eq!(resp, Err(ErrorCode::Malformed));
        }
    }

    #[test]
    fn first_occurrence_wins_and_escaped_keys_match() {
        let req = Request::decode(
            "{\"type\":\"decide\",\"us\\u0065r\":7,\"user\":9,\"type\":\"stats\",\"extra\":{\"user\":[1,{}]}}",
        )
        .unwrap();
        assert_eq!(req, Request::Decide { user: 7 });
        // A later duplicate is still validated.
        assert!(Request::decode("{\"type\":\"decide\",\"user\":7,\"user\":1e999}").is_err());
    }
}
