//! Differential test of the wire decoder against the one it replaced.
//!
//! [`oracle`] is the tree-building decoder `Request::decode` and
//! `Response::decode` used before the one-pass scanner. Every input here
//! goes through both, and they must agree: both `Ok` with byte-equal
//! re-encodes, or both `Err` with the same [`ErrorCode`]. Inputs are
//! encoded arbitrary frames, the same frames reshaped (keys permuted,
//! extra whitespace, escaped keys, duplicate keys, unknown fields nested
//! up to the depth bound, alternative number spellings), and 1–3 byte
//! mutations of both. Nesting beyond the bound is the one intended
//! divergence and is tested on its own.

mod support;

use proptest::prelude::*;
use reap_serve::{ErrorCode, Request, Response};
use support::{arb_request, arb_response};

use oracle::Json;

/// The decoder's nesting bound (open containers, the frame's object
/// included); `nesting_beyond_the_bound_is_the_only_divergence` pins it.
const MAX_DEPTH: usize = 64;

mod oracle {
    //! The tree-building decoder the one-pass scanner replaced, kept
    //! verbatim as the reference: a recursive-descent JSON parser with no
    //! depth bound feeding typed extraction over the parsed tree.

    use reap_serve::{
        ErrorCode, FleetStats, ProtocolError, Request, Response, ServerStats, WireShare,
    };

    /// A parsed JSON value (the subset the protocol needs). Nesting is
    /// unbounded here: the recursion is as deep as the input.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn new(s: &'a str) -> Parser<'a> {
            Parser {
                bytes: s.as_bytes(),
                pos: 0,
            }
        }

        fn err(&self, what: &str) -> ProtocolError {
            ProtocolError::new(ErrorCode::Malformed, format!("{what} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect_byte(&mut self, b: u8) -> Result<(), ProtocolError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", b as char)))
            }
        }

        fn value(&mut self) -> Result<Json, ProtocolError> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ProtocolError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(self.err(&format!("expected '{lit}'")))
            }
        }

        fn object(&mut self) -> Result<Json, ProtocolError> {
            self.expect_byte(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect_byte(b':')?;
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, ProtocolError> {
            self.expect_byte(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ProtocolError> {
            self.expect_byte(b'"')?;
            let mut out = String::new();
            loop {
                let Some(b) = self.peek() else {
                    return Err(self.err("unterminated string"));
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(esc) = self.peek() else {
                            return Err(self.err("dangling escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000C}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let cp = self.hex4()?;
                                // Surrogate pairs: a high surrogate must be
                                // followed by \uDC00..DFFF.
                                if (0xD800..0xDC00).contains(&cp) {
                                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                    );
                                } else if (0xDC00..0xE000).contains(&cp) {
                                    return Err(self.err("lone low surrogate"));
                                } else {
                                    out.push(
                                        char::from_u32(cp)
                                            .ok_or_else(|| self.err("invalid codepoint"))?,
                                    );
                                }
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    0x00..=0x1F => return Err(self.err("raw control character in string")),
                    _ => {
                        // Re-scan the full UTF-8 sequence starting here. The
                        // input is a &str, so sequences are always valid.
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        self.pos = start + len;
                        let s = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, ProtocolError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| self.err("invalid \\u escape"))?;
            let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.pos += 4;
            Ok(cp)
        }

        fn number(&mut self) -> Result<Json, ProtocolError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid number"))?;
            let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            if !v.is_finite() {
                return Err(self.err("number out of range"));
            }
            Ok(Json::Num(v))
        }
    }

    /// Byte length of the UTF-8 sequence starting with `b` (1 for ASCII and,
    /// defensively, for continuation bytes — unreachable from a `&str`).
    fn utf8_len(b: u8) -> usize {
        match b {
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            0xF0..=0xF7 => 4,
            _ => 1,
        }
    }

    pub fn parse_json(line: &str) -> Result<Json, ProtocolError> {
        let mut p = Parser::new(line);
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after JSON value"));
        }
        Ok(v)
    }

    // ---------------------------------------------------------------------
    // Typed extraction
    // ---------------------------------------------------------------------

    fn as_obj(v: &Json) -> Result<&[(String, Json)], ProtocolError> {
        match v {
            Json::Obj(members) => Ok(members),
            _ => Err(ProtocolError::new(
                ErrorCode::Malformed,
                "frame is not a JSON object",
            )),
        }
    }

    fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn need<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, ProtocolError> {
        get(obj, key).ok_or_else(|| {
            ProtocolError::new(ErrorCode::Malformed, format!("missing field {key:?}"))
        })
    }

    fn need_f64(obj: &[(String, Json)], key: &str) -> Result<f64, ProtocolError> {
        match need(obj, key)? {
            Json::Num(v) => Ok(*v),
            _ => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("field {key:?} is not a number"),
            )),
        }
    }

    fn need_u32(obj: &[(String, Json)], key: &str) -> Result<u32, ProtocolError> {
        let v = need_f64(obj, key)?;
        if v.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&v) {
            return Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("field {key:?} is not a u32"),
            ));
        }
        Ok(v as u32)
    }

    fn need_u64(obj: &[(String, Json)], key: &str) -> Result<u64, ProtocolError> {
        let v = need_f64(obj, key)?;
        if v.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&v) {
            return Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("field {key:?} is not an exactly-representable u64"),
            ));
        }
        Ok(v as u64)
    }

    fn need_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, ProtocolError> {
        match need(obj, key)? {
            Json::Str(s) => Ok(s),
            _ => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("field {key:?} is not a string"),
            )),
        }
    }

    pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
        let v = parse_json(line)?;
        let obj = as_obj(&v)?;
        match need_str(obj, "type")? {
            "hello" => Ok(Request::Hello {
                version: need_u32(obj, "version")?,
            }),
            "observe" => {
                let activity = match get(obj, "activity") {
                    None | Some(Json::Null) => None,
                    Some(Json::Num(a)) => Some(*a),
                    Some(_) => {
                        return Err(ProtocolError::new(
                            ErrorCode::Malformed,
                            "field \"activity\" is not a number",
                        ))
                    }
                };
                let seq = match get(obj, "seq") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(need_u64(obj, "seq")?),
                };
                Ok(Request::Observe {
                    user: need_u32(obj, "user")?,
                    hour: need_u32(obj, "hour")?,
                    harvest_j: need_f64(obj, "harvest_j")?,
                    activity,
                    seq,
                })
            }
            "decide" => Ok(Request::Decide {
                user: need_u32(obj, "user")?,
            }),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint {
                path: need_str(obj, "path")?.to_string(),
            }),
            "restore" => Ok(Request::Restore {
                path: need_str(obj, "path")?.to_string(),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("unknown request type {other:?}"),
            )),
        }
    }

    pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
        let v = parse_json(line)?;
        let obj = as_obj(&v)?;
        match need_str(obj, "type")? {
            "welcome" => Ok(Response::Welcome {
                version: need_u32(obj, "version")?,
                users: need_u32(obj, "users")?,
            }),
            "observed" => Ok(Response::Observed {
                user: need_u32(obj, "user")?,
                hour: need_u32(obj, "hour")?,
                budget_j: need_f64(obj, "budget_j")?,
            }),
            "decision" => {
                let shares = match need(obj, "shares")? {
                    Json::Arr(items) => items
                        .iter()
                        .map(|item| {
                            let share = as_obj(item)?;
                            let id = need_u32(share, "id")?;
                            let id = u8::try_from(id).map_err(|_| {
                                ProtocolError::new(ErrorCode::Malformed, "share id overflows u8")
                            })?;
                            Ok(WireShare {
                                id,
                                seconds: need_f64(share, "seconds")?,
                            })
                        })
                        .collect::<Result<Vec<_>, ProtocolError>>()?,
                    _ => {
                        return Err(ProtocolError::new(
                            ErrorCode::Malformed,
                            "field \"shares\" is not an array",
                        ))
                    }
                };
                Ok(Response::Decision {
                    user: need_u32(obj, "user")?,
                    budget_j: need_f64(obj, "budget_j")?,
                    accuracy: need_f64(obj, "accuracy")?,
                    active_s: need_f64(obj, "active_s")?,
                    energy_j: need_f64(obj, "energy_j")?,
                    off_s: need_f64(obj, "off_s")?,
                    shares,
                })
            }
            "stats" => Ok(Response::Stats {
                fleet: decode_fleet(as_obj(need(obj, "fleet")?)?)?,
                server: decode_server(as_obj(need(obj, "server")?)?)?,
            }),
            "checkpoint_done" => Ok(Response::CheckpointDone {
                path: need_str(obj, "path")?.to_string(),
                bytes: need_u64(obj, "bytes")?,
            }),
            "restore_done" => Ok(Response::RestoreDone {
                path: need_str(obj, "path")?.to_string(),
                users: need_u32(obj, "users")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => {
                let code_str = need_str(obj, "code")?;
                let code = ErrorCode::parse(code_str).ok_or_else(|| {
                    ProtocolError::new(
                        ErrorCode::Malformed,
                        format!("unknown error code {code_str:?}"),
                    )
                })?;
                Ok(Response::Error {
                    code,
                    message: need_str(obj, "message")?.to_string(),
                })
            }
            other => Err(ProtocolError::new(
                ErrorCode::Malformed,
                format!("unknown response type {other:?}"),
            )),
        }
    }

    fn decode_fleet(obj: &[(String, Json)]) -> Result<FleetStats, ProtocolError> {
        let digest_hex = need_str(obj, "state_digest")?;
        let state_digest = u64::from_str_radix(digest_hex, 16).map_err(|_| {
            ProtocolError::new(ErrorCode::Malformed, "state_digest is not a hex u64")
        })?;
        Ok(FleetStats {
            users: need_u32(obj, "users")?,
            cohorts: need_u32(obj, "cohorts")?,
            observations: need_u64(obj, "observations")?,
            harvested_j: need_f64(obj, "harvested_j")?,
            budget_j: need_f64(obj, "budget_j")?,
            battery_j: need_f64(obj, "battery_j")?,
            activity: need_f64(obj, "activity")?,
            state_digest,
        })
    }

    fn decode_server(obj: &[(String, Json)]) -> Result<ServerStats, ProtocolError> {
        Ok(ServerStats {
            connections: need_u64(obj, "connections")?,
            requests: need_u64(obj, "requests")?,
            errors: need_u64(obj, "errors")?,
            observes: need_u64(obj, "observes")?,
            decides: need_u64(obj, "decides")?,
            checkpoints: need_u64(obj, "checkpoints")?,
            restores: need_u64(obj, "restores")?,
            evicted: need_u64(obj, "evicted")?,
            shed: need_u64(obj, "shed")?,
            observe_p50_us: need_f64(obj, "observe_p50_us")?,
            observe_p99_us: need_f64(obj, "observe_p99_us")?,
            decide_p50_us: need_f64(obj, "decide_p50_us")?,
            decide_p99_us: need_f64(obj, "decide_p99_us")?,
        })
    }
}

/// A deterministic stream of choices for one reshaping.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Writes `v` as JSON with its members permuted, random whitespace,
/// randomly `\u`-escaped string characters, alternative number
/// spellings, later duplicates of some keys and, at the top, an unknown
/// member nested up to [`MAX_DEPTH`]. `depth` counts the containers
/// already open around `v`.
fn reshape(v: &Json, depth: usize, dice: &mut Dice, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if dice.one_in(4) {
                out.push_str(&format!("{x:e}"));
            } else {
                out.push_str(&format!("{x}"));
            }
        }
        Json::Str(s) => write_string(s, dice, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(dice, out);
                reshape(item, depth + 1, dice, out);
                space(dice, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            // Inserted members are written as they are, never reshaped
            // further, so their nesting stays exactly as drawn.
            let mut members: Vec<(&str, &Json, bool)> = members
                .iter()
                .map(|(k, v)| (k.as_str(), v, false))
                .collect();
            for i in (1..members.len()).rev() {
                members.swap(i, dice.below(i + 1));
            }
            let unknown;
            if depth == 0 && dice.one_in(2) {
                unknown = nested(dice.below(MAX_DEPTH), dice);
                let at = dice.below(members.len() + 1);
                members.insert(at, ("zz_unknown", &unknown, true));
            }
            // A later duplicate of a key never changes the frame: the
            // first occurrence wins.
            let shadow = Json::Str("shadowed".to_string());
            let mut i = 0;
            while i < members.len() {
                if dice.one_in(4) {
                    let at = i + 1 + dice.below(members.len() - i);
                    members.insert(at, (members[i].0, &shadow, true));
                }
                i += 1;
            }
            out.push('{');
            for (i, (key, value, plain)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(dice, out);
                write_string(key, dice, out);
                space(dice, out);
                out.push(':');
                space(dice, out);
                if *plain {
                    write_plain(value, out);
                } else {
                    reshape(value, depth + 1, dice, out);
                }
                space(dice, out);
            }
            out.push('}');
        }
    }
}

/// Writes `v` compactly, strings unescaped (inserted values are ASCII).
fn write_plain(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => out.push_str(&format!("{x}")),
        Json::Str(s) => out.push_str(&format!("\"{s}\"")),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_plain(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{key}\":"));
                write_plain(value, out);
            }
            out.push('}');
        }
    }
}

/// A value of exactly `containers` nested arrays and objects.
fn nested(containers: usize, dice: &mut Dice) -> Json {
    if containers == 0 {
        return Json::Num(1.0);
    }
    let inner = nested(containers - 1, dice);
    if dice.one_in(2) {
        Json::Arr(vec![inner])
    } else {
        Json::Obj(vec![("k".to_string(), inner)])
    }
}

fn space(dice: &mut Dice, out: &mut String) {
    for _ in 0..dice.below(3).saturating_sub(1) {
        out.push([' ', '\t', '\r', '\n'][dice.below(4)]);
    }
}

fn write_string(s: &str, dice: &mut Dice, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 || dice.one_in(4) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if dice.one_in(2) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The frame with 1–3 bytes replaced, inserted or deleted.
fn mutate(line: &str, dice: &mut Dice) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,\\ \t0123456789.eE+-tfnulrsaxu\x01\xc3\xa9";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=dice.below(3) {
        let byte = ALPHABET[dice.below(ALPHABET.len())];
        let at = dice.below(bytes.len() + 1);
        match dice.below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Both decoders agree on `line`, in both directions.
fn agree(line: &str) {
    match (Request::decode(line), oracle::decode_request(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new.encode(), old.encode(), "request {line:?}"),
        (Err(new), Err(old)) => assert_eq!(new.code, old.code, "request {line:?}"),
        (new, old) => panic!("request decoders disagree on {line:?}: {new:?} vs {old:?}"),
    }
    match (Response::decode(line), oracle::decode_response(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new.encode(), old.encode(), "response {line:?}"),
        (Err(new), Err(old)) => assert_eq!(new.code, old.code, "response {line:?}"),
        (new, old) => panic!("response decoders disagree on {line:?}: {new:?} vs {old:?}"),
    }
}

/// Runs `line`, a reshaping of it and byte mutations of both through
/// [`agree`].
fn agree_on_variants(line: &str, seed: u64) {
    let mut dice = Dice(seed);
    agree(line);
    let tree = oracle::parse_json(line).expect("encoded frames parse");
    let mut reshaped = String::new();
    reshape(&tree, 0, &mut dice, &mut reshaped);
    agree(&reshaped);
    for base in [line, reshaped.as_str()] {
        for _ in 0..4 {
            agree(&mutate(base, &mut dice));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_agree_on_requests(req in arb_request(), seed in 0u64..u64::MAX) {
        agree_on_variants(&req.encode(), seed);
    }

    #[test]
    fn decoders_agree_on_responses(resp in arb_response(), seed in 0u64..u64::MAX) {
        agree_on_variants(&resp.encode(), seed);
    }
}

#[test]
fn decoders_agree_on_edge_cases() {
    for line in [
        "",
        " ",
        "{}",
        " {\"type\":\"stats\"} ",
        "{\"type\":\"stats\"}\r\n",
        "{\"type\":\"stats\",}",
        "{\"type\":\"stats\"}}",
        "{\"type\":\"stats\" \"x\":1}",
        "{\"type\":\"decide\",\"user\":01}",
        "{\"type\":\"decide\",\"user\":1.}",
        "{\"type\":\"decide\",\"user\":1e0}",
        "{\"type\":\"decide\",\"user\":-0}",
        "{\"type\":\"decide\",\"user\":-}",
        "{\"type\":\"decide\",\"user\":-.5}",
        "{\"type\":\"decide\",\"user\":1e}",
        "{\"type\":\"decide\",\"user\":4294967296}",
        "{\"type\":\"decide\",\"user\":1,\"x\":1e999}",
        "{\"type\":\"decide\",\"user\":1,\"x\":tru}",
        "{\"type\":\"decide\",\"user\":1,\"x\":nul}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\u+041\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\u-041\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\ud83d\\u0041\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\udc00\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\x\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\u{1}\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"é\\u00e9\"}",
        "{\"type\":\"decide\",\"user\":1,\"x\":\"\\u00é\"}",
        "{\"t\\u0079pe\":\"decide\",\"user\":1}",
        "{\"type\":\"d\\u0065cide\",\"user\":1}",
        "{\"type\":\"observe\",\"user\":1,\"hour\":2,\"harvest_j\":3,\"activity\":null,\"seq\":null}",
        "{\"type\":\"observe\",\"user\":1,\"hour\":2,\"harvest_j\":3,\"activity\":true}",
        "{\"type\":\"observe\",\"user\":1,\"hour\":2,\"harvest_j\":3,\"seq\":9007199254740993}",
        "{\"type\":\"decision\",\"user\":1,\"budget_j\":1,\"accuracy\":1,\"active_s\":1,\"energy_j\":1,\"off_s\":1,\"shares\":[]}",
        "{\"type\":\"decision\",\"user\":1,\"budget_j\":1,\"accuracy\":1,\"active_s\":1,\"energy_j\":1,\"off_s\":1,\"shares\":[{\"id\":256,\"seconds\":1}]}",
        "{\"type\":\"decision\",\"user\":1,\"budget_j\":1,\"accuracy\":1,\"active_s\":1,\"energy_j\":1,\"off_s\":1,\"shares\":[1]}",
        "{\"type\":\"decision\",\"user\":1,\"budget_j\":1,\"accuracy\":1,\"active_s\":1,\"energy_j\":1,\"off_s\":1,\"shares\":{}}",
        "{\"type\":\"stats\",\"fleet\":[],\"server\":{}}",
        "{\"type\":\"error\",\"code\":\"malformed\",\"message\":\"\\/\"}",
        "{\"type\":\"error\",\"code\":\"m\\u0061lformed\",\"message\":\"\"}",
    ] {
        agree(line);
    }
}

/// `{"type":"stats","x":` then `containers` nested arrays around `1`.
fn stats_with_nesting(containers: usize) -> String {
    format!(
        "{{\"type\":\"stats\",\"x\":{}1{}}}",
        "[".repeat(containers),
        "]".repeat(containers)
    )
}

#[test]
fn nesting_beyond_the_bound_is_the_only_divergence() {
    // Up to the bound (the frame's object plus MAX_DEPTH - 1 arrays) the
    // decoders agree; one level deeper the scanner refuses a frame the
    // unbounded oracle still accepts.
    agree(&stats_with_nesting(MAX_DEPTH - 1));
    let deeper = stats_with_nesting(MAX_DEPTH);
    assert_eq!(oracle::decode_request(&deeper), Ok(Request::Stats));
    assert_eq!(
        Request::decode(&deeper).map_err(|e| e.code),
        Err(ErrorCode::Malformed)
    );
}
