//! The `locusd` wire protocol: newline-delimited flat JSON.
//!
//! One request per line, one response line per request, over a TCP
//! stream. Lines are read by the store's flat-JSON reader
//! ([`locus_store::record::read_object`]) and written by its writer
//! ([`locus_store::record::push_str_field`] and siblings) — flat
//! objects only, string values escaped, `f64` values carried as exact
//! bit patterns (16 hex digits) with an approximate `_dec` sibling for
//! human readers, so a tuning result survives the wire bit-identically.
//!
//! Robustness contract (pinned by `tests/daemon_protocol.rs`): a
//! malformed, truncated, or oversized request line yields a structured
//! [`Response::error`] reply — never a panic, never a dropped
//! connection.

use std::fmt;

use locus_store::record::{
    finish, push_bits_field, push_raw_field, push_str_field, read_object, read_string, Field,
};

/// Hard cap on one request or response line, in bytes (excluding the
/// newline). Oversized requests are answered with an
/// [`codes::OVERSIZED`] error and the rest of the line is discarded.
pub const MAX_LINE: usize = 64 * 1024;

/// Stable error codes carried in the `code` field of error responses.
pub mod codes {
    /// The request line is not a flat JSON object with known fields.
    pub const PARSE: &str = "parse";
    /// The request line exceeds [`super::MAX_LINE`] bytes.
    pub const OVERSIZED: &str = "oversized";
    /// The `op` field names no known operation.
    pub const UNKNOWN_OP: &str = "unknown-op";
    /// The `kernel` field names no registry kernel.
    pub const UNKNOWN_KERNEL: &str = "unknown-kernel";
    /// The `machine` field names no machine profile.
    pub const UNKNOWN_MACHINE: &str = "unknown-machine";
    /// The `search` field names no search module.
    pub const UNKNOWN_SEARCH: &str = "unknown-search";
    /// The request panicked inside the daemon and was isolated at the
    /// session boundary.
    pub const PANIC: &str = "panic";
    /// The request spent longer than its `deadline_ms` queued.
    pub const DEADLINE: &str = "deadline";
    /// The tuning run itself failed (apply error, store I/O).
    pub const INTERNAL: &str = "internal";
}

/// The operations `locusd` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered inline.
    Ping,
    /// Tune a registry kernel against the shared store.
    Tune,
    /// Retrieve or synthesize a recipe for a registry kernel.
    Suggest,
    /// Shared-store statistics; answered inline.
    Stats,
    /// Compact every store shard; answered inline.
    Compact,
    /// Deliberately panic inside the supervised request path — the
    /// fault-isolation probe used by tests and the benchmark.
    DebugPanic,
    /// Stop the daemon after replying.
    Shutdown,
}

impl Op {
    /// The wire spelling of this op.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Tune => "tune",
            Op::Suggest => "suggest",
            Op::Stats => "stats",
            Op::Compact => "compact",
            Op::DebugPanic => "debug-panic",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "ping" => Op::Ping,
            "tune" => Op::Tune,
            "suggest" => Op::Suggest,
            "stats" => Op::Stats,
            "compact" => Op::Compact,
            "debug-panic" => Op::DebugPanic,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed on the response and stamped
    /// onto every trace event of the request.
    pub id: String,
    /// What to do.
    pub op: Op,
    /// Registry kernel name (`tune`, `suggest`, `debug-panic`).
    pub kernel: String,
    /// Search module: `exhaustive`, `random`, `bandit`, `anneal`,
    /// `portfolio`.
    pub search: String,
    /// Deterministic search seed.
    pub seed: u64,
    /// Requested evaluation budget; the daemon clamps it to its
    /// configured per-request maximum.
    pub budget: usize,
    /// Requested evaluation threads; clamped likewise.
    pub threads: usize,
    /// Machine-profile name the kernel is tuned for.
    pub machine: String,
    /// Queue deadline: if the request waits longer than this before a
    /// worker picks it up, it is answered with a `deadline` error
    /// instead of running.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with every tunable field at its default: bandit
    /// search, seed 7, budget 16, one thread, the `scaled-xeon`
    /// profile, no deadline.
    pub fn new(id: &str, op: Op) -> Request {
        Request {
            id: id.to_string(),
            op,
            kernel: String::new(),
            search: "bandit".to_string(),
            seed: 7,
            budget: 16,
            threads: 1,
            machine: "scaled-xeon".to_string(),
            deadline_ms: None,
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "id", &self.id);
        push_str_field(&mut out, "op", self.op.as_str());
        if !self.kernel.is_empty() {
            push_str_field(&mut out, "kernel", &self.kernel);
        }
        push_str_field(&mut out, "search", &self.search);
        push_raw_field(&mut out, "seed", self.seed);
        push_raw_field(&mut out, "budget", self.budget);
        push_raw_field(&mut out, "threads", self.threads);
        push_str_field(&mut out, "machine", &self.machine);
        if let Some(ms) = self.deadline_ms {
            push_raw_field(&mut out, "deadline_ms", ms);
        }
        finish(out)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming what is wrong, carrying whatever request
    /// id could be salvaged so the error reply still correlates.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let fields = read_line(line).ok_or_else(|| ProtoError {
            id: salvage_id(line),
            code: codes::PARSE,
            message: "request is not a flat JSON object".to_string(),
        })?;
        let get = |key: &str| fields.iter().find(|f| f.key == key).map(|f| &*f.value);
        let id = get("id").unwrap_or_default().to_string();
        let fail = |code: &'static str, message: String| ProtoError {
            id: id.clone(),
            code,
            message,
        };
        let op_text =
            get("op").ok_or_else(|| fail(codes::PARSE, "request has no `op` field".to_string()))?;
        let op = Op::parse(op_text)
            .ok_or_else(|| fail(codes::UNKNOWN_OP, format!("unknown op `{op_text}`")))?;
        let mut request = Request::new(&id, op);
        if let Some(kernel) = get("kernel") {
            request.kernel = kernel.to_string();
        }
        if let Some(search) = get("search") {
            request.search = search.to_string();
        }
        if let Some(machine) = get("machine") {
            request.machine = machine.to_string();
        }
        if let Some(raw) = get("seed") {
            request.seed = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad seed `{raw}`")))?;
        }
        if let Some(raw) = get("budget") {
            request.budget = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad budget `{raw}`")))?;
        }
        if let Some(raw) = get("threads") {
            request.threads = raw
                .parse()
                .map_err(|_| fail(codes::PARSE, format!("bad threads `{raw}`")))?;
        }
        if let Some(raw) = get("deadline_ms") {
            request.deadline_ms = Some(
                raw.parse()
                    .map_err(|_| fail(codes::PARSE, format!("bad deadline_ms `{raw}`")))?,
            );
        }
        Ok(request)
    }
}

/// A request that could not be parsed or dispatched; converts directly
/// into the error [`Response`] the client sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Salvaged request id ("" when even the id was unreadable).
    pub id: String,
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One response line: `ok` with typed payload fields, or `error` with a
/// code and message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// `true` for `ok`, `false` for `error`.
    pub ok: bool,
    /// Payload fields in encode order.
    pub fields: Vec<(String, WireValue)>,
}

/// A typed response payload value.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// UTF-8 text.
    Str(String),
    /// Unsigned integer (encoded as a raw JSON number).
    U64(u64),
    /// Exact double: encoded as a 16-hex-digit bit pattern plus an
    /// approximate `<key>_dec` sibling field.
    F64(f64),
}

impl Response {
    /// An `ok` response with no payload yet.
    pub fn ok(id: &str) -> Response {
        Response {
            id: id.to_string(),
            ok: true,
            fields: Vec::new(),
        }
    }

    /// An `error` response.
    pub fn error(id: &str, code: &str, message: &str) -> Response {
        let mut r = Response {
            id: id.to_string(),
            ok: false,
            fields: Vec::new(),
        };
        r.fields.push(("code".into(), WireValue::Str(code.into())));
        r.fields
            .push(("message".into(), WireValue::Str(message.into())));
        r
    }

    /// Appends a string payload field (builder style).
    pub fn with_str(mut self, key: &str, value: &str) -> Response {
        self.fields
            .push((key.to_string(), WireValue::Str(value.to_string())));
        self
    }

    /// Appends an integer payload field.
    pub fn with_u64(mut self, key: &str, value: u64) -> Response {
        self.fields.push((key.to_string(), WireValue::U64(value)));
        self
    }

    /// Appends an exact-double payload field.
    pub fn with_f64(mut self, key: &str, value: f64) -> Response {
        self.fields.push((key.to_string(), WireValue::F64(value)));
        self
    }

    /// Looks a string field up.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| {
                if let WireValue::Str(s) = v {
                    Some(s.as_str())
                } else {
                    None
                }
            })
    }

    /// Looks an integer field up.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| {
                if let WireValue::U64(n) = v {
                    Some(*n)
                } else {
                    None
                }
            })
    }

    /// Looks an exact-double field up.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| {
                if let WireValue::F64(x) = v {
                    Some(*x)
                } else {
                    None
                }
            })
    }

    /// The `code` of an error response.
    pub fn error_code(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.get_str("code")
        }
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "id", &self.id);
        push_str_field(&mut out, "status", if self.ok { "ok" } else { "error" });
        for (key, value) in &self.fields {
            match value {
                WireValue::Str(s) => push_str_field(&mut out, key, s),
                WireValue::U64(n) => push_raw_field(&mut out, key, n),
                WireValue::F64(x) => push_bits_field(&mut out, key, *x),
            }
        }
        finish(out)
    }

    /// Parses one response line (the client side of the codec).
    ///
    /// Typing is recovered structurally: quoted 16-hex-digit values
    /// with a `<key>_dec` sibling decode as [`WireValue::F64`], other
    /// quoted values as [`WireValue::Str`], unquoted integers as
    /// [`WireValue::U64`].
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let fields = read_line(line).ok_or_else(|| ProtoError {
            id: String::new(),
            code: codes::PARSE,
            message: "response is not a flat JSON object".to_string(),
        })?;
        let find = |key: &str| fields.iter().find(|f| f.key == key).map(|f| &*f.value);
        let id = find("id").unwrap_or_default().to_string();
        let ok = match find("status") {
            Some("ok") => true,
            Some("error") => false,
            _ => {
                return Err(ProtoError {
                    id,
                    code: codes::PARSE,
                    message: "response has no `status` field".to_string(),
                })
            }
        };
        let mut payload = Vec::new();
        for Field { key, value, quoted } in &fields {
            if key == "id" || key == "status" || key.ends_with("_dec") {
                continue;
            }
            let has_dec = fields
                .iter()
                .any(|f| f.key.strip_suffix("_dec") == Some(&**key));
            let wire = if *quoted && has_dec && value.len() == 16 {
                match u64::from_str_radix(value, 16) {
                    Ok(bits) => WireValue::F64(f64::from_bits(bits)),
                    Err(_) => WireValue::Str(value.to_string()),
                }
            } else if *quoted {
                WireValue::Str(value.to_string())
            } else if let Ok(n) = value.parse::<u64>() {
                WireValue::U64(n)
            } else {
                WireValue::Str(value.to_string())
            };
            payload.push((key.to_string(), wire));
        }
        Ok(Response {
            id,
            ok,
            fields: payload,
        })
    }
}

// ---------------------------------------------------------------------
// Flat JSON codec: the store's reader and writer
// ---------------------------------------------------------------------

/// Reads one wire line with the store's flat-JSON reader. Unlike a
/// store line, a wire line may carry nothing after its closing `}`.
fn read_line(line: &str) -> Option<Vec<Field<'_>>> {
    let mut fields = Vec::new();
    let tail = read_object(line, |field| fields.push(field))?;
    tail.is_empty().then_some(fields)
}

/// Best-effort id extraction from a line that failed to parse, so even
/// a truncated request's error reply correlates with its sender.
fn salvage_id(line: &str) -> String {
    let Some(pos) = line.find("\"id\":") else {
        return String::new();
    };
    read_string(line[pos + 5..].trim_start())
        .map(|(id, _)| id.into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = Request::new("r-1", Op::Tune);
        req.kernel = "dgemm".into();
        req.search = "exhaustive".into();
        req.seed = 11;
        req.budget = 24;
        req.threads = 4;
        req.machine = "manycore".into();
        req.deadline_ms = Some(5000);
        let line = req.encode();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn request_defaults_fill_missing_fields() {
        let req = Request::parse(r#"{"id":"a","op":"tune","kernel":"dgemm"}"#).unwrap();
        assert_eq!(req.search, "bandit");
        assert_eq!(req.seed, 7);
        assert_eq!(req.budget, 16);
        assert_eq!(req.threads, 1);
        assert_eq!(req.machine, "scaled-xeon");
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn malformed_requests_salvage_the_id() {
        let err = Request::parse(r#"{"id":"r-9","op":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.id, "r-9");
        assert_eq!(err.code, codes::UNKNOWN_OP);
        let err = Request::parse(r#"{"id":"r-9","op":"tune","seed":"abc"}"#).unwrap_err();
        assert_eq!(err.id, "r-9");
        assert_eq!(err.code, codes::PARSE);
        let err = Request::parse("not json").unwrap_err();
        assert_eq!(err.id, "");
        assert_eq!(err.code, codes::PARSE);
        // Even a truncated line salvages a completed id field.
        let err = Request::parse(r#"{"id":"cut","op":"tu"#).unwrap_err();
        assert_eq!(err.id, "cut");
        assert_eq!(err.code, codes::PARSE);
    }

    #[test]
    fn response_round_trips_f64_bit_exactly() {
        let ms = 1.0 / 3.0 + 1e-13;
        let resp = Response::ok("r-2")
            .with_str("best_point", "tileI=i16;")
            .with_u64("evaluations", 12)
            .with_f64("best_ms", ms);
        let line = resp.encode();
        let back = Response::parse(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.get_str("best_point"), Some("tileI=i16;"));
        assert_eq!(back.get_u64("evaluations"), Some(12));
        assert_eq!(back.get_f64("best_ms").unwrap().to_bits(), ms.to_bits());
    }

    #[test]
    fn error_responses_carry_code_and_message() {
        let resp = Response::error("r-3", codes::PANIC, "worker died: boom");
        let back = Response::parse(&resp.encode()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error_code(), Some(codes::PANIC));
        assert_eq!(back.get_str("message"), Some("worker died: boom"));
    }

    #[test]
    fn wire_lines_are_byte_exact() {
        let mut req = Request::new("r-\"1\"\n", Op::Tune);
        req.kernel = "dgemm".into();
        req.search = "exhaustive".into();
        req.seed = 11;
        req.budget = 24;
        req.threads = 4;
        req.machine = "manycore".into();
        req.deadline_ms = Some(5000);
        assert_eq!(
            req.encode(),
            r#"{"id":"r-\"1\"\n","op":"tune","kernel":"dgemm","search":"exhaustive","seed":11,"budget":24,"threads":4,"machine":"manycore","deadline_ms":5000}"#
        );
        let resp = Response::ok("r-2")
            .with_str("best_point", "tileI=i16;\t\u{1}")
            .with_u64("evaluations", 12)
            .with_f64("best_ms", 0.5);
        assert_eq!(
            resp.encode(),
            r#"{"id":"r-2","status":"ok","best_point":"tileI=i16;\t\u0001","evaluations":12,"best_ms":"3fe0000000000000","best_ms_dec":0.500000}"#
        );
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        assert!(Request::parse(r#"{"id":"x","op":"ping"} extra"#).is_err());
    }
}
