//! The run manifest: a crash-safe record of per-experiment progress that
//! makes `run-all --resume` possible.
//!
//! The manifest lives at `<out>/manifest.json` and is rewritten (through
//! [`sim_core::persist::atomic_write`], so a crash never leaves a torn
//! manifest) around every experiment state transition:
//!
//! * before an experiment starts it is marked `running` — after a crash
//!   the manifest shows exactly which experiment was interrupted;
//! * on success it is marked `done` with a CRC-32 digest of the CSV
//!   artifact, so a resume can verify the artifact on disk really is the
//!   one the manifest describes before skipping the experiment;
//! * on failure (after retries) it is marked `failed` with the error.
//!
//! The file is JSON written and parsed by the tiny self-contained
//! implementation in the private `json` module — the container has no serde, and the
//! schema is small enough that hand-rolling stays honest.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Manifest schema version; bumped on incompatible layout changes.
pub const MANIFEST_VERSION: u64 = 1;

/// Lifecycle state of one experiment in a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not started yet.
    Pending,
    /// Started but not finished — after a crash, the interrupted one.
    Running,
    /// Finished successfully.
    Done,
    /// Gave up after the retry budget.
    Failed,
}

impl Status {
    /// The manifest string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Pending => "pending",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }

    /// Parses a manifest status string.
    pub fn parse(s: &str) -> Option<Status> {
        match s {
            "pending" => Some(Status::Pending),
            "running" => Some(Status::Running),
            "done" => Some(Status::Done),
            "failed" => Some(Status::Failed),
            _ => None,
        }
    }
}

/// One experiment's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Experiment name (`fig01`, `tab-overhead`, ...).
    pub name: String,
    /// CSV artifact file name relative to the output directory.
    pub file: String,
    /// CRC-32 (hex) of the written CSV; empty until done.
    pub digest: String,
    /// Lifecycle state.
    pub status: Status,
    /// Number of run attempts so far.
    pub attempts: u64,
    /// Last error message (empty unless failed).
    pub error: String,
}

impl Entry {
    fn new(name: &str, file: &str) -> Entry {
        Entry {
            name: name.to_string(),
            file: file.to_string(),
            digest: String::new(),
            status: Status::Pending,
            attempts: 0,
            error: String::new(),
        }
    }
}

/// The run manifest: run inputs (scale, vector mode) plus per-experiment
/// progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Scale label the run was started with (`quick`/`medium`/`paper`).
    pub scale: String,
    /// Vector mode label (`WI`/`WN1`).
    pub mode: String,
    /// Per-experiment progress, in run order.
    pub experiments: Vec<Entry>,
}

impl Manifest {
    /// Creates an empty manifest for a run with the given inputs.
    pub fn new(scale: &str, mode: &str) -> Manifest {
        Manifest {
            scale: scale.to_string(),
            mode: mode.to_string(),
            experiments: Vec::new(),
        }
    }

    /// Looks up an experiment entry.
    pub fn entry(&self, name: &str) -> Option<&Entry> {
        self.experiments.iter().find(|e| e.name == name)
    }

    /// Looks up an experiment entry mutably, adding a fresh one if the
    /// manifest (e.g. from an older run) doesn't know it yet.
    pub fn entry_mut(&mut self, name: &str, file: &str) -> &mut Entry {
        if let Some(i) = self.experiments.iter().position(|e| e.name == name) {
            &mut self.experiments[i]
        } else {
            self.experiments.push(Entry::new(name, file));
            self.experiments.last_mut().expect("just pushed")
        }
    }

    /// Serializes the manifest to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {MANIFEST_VERSION},");
        let _ = writeln!(out, "  \"scale\": {},", json::quote(&self.scale));
        let _ = writeln!(out, "  \"mode\": {},", json::quote(&self.mode));
        let _ = writeln!(out, "  \"experiments\": [");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"file\": {}, \"digest\": {}, \
                 \"status\": {}, \"attempts\": {}, \"error\": {}}}{comma}",
                json::quote(&e.name),
                json::quote(&e.file),
                json::quote(&e.digest),
                json::quote(e.status.as_str()),
                e.attempts,
                json::quote(&e.error),
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a manifest from JSON text. Returns `None` on any syntax or
    /// schema mismatch (including a version from the future) — a resume
    /// then degrades to a fresh run.
    pub fn parse(text: &str) -> Option<Manifest> {
        let value = json::parse(text)?;
        let top = value.as_object()?;
        if json::get(top, "version")?.as_u64()? != MANIFEST_VERSION {
            return None;
        }
        let mut manifest = Manifest::new(
            json::get(top, "scale")?.as_str()?,
            json::get(top, "mode")?.as_str()?,
        );
        for item in json::get(top, "experiments")?.as_array()? {
            let e = item.as_object()?;
            manifest.experiments.push(Entry {
                name: json::get(e, "name")?.as_str()?.to_string(),
                file: json::get(e, "file")?.as_str()?.to_string(),
                digest: json::get(e, "digest")?.as_str()?.to_string(),
                status: Status::parse(json::get(e, "status")?.as_str()?)?,
                attempts: json::get(e, "attempts")?.as_u64()?,
                error: json::get(e, "error")?.as_str()?.to_string(),
            });
        }
        Some(manifest)
    }

    /// Loads a manifest from disk; `None` if absent or unparseable.
    pub fn load(path: &Path) -> Option<Manifest> {
        Manifest::parse(&std::fs::read_to_string(path).ok()?)
    }

    /// Persists the manifest atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        sim_core::persist::atomic_write(path, self.to_json().as_bytes())
    }
}

/// CRC-32 (hex, lowercase, 8 digits) of an artifact's bytes — the digest
/// format the manifest stores.
pub fn digest(bytes: &[u8]) -> String {
    let mut crc = traces::format::Crc32::new();
    crc.update(bytes);
    format!("{:08x}", crc.finish())
}

/// A minimal JSON subset: objects, arrays, strings (with escapes),
/// non-negative integers, plus whitespace. Exactly what the manifest
/// schema needs, nothing more.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// A string.
        Str(String),
        /// A non-negative integer.
        Num(u64),
        /// An array.
        Arr(Vec<Value>),
        /// An object as key/value pairs in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Field lookup in a parsed object.
    pub fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes a string with JSON escaping.
    pub fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses one JSON document; `None` on any error or trailing junk.
    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Option<()> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Some(())
            } else {
                None
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn value(&mut self) -> Option<Value> {
            match self.peek()? {
                b'"' => self.string().map(Value::Str),
                b'[' => self.array(),
                b'{' => self.object(),
                b'0'..=b'9' => self.number(),
                _ => None,
            }
        }

        fn string(&mut self) -> Option<String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos)? {
                    b'"' => {
                        self.pos += 1;
                        return Some(out);
                    }
                    b'\\' => {
                        self.pos += 1;
                        match self.bytes.get(self.pos)? {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                                let code =
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                                out.push(char::from_u32(code)?);
                                self.pos += 4;
                            }
                            _ => return None,
                        }
                        self.pos += 1;
                    }
                    _ => {
                        // Consume one UTF-8 scalar (multi-byte sequences
                        // never contain '"' or '\\' continuation bytes, so
                        // a byte-wise copy would also work; this keeps the
                        // char-boundary invariant explicit).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                        let c = rest.chars().next()?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Option<Value> {
            self.skip_ws();
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == start {
                return None;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()?
                .parse()
                .ok()
                .map(Value::Num)
        }

        fn array(&mut self) -> Option<Value> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }

        fn object(&mut self) -> Option<Value> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Some(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                fields.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Some(Value::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("quick", "WI");
        {
            let e = m.entry_mut("fig01", "fig01.csv");
            e.status = Status::Done;
            e.digest = "deadbeef".into();
            e.attempts = 1;
        }
        {
            let e = m.entry_mut("fig04", "fig04.csv");
            e.status = Status::Failed;
            e.attempts = 3;
            e.error = "panicked: \"boom\"\nline two\t\\end".into();
        }
        m.entry_mut("fig10", "fig10.csv");
        m
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let parsed = Manifest::parse(&m.to_json()).expect("round trip");
        assert_eq!(parsed, m);
    }

    #[test]
    fn rejects_garbage_and_future_versions() {
        assert!(Manifest::parse("").is_none());
        assert!(Manifest::parse("{not json").is_none());
        assert!(Manifest::parse("{\"version\": 99}").is_none());
        let truncated = sample().to_json();
        assert!(Manifest::parse(&truncated[..truncated.len() / 2]).is_none());
        let trailing = format!("{}junk", sample().to_json());
        assert!(Manifest::parse(&trailing).is_none());
    }

    #[test]
    fn entry_lookup_and_upsert() {
        let mut m = sample();
        assert_eq!(m.entry("fig01").unwrap().digest, "deadbeef");
        assert!(m.entry("nope").is_none());
        assert_eq!(m.experiments.len(), 3);
        m.entry_mut("fig01", "fig01.csv").attempts = 2;
        assert_eq!(m.experiments.len(), 3, "upsert must not duplicate");
        m.entry_mut("new", "new.csv");
        assert_eq!(m.experiments.len(), 4);
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("plru-test-manifest");
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        assert!(Manifest::load(&dir.join("absent.json")).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_is_stable_crc32_hex() {
        assert_eq!(digest(b""), "00000000");
        assert_eq!(digest(b"hello"), digest(b"hello"));
        assert_ne!(digest(b"hello"), digest(b"hellp"));
        assert_eq!(digest(b"x").len(), 8);
    }
}
