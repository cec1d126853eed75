//! One connection to a `pic-serve --stdio` child process: the calling
//! thread writes requests, one reader thread timestamps response lines.

use crate::check::Digest;
use pic_serve::JobSpec;
use pic_telemetry::json::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A response line and when the reader thread finished reading it, ns
/// since the connection's base instant.
pub struct Line {
    /// Read time.
    pub at: f64,
    /// The line, without its newline.
    pub text: String,
}

/// A running `pic-serve` child and its connection.
pub struct ServeProc {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    lines: Receiver<Line>,
    reader: Option<JoinHandle<()>>,
    base: Instant,
}

impl ServeProc {
    /// Starts `bin` with `args`; timestamps are ns since `base`.
    pub fn launch(bin: &Path, args: &[String], base: Instant) -> io::Result<ServeProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().map(BufWriter::new);
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child has no stdout"))?;
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            let mut input = BufReader::with_capacity(1 << 20, stdout);
            let mut text = String::new();
            loop {
                text.clear();
                match input.read_line(&mut text) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = base.elapsed().as_nanos() as f64;
                        let mut text = std::mem::take(&mut text);
                        text.truncate(text.trim_end().len());
                        let line = Line { at, text };
                        if tx.send(line).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(ServeProc {
            child,
            stdin,
            lines,
            reader: Some(reader),
            base,
        })
    }

    /// ns since the base instant.
    pub fn now(&self) -> f64 {
        self.base.elapsed().as_nanos() as f64
    }

    /// Writes one request line; returns the time taken just before the
    /// write.
    pub fn send(&mut self, line: &str) -> io::Result<f64> {
        let at = self.now();
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("connection already closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        Ok(at)
    }

    /// Submits `spec` under `tag`.
    pub fn submit(&mut self, tag: &str, spec: &JobSpec) -> io::Result<f64> {
        let request = Value::obj([
            ("proto", Value::Num(1.0)),
            ("op", Value::Str("submit".to_string())),
            ("tag", Value::Str(tag.to_string())),
            ("spec", spec.to_value()),
        ]);
        self.send(&request.to_json())
    }

    /// Next response line, waiting at most `timeout`. `Err(true)` means
    /// the server closed its output.
    pub fn recv(&self, timeout: Duration) -> Result<Line, bool> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err(false),
            Err(RecvTimeoutError::Disconnected) => Err(true),
        }
    }

    /// Sends `stats` and waits for its reply: the server is ready.
    pub fn wait_ready(&mut self, timeout: Duration) -> io::Result<()> {
        self.send(r#"{"proto":1,"op":"stats"}"#)?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv(left) {
                Ok(line) if matches!(Response::parse(&line.text), Response::Stats) => return Ok(()),
                Ok(_) => {}
                Err(_) => return Err(io::Error::other("pic-serve did not answer stats")),
            }
        }
    }

    /// Submits `jobs` one at a time and waits for each to complete.
    pub fn run_closed(
        &mut self,
        prefix: &str,
        jobs: &[JobSpec],
        timeout: Duration,
    ) -> io::Result<()> {
        for (i, spec) in jobs.iter().enumerate() {
            let tag = format!("{prefix}{i}");
            self.submit(&tag, spec)?;
            let deadline = Instant::now() + timeout;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let line = self
                    .recv(left)
                    .map_err(|_| io::Error::other(format!("no reply to {tag}")))?;
                match Response::parse(&line.text) {
                    Response::Terminal(t) if t.tag.as_deref() == Some(tag.as_str()) => {
                        if t.kind != "completed" {
                            return Err(io::Error::other(format!("{tag} ended {}", t.kind)));
                        }
                        break;
                    }
                    Response::Rejected(Some(t)) if t == tag => {
                        return Err(io::Error::other(format!("{tag} rejected")));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Peak resident set of the server (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// Asks the server to drain and stop, then waits for it and the
    /// reader thread to end. Lines still unread are dropped.
    pub fn shutdown(mut self, timeout: Duration) -> io::Result<()> {
        let _ = self.send(r#"{"proto":1,"op":"shutdown"}"#);
        self.stdin = None;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv(left) {
                Ok(_) => {}
                Err(true) => break,
                Err(false) => return Err(io::Error::other("pic-serve did not shut down")),
            }
        }
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(io::Error::other(format!("pic-serve exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for ServeProc {
    /// A connection dropped without `shutdown` (an error path) kills the
    /// child and waits for it, so no process outlives the benchmark.
    fn drop(&mut self) {
        self.stdin = None;
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The fields of a terminal response the benchmark uses.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Terminal {
    /// Echoed client tag.
    pub tag: Option<String>,
    /// `completed`, `rejected`, `cancelled` or `timed-out`.
    pub kind: String,
    /// Reported queue wait, ns.
    pub queue_wait_ns: f64,
    /// Reported sweep wall time, ns.
    pub run_ns: f64,
    /// Jobs in the batch.
    pub batch_size: f64,
    /// Steps integrated.
    pub steps_done: u64,
    /// Served from the cache or coalesced.
    pub cache_hit: bool,
    /// Digest of the returned dump, if any.
    pub dump: Option<Digest>,
}

/// A parsed response line.
#[derive(Debug, PartialEq)]
pub enum Response {
    /// `accepted` for a tag.
    Accepted(Option<String>),
    /// `rejected` at admission (no server id).
    Rejected(Option<String>),
    /// A terminal outcome of an admitted job.
    Terminal(Terminal),
    /// A `stats` reply.
    Stats,
    /// Anything else.
    Other,
}

impl Response {
    /// Parses one response line.
    pub fn parse(text: &str) -> Response {
        let Some(fields) = parse_flat(text) else {
            return Response::Other;
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let str_of = |key: &str| match get(key) {
            Some(Flat::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        let num = |key: &str| match get(key) {
            Some(Flat::Num(x)) => *x,
            _ => 0.0,
        };
        let tag = str_of("tag").map(str::to_string);
        let kind = str_of("type").unwrap_or("");
        match kind {
            "accepted" => Response::Accepted(tag),
            "rejected" if get("id").is_none() => Response::Rejected(tag),
            "completed" | "rejected" | "cancelled" | "timed-out" => Response::Terminal(Terminal {
                tag,
                kind: kind.to_string(),
                queue_wait_ns: num("queue_wait_ns"),
                run_ns: num("run_ns"),
                batch_size: num("batch_size"),
                steps_done: num("steps_done") as u64,
                cache_hit: matches!(get("cache_hit"), Some(Flat::Bool(true))),
                dump: str_of("particles").map(|s| Digest::of(s.as_bytes())),
            }),
            "stats" => Response::Stats,
            _ => Response::Other,
        }
    }
}

/// A scalar value of a flat JSON object.
#[derive(Debug, PartialEq)]
enum Flat {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parses a JSON object whose values are all scalars — the shape of
/// every `pic-serve` response — in one linear pass, since a returned
/// dump makes a line tens of megabytes long. `None` for anything else.
fn parse_flat(text: &str) -> Option<Vec<(String, Flat)>> {
    let b = text.as_bytes();
    let mut pos = 0;
    let ws = |pos: &mut usize| {
        while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
            *pos += 1;
        }
    };
    let string = |pos: &mut usize| -> Option<String> {
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\')?;
            out.push_str(text.get(*pos..*pos + run)?);
            *pos += run;
            if b[*pos] == b'"' {
                *pos += 1;
                return Some(out);
            }
            let esc = *b.get(*pos + 1)?;
            *pos += 2;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let code = u32::from_str_radix(text.get(*pos..*pos + 4)?, 16).ok()?;
                    *pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return None,
            });
        }
    };
    ws(&mut pos);
    if b.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    let mut fields = Vec::new();
    loop {
        ws(&mut pos);
        if b.get(pos) == Some(&b'}') && fields.is_empty() {
            pos += 1;
            break;
        }
        let key = string(&mut pos)?;
        ws(&mut pos);
        if b.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        ws(&mut pos);
        let value = match *b.get(pos)? {
            b'"' => Flat::Str(string(&mut pos)?),
            b't' if text[pos..].starts_with("true") => {
                pos += 4;
                Flat::Bool(true)
            }
            b'f' if text[pos..].starts_with("false") => {
                pos += 5;
                Flat::Bool(false)
            }
            b'n' if text[pos..].starts_with("null") => {
                pos += 4;
                Flat::Null
            }
            _ => {
                let len = b[pos..]
                    .iter()
                    .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .unwrap_or(b.len() - pos);
                let x = text[pos..pos + len].parse().ok()?;
                pos += len;
                Flat::Num(x)
            }
        };
        fields.push((key, value));
        ws(&mut pos);
        match b.get(pos)? {
            b',' => pos += 1,
            b'}' => {
                pos += 1;
                break;
            }
            _ => return None,
        }
    }
    ws(&mut pos);
    (pos == b.len()).then_some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_into_the_fields_the_benchmark_reads() {
        let done = r#"{"proto":1,"type":"completed","id":3,"nsps":2.5,"queue_wait_ns":1000,"run_ns":5000,"batch_size":2,"steps_done":20,"imbalance":0,"time_imbalance":0,"cache_hit":true,"particles":"abc","tag":"j4"}"#;
        let Response::Terminal(t) = Response::parse(done) else {
            panic!("not terminal");
        };
        assert_eq!(t.tag.as_deref(), Some("j4"));
        assert_eq!(
            (t.queue_wait_ns, t.run_ns, t.batch_size),
            (1000.0, 5000.0, 2.0)
        );
        assert_eq!(t.steps_done, 20);
        assert!(t.cache_hit);
        assert_eq!(t.dump, Some(Digest::of(b"abc")));
        let shed = r#"{"proto":1,"type":"rejected","reason":"queue-full","detail":"x","tag":"j5"}"#;
        assert_eq!(Response::parse(shed), Response::Rejected(Some("j5".into())));
        let late = r#"{"proto":1,"type":"rejected","id":9,"reason":"worker-panic","detail":"x","tag":"j6"}"#;
        assert!(matches!(Response::parse(late), Response::Terminal(t) if t.kind == "rejected"));
        assert_eq!(
            Response::parse(r#"{"proto":1,"type":"accepted","id":1,"tag":"j1"}"#),
            Response::Accepted(Some("j1".into()))
        );
        assert_eq!(Response::parse("not json"), Response::Other);
    }

    #[test]
    fn flat_parser_agrees_with_the_serializer() {
        let v = Value::obj([
            ("a", Value::Str("line 1\nline \"2\" \\ \u{1} é".into())),
            ("b", Value::Num(-1.5e-7)),
            ("c", Value::Bool(false)),
            ("d", Value::Null),
        ]);
        let fields = parse_flat(&v.to_json()).unwrap();
        assert_eq!(
            fields,
            vec![
                (
                    "a".to_string(),
                    Flat::Str("line 1\nline \"2\" \\ \u{1} é".into())
                ),
                ("b".to_string(), Flat::Num(-1.5e-7)),
                ("c".to_string(), Flat::Bool(false)),
                ("d".to_string(), Flat::Null),
            ]
        );
        assert_eq!(parse_flat("{}"), Some(vec![]));
        for bad in [
            "",
            "{",
            "{\"a\":[1]}",
            "{\"a\":1} x",
            "{\"a\":\"unterminated}",
        ] {
            assert_eq!(parse_flat(bad), None, "{bad}");
        }
    }
}
