//! The closed-loop loopback client and the response checker.
//!
//! The client streams each chunked ndjson response through a [`Checker`]
//! line by line: it counts and hashes lines as they arrive and holds at
//! most one line, never a whole response. Every check that decides
//! whether a request failed lives here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use automode_core::json::{fnv1a_64, parse, Json};

use crate::workload::Request;

/// What a response must contain.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A sweep: a header, exactly `count` in-order scenario lines, a done
    /// line with `status: ok` and no oracle divergence.
    Sweep {
        /// Scenario lines.
        count: usize,
    },
    /// An exploration: a header, exactly `generations` in-order
    /// generation lines, shrunk and deterministic repro lines, and a done
    /// line with `status: ok` accounting for `scenarios`.
    Explore {
        /// Generation lines.
        generations: usize,
        /// Scenarios the done line must report.
        scenarios: usize,
    },
}

impl Expect {
    /// The expectation for `req`.
    pub fn of(req: &Request) -> Expect {
        match req {
            Request::Sweep(s) => Expect::Sweep { count: s.count },
            Request::Explore(e) => Expect::Explore {
                generations: e.generations,
                scenarios: e.generations * e.population,
            },
        }
    }
}

/// Order-sensitive fold of one line into a running hash.
fn fold(hash: u64, line: &[u8]) -> u64 {
    (hash.rotate_left(5) ^ fnv1a_64(line)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Content identity of a response's results, comparable with an
/// in-process reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Scenario lines (sweep) or generation lines (explore).
    pub results: usize,
    /// Hash over those lines, in order.
    pub result_hash: u64,
    /// Repro lines (explore).
    pub repros: usize,
    /// Hash over the repro lines, in order.
    pub repro_hash: u64,
}

impl Digest {
    /// Folds a result line in.
    pub fn result(&mut self, line: &[u8]) {
        self.results += 1;
        self.result_hash = fold(self.result_hash, line);
    }

    /// Folds a repro line in.
    pub fn repro(&mut self, line: &[u8]) {
        self.repros += 1;
        self.repro_hash = fold(self.repro_hash, line);
    }

    /// `Ok` when `self` carries byte-identical lines to `reference`.
    ///
    /// # Errors
    ///
    /// Names which part differs.
    pub fn verify(&self, reference: &Digest) -> Result<(), String> {
        if self.results != reference.results || self.result_hash != reference.result_hash {
            return Err(format!(
                "result lines differ from the in-process reference ({} lines, hash {:016x}; expected {} lines, hash {:016x})",
                self.results, self.result_hash, reference.results, reference.result_hash
            ));
        }
        if self.repros != reference.repros || self.repro_hash != reference.repro_hash {
            return Err(format!(
                "repro lines differ from the in-process reference ({} vs {})",
                self.repros, reference.repros
            ));
        }
        Ok(())
    }
}

/// A checked response.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Whether the header reported a compiled-model cache hit.
    pub cache_hit: bool,
    /// The response's content identity.
    pub digest: Digest,
    /// Payload bytes of all ndjson lines.
    pub bytes: u64,
}

/// Validates one response stream line by line.
pub struct Checker {
    expect: Expect,
    sent: Instant,
    first_result: Option<Duration>,
    cache_hit: Option<bool>,
    digest: Digest,
    bytes: u64,
    done: bool,
    error: Option<String>,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |v, k| v.get(k))
}

fn excerpt(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[..line.len().min(160)]).into_owned()
}

impl Checker {
    /// A checker for a request sent at `sent`.
    pub fn new(expect: Expect, sent: Instant) -> Checker {
        Checker {
            expect,
            sent,
            first_result: None,
            cache_hit: None,
            digest: Digest::default(),
            bytes: 0,
            done: false,
            error: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    fn mark_result(&mut self) {
        if self.first_result.is_none() {
            self.first_result = Some(self.sent.elapsed());
        }
    }

    /// Checks one ndjson line (without its newline).
    pub fn line(&mut self, line: &[u8]) {
        self.bytes += line.len() as u64 + 1;
        if self.error.is_some() {
            return;
        }
        if self.done {
            return self.fail(format!("line after the done line: {}", excerpt(line)));
        }
        if self.cache_hit.is_none() {
            return self.header(line);
        }
        match self.expect {
            Expect::Sweep { count } => self.sweep_line(line, count),
            Expect::Explore {
                generations,
                scenarios,
            } => self.explore_line(line, generations, scenarios),
        }
    }

    fn header(&mut self, line: &[u8]) {
        let key = match self.expect {
            Expect::Sweep { .. } => "sweep",
            Expect::Explore { .. } => "explore",
        };
        let doc = std::str::from_utf8(line).ok().and_then(|s| parse(s).ok());
        match doc
            .as_ref()
            .and_then(|d| field(d, &[key, "cache"]))
            .and_then(Json::as_str)
        {
            Some(c) => self.cache_hit = Some(c == "hit"),
            None => self.fail(format!("bad header line: {}", excerpt(line))),
        }
    }

    fn sweep_line(&mut self, line: &[u8], count: usize) {
        if line.starts_with(b"{\"done\":") {
            return self.done_line(line, count, &[("oracle_divergences", 0)]);
        }
        // Scenario lines are checked by prefix and hashed, not parsed:
        // a traced line is ~200 KB and the client must keep up.
        let prefix = format!("{{\"scenario\":{},\"result\":", self.digest.results);
        if !line.starts_with(prefix.as_bytes()) || self.digest.results >= count {
            return self.fail(format!("unexpected scenario line: {}", excerpt(line)));
        }
        self.mark_result();
        self.digest.result(line);
    }

    fn explore_line(&mut self, line: &[u8], generations: usize, scenarios: usize) {
        let Some(doc) = std::str::from_utf8(line).ok().and_then(|s| parse(s).ok()) else {
            return self.fail(format!("unparseable line: {}", excerpt(line)));
        };
        if let Some(g) = doc.get("generation") {
            if g.get("index").and_then(Json::as_u64) != Some(self.digest.results as u64)
                || self.digest.results >= generations
            {
                return self.fail(format!("unexpected generation line: {}", excerpt(line)));
            }
            self.mark_result();
            self.digest.result(line);
        } else if let Some(r) = doc.get("repro") {
            let flag = |k| r.get(k).and_then(Json::as_bool) == Some(true);
            if !(flag("shrunk") && flag("deterministic")) {
                return self.fail(format!(
                    "repro not shrunk and deterministic: {}",
                    excerpt(line)
                ));
            }
            self.digest.repro(line);
        } else if doc.get("done").is_some() {
            let repros = self.digest.repros as u64;
            self.done_line(line, scenarios, &[("violations", repros)]);
        } else {
            self.fail(format!("unexpected line: {}", excerpt(line)));
        }
    }

    fn done_line(&mut self, line: &[u8], scenarios: usize, equal: &[(&str, u64)]) {
        self.done = true;
        let doc = std::str::from_utf8(line).ok().and_then(|s| parse(s).ok());
        let get = |k: &str| doc.as_ref().and_then(|d| field(d, &["done", k])).cloned();
        let ok = get("status").as_ref().and_then(Json::as_str) == Some("ok")
            && get("scenarios").as_ref().and_then(Json::as_u64) == Some(scenarios as u64)
            && equal
                .iter()
                .all(|(k, v)| get(k).as_ref().and_then(Json::as_u64) == Some(*v));
        if !ok {
            self.fail(format!("done line reports a failure: {}", excerpt(line)));
        }
    }

    /// Time from send to the first scenario or generation line.
    pub fn first_result(&self) -> Option<Duration> {
        self.first_result
    }

    /// The verdict on the whole response.
    ///
    /// # Errors
    ///
    /// The first check the response failed.
    pub fn finish(self, status: u16, complete: bool) -> Result<Summary, String> {
        if status != 200 {
            return Err(format!("HTTP status {status}"));
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        if !complete {
            return Err("truncated stream: no terminating chunk".into());
        }
        if !self.done {
            return Err("stream ended without a done line".into());
        }
        let want = match self.expect {
            Expect::Sweep { count } => count,
            Expect::Explore { generations, .. } => generations,
        };
        if self.digest.results != want {
            return Err(format!(
                "{} result lines, expected {want}",
                self.digest.results
            ));
        }
        Ok(Summary {
            cache_hit: self.cache_hit.unwrap_or(false),
            digest: self.digest,
            bytes: self.bytes,
        })
    }
}

/// Largest chunk the client accepts; the service sends one ndjson line
/// per chunk, and a traced scenario line is well under 1 MiB.
const MAX_CHUNK: usize = 64 << 20;

/// Reads one HTTP response from `r`, feeding each ndjson line of a
/// chunked body to `check`. Returns the status and whether the stream
/// carried its terminating zero-length chunk; any framing or socket
/// error ends the read as an incomplete stream.
pub fn read_response(r: impl Read, check: &mut Checker) -> (u16, bool) {
    let mut r = BufReader::with_capacity(64 * 1024, r);
    let mut head = Vec::new();
    if r.read_until(b'\n', &mut head).unwrap_or(0) == 0 {
        return (0, false);
    }
    let status = std::str::from_utf8(&head)
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    loop {
        head.clear();
        if r.read_until(b'\n', &mut head).unwrap_or(0) == 0 {
            return (status, false);
        }
        if head == b"\r\n" {
            break;
        }
        chunked |= head
            .to_ascii_lowercase()
            .starts_with(b"transfer-encoding: chunked");
    }
    if !chunked {
        let mut body = Vec::new();
        let complete = r.read_to_end(&mut body).is_ok();
        check.line(&body);
        return (status, complete);
    }
    let mut pending: Vec<u8> = Vec::new();
    loop {
        head.clear();
        if r.read_until(b'\n', &mut head).unwrap_or(0) == 0 {
            return (status, false);
        }
        let size = std::str::from_utf8(&head)
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .filter(|&n| n <= MAX_CHUNK);
        let Some(size) = size else {
            return (status, false);
        };
        if size == 0 {
            if !pending.is_empty() {
                check.line(&pending);
            }
            return (status, true);
        }
        let start = pending.len();
        pending.resize(start + size, 0);
        let mut crlf = [0u8; 2];
        if r.read_exact(&mut pending[start..]).is_err()
            || r.read_exact(&mut crlf).is_err()
            || &crlf != b"\r\n"
        {
            return (status, false);
        }
        let mut from = 0;
        while let Some(p) = pending[from..].iter().position(|&b| b == b'\n') {
            check.line(&pending[from..from + p]);
            from += p + 1;
        }
        pending.drain(..from);
    }
}

/// One timed request/response exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Send to last byte.
    pub latency: Duration,
    /// Send to the first scenario or generation line.
    pub first_result: Option<Duration>,
    /// The checked response, or why it failed.
    pub outcome: Result<Summary, String>,
}

/// Sends `req` to `addr` on a fresh connection and checks the streamed
/// response.
pub fn send(addr: SocketAddr, req: &Request) -> Exchange {
    let sent = Instant::now();
    let mut check = Checker::new(Expect::of(req), sent);
    let body = req.body();
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        req.path(),
        body.len()
    );
    let transport = TcpStream::connect(addr).and_then(|mut s| {
        s.set_nodelay(true)?;
        s.write_all(head.as_bytes())?;
        s.write_all(body.as_bytes())?;
        Ok(read_response(&s, &mut check))
    });
    let latency = sent.elapsed();
    let first_result = check.first_result();
    let outcome = match transport {
        Ok((status, complete)) => check.finish(status, complete),
        Err(e) => Err(format!("connection failed: {e}")),
    };
    Exchange {
        latency,
        first_result,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: [&str; 4] = [
        r#"{"sweep":{"cache":"hit","scenarios":2}}"#,
        r#"{"scenario":0,"result":{"metrics":{"ticks":4}}}"#,
        r#"{"scenario":1,"result":{"metrics":{"ticks":4}}}"#,
        r#"{"done":{"status":"ok","scenarios":2,"oracle_divergences":0}}"#,
    ];

    fn response(lines: &[&str], terminate: bool) -> Vec<u8> {
        let mut raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n".to_vec();
        for l in lines {
            raw.extend_from_slice(format!("{:x}\r\n{l}\n\r\n", l.len() + 1).as_bytes());
        }
        if terminate {
            raw.extend_from_slice(b"0\r\n\r\n");
        }
        raw
    }

    fn check(raw: &[u8]) -> Result<Summary, String> {
        let mut c = Checker::new(Expect::Sweep { count: 2 }, Instant::now());
        let (status, complete) = read_response(raw, &mut c);
        c.finish(status, complete)
    }

    fn reference() -> Digest {
        let mut d = Digest::default();
        d.result(LINES[1].as_bytes());
        d.result(LINES[2].as_bytes());
        d
    }

    #[test]
    fn accepts_a_complete_matching_stream() {
        let s = check(&response(&LINES, true)).unwrap();
        assert!(s.cache_hit);
        s.digest.verify(&reference()).unwrap();
    }

    #[test]
    fn rejects_a_tampered_scenario_line() {
        let tampered = LINES[2].replace("\"ticks\":4", "\"ticks\":5");
        let lines = [LINES[0], LINES[1], &tampered, LINES[3]];
        let s = check(&response(&lines, true)).unwrap();
        assert!(s.digest.verify(&reference()).is_err());
    }

    #[test]
    fn rejects_a_truncated_stream() {
        let raw = response(&LINES, true);
        let err = check(&raw[..raw.len() - 5]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = check(&raw[..raw.len() - 40]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(check(&response(&LINES[..3], true)).is_err());
    }

    #[test]
    fn rejects_error_lines_and_failed_sweeps() {
        let error = r#"{"scenario":1,"error":"simulation failed"}"#;
        assert!(check(&response(&[LINES[0], LINES[1], error, LINES[3]], true)).is_err());
        let diverged = LINES[3].replace("\"oracle_divergences\":0", "\"oracle_divergences\":1");
        assert!(check(&response(&[LINES[0], LINES[1], LINES[2], &diverged], true)).is_err());
        let status = LINES[3].replace("ok", "failed");
        assert!(check(&response(&[LINES[0], LINES[1], LINES[2], &status], true)).is_err());
        let out_of_order = [LINES[0], LINES[2], LINES[1], LINES[3]];
        assert!(check(&response(&out_of_order, true)).is_err());
    }
}
