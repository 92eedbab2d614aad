//! `serve_stream`: the release `optipart-serve serve --socket` binary at
//! `--workers` = nproc, driven by this process as its one client. The
//! client runs an open loop at a fixed offered rate: it sends each request
//! when it is due and timestamps its response line as it is read, so
//! latency runs from when a request was due.
//!
//! Each request travels on its own Unix-socket connection: the client
//! writes the line and closes its sending side at once. The server's
//! connection pump forwards a finished response only after it reads the
//! next line or the end of input, so on a shared connection a response
//! would wait for the next request; with the end of input right behind
//! each line, it leaves as soon as it is done. One thread sends and reads,
//! waiting on every open connection at once.
//!
//! The stream visits a hot set of `serve::soak::mixed_stream` scenarios,
//! with every `FRESH_EVERY`-th request replaced by a one-off scenario. A
//! rate ladder over a stream of the same mix gives the highest rate that
//! meets the latency limit. Every served payload is then verified against
//! `serve::soak::DirectCache`, the direct library call.

use crate::spans::Spans;
use crate::{alloc, median, percentile, tail, with_threads, Args, Outcome};
use optipart_core::optipart::PartitionState;
use optipart_mpisim::rng::SplitMix64;
use optipart_serve::protocol::Fields;
use optipart_serve::scenario::Scenario;
use optipart_serve::soak::{mixed_stream, DirectCache};
use optipart_serve::{run_request, Payload, Request, Response, Status, WarmPath};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Distinct scenarios in the hot set.
const HOT: usize = 48;
/// Every `FRESH_EVERY`-th request is a one-off scenario (a guaranteed
/// miss). The ratio is the one `optipart-serve gen` uses by default: a
/// stream of `n` requests draws `n / 8` distinct scenarios, up to 48, so
/// one request in eight is a first sighting. Here the hot set is warmed
/// during set-up, and the one-offs are the first sightings.
const FRESH_EVERY: usize = 8;
/// Offered rate of the main window, requests per second: light load, so a
/// request's latency is its own service. At 40 req/s over 384 requests,
/// queueing behind other requests on the same worker decided which
/// requests made the tail, and the tail spread three times as much from
/// run to run.
const RATE: f64 = 20.0;
/// Requests in the main window: three and a half rounds of the hot set and
/// half a round of one-offs. The tail is then p95, among the costliest hot
/// scenarios rather than beyond them.
const MAIN_REQUESTS: usize = 4 * HOT;
/// Requests per ladder rung: whole rounds, seven of the hot set and one of
/// one-offs, so each rung serves the same mix, and long enough (over a
/// second) that a burst of costly requests does not decide a rung.
const RUNG_N: usize = 8 * HOT;
/// The ladder starts at this share of the capacity the main window
/// suggests (nproc workers over the mean server time of a request) and
/// climbs by `LADDER_STEP` a rung until a rung fails.
const LADDER_START: f64 = 0.35;
const LADDER_STEP: f64 = 1.1;
/// Rungs at most: the top rung is 0.35 × 1.1^19 ≈ 2.1 times the suggested
/// capacity, about 4.5 times the capacity the ladder finds. A ladder that
/// passes every rung marks the run invalid.
const MAX_RUNGS: usize = 20;
/// Limit on a ladder rung's median latency for `serve_max_rps`: about six
/// times the median at light load (3 ms), where queueing starts to
/// dominate. The median, not the tail: a rung's tail was too noisy to rank
/// rates by. Nor a higher limit: past about 20 ms the median grows with the
/// rung's backlog, and a rung often failed on its growing backlog before
/// its median reached 50 ms.
const LIMIT_MS: f64 = 20.0;
/// A run whose sender ran later than this at p99 is invalid, not slow.
const LATE_LIMIT_MS: f64 = 20.0;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests timed standalone per layer in the traced run.
const STANDALONE: usize = 48;
/// How long to wait for a phase's responses before counting them failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Seed of the hot set: the 48 scenarios of `optipart-serve gen --requests
/// 2000 --seed 7`, the stream the server was probed with when the
/// benchmark was defined; 26 of them carry a benign fault plan. The hot set
/// is the same for every workload seed, so runs on different seeds serve
/// the same scenario mix: the workload seed draws the order of requests and
/// the one-offs' meshes.
const HOT_SEED: u64 = 7;

/// Seed of the ladder's stream.
const LADDER_SEED: u64 = 0x01AD_DE12;

/// The distinct scenarios of `serve::soak::mixed_stream` at `HOT_SEED`.
fn hot_set() -> Vec<Scenario> {
    let mut keys = BTreeSet::new();
    mixed_stream(HOT_SEED, 2000, HOT, 0, 0)
        .into_iter()
        .filter(|r| keys.insert(r.key()))
        .map(|r| r.scn)
        .collect()
}

/// Whether request `id` of the stream is a one-off scenario.
fn is_one_off(id: u64) -> bool {
    id as usize % FRESH_EVERY == FRESH_EVERY - 1
}

/// Draws a stream's scenarios from one seed: hot scenarios in rounds —
/// each round every hot scenario once, in a shuffled order — and one-offs:
/// hot scenarios, taken in rounds of their own, with fresh mesh seeds.
struct Picker {
    pick: SplitMix64,
    fresh: SplitMix64,
    round: Vec<usize>,
    one_offs: Vec<usize>,
}

impl Picker {
    fn new(seed: u64) -> Picker {
        Picker {
            pick: SplitMix64::new(seed).fork(0x9106),
            fresh: SplitMix64::new(seed).fork(0xF2E5),
            round: Vec::new(),
            one_offs: Vec::new(),
        }
    }

    /// The hot-set index of request `id`.
    fn next(&mut self, id: u64, n: usize) -> usize {
        let round = if is_one_off(id) {
            &mut self.one_offs
        } else {
            &mut self.round
        };
        if round.is_empty() {
            *round = (0..n).collect();
            for k in (1..n).rev() {
                round.swap(k, self.pick.next_below(k as u64 + 1) as usize);
            }
        }
        round.pop().expect("a non-empty round")
    }
}

/// The request stream: the main window's `n_main` requests, drawn from the
/// workload seed, then `rungs` ladder rungs of `RUNG_N`, drawn from
/// `LADDER_SEED`. Every `FRESH_EVERY`-th request is a one-off, which
/// misses every cache but costs about what a hot scenario of its shape
/// costs cold. So every run serves the same mix of cheap hits and costly
/// cold passes, and the latency percentiles do not follow the seed: with
/// `mixed_stream`'s own independent picks, and with one-offs drawn whole by
/// `Scenario::from_seed`, a run's mix varied with the seed, and its
/// percentiles with it. Every rung repeats the first rung's order of
/// scenarios, with fresh one-offs, so rungs differ in their rate alone. The
/// ladder is the same for every workload seed: with one drawn from the
/// workload seed, the rate where it crossed the limit repeated within 4% on
/// one seed but ranged from 213 to 278 req/s over five seeds. Ids are the
/// positions in the stream.
fn stream(hot: &[Scenario], seed: u64, n_main: usize, rungs: usize) -> Vec<Request> {
    let (mut main, mut ladder) = (Picker::new(seed), Picker::new(LADDER_SEED));
    let mut order: Vec<usize> = Vec::new();
    for i in 0..n_main + rungs * RUNG_N {
        let k = match i {
            i if i < n_main => main.next(i as u64, hot.len()),
            i if i < n_main + RUNG_N => ladder.next(i as u64, hot.len()),
            i => order[i - RUNG_N],
        };
        order.push(k);
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let mut scn = hot[k].clone();
            if is_one_off(i as u64) {
                let from = if i < n_main { &mut main } else { &mut ladder };
                scn.seed = from.fresh.next_u64();
            }
            Request {
                id: i as u64,
                scn,
                deadline_s: None,
            }
        })
        .collect()
}

/// One response line as read, with the instant it was read.
struct Line {
    at: Instant,
    text: String,
}

/// Every response line read from a server.
#[derive(Default)]
struct Responses {
    /// By request id.
    got: HashMap<u64, Line>,
    /// Lines that carried no request id (error lines).
    stray: Vec<String>,
}

impl Responses {
    fn add(&mut self, line: Line) {
        let id = parse_response(&line.text)
            .ok()
            .and_then(|(f, _)| f.num::<u64>("id").ok().flatten());
        match id {
            Some(id) => {
                self.got.insert(id, line);
            }
            None => self.stray.push(line.text),
        }
    }
}

/// `struct pollfd` and `struct timespec` of the C library on 64-bit Linux,
/// for `ppoll(2)`: the client's one thread waits on every open connection
/// at once and wakes at the next send time to the nanosecond.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 1;

/// A request's connection, waiting for its response.
struct InFlight {
    stream: UnixStream,
    buf: Vec<u8>,
}

/// Waits until one of `conns` has input or `timeout` passes.
fn wait_readable(conns: &[InFlight], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records and `ts`
    // is a live timespec, both outliving the call; ppoll writes only the
    // records' `revents`. A null signal mask leaves the mask unchanged. An
    // interrupted or failed wait returns early, and the caller's loop
    // simply waits again.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Reads what `c` has ready; complete lines go to `out`, stamped `at`.
/// Returns whether the connection is still open.
fn drain(c: &mut InFlight, at: Instant, out: &mut Responses) -> bool {
    let mut chunk = [0u8; 4096];
    let open = loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => break false,
            Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    while let Some(nl) = c.buf.iter().position(|&b| b == b'\n') {
        let rest = c.buf.split_off(nl + 1);
        let text = String::from_utf8_lossy(&c.buf).into_owned();
        out.add(Line { at, text });
        c.buf = rest;
    }
    open
}

/// A running server.
struct ServerProc {
    child: Child,
    sock: String,
    /// Connections the server still expects.
    pending: usize,
    responses: Responses,
    /// Peak resident set of the server while the last phase was sent, MB.
    peak_rss_mb: f64,
}

fn server_bin() -> std::path::PathBuf {
    std::env::current_exe()
        .expect("own executable path")
        .with_file_name("optipart-serve")
}

impl ServerProc {
    /// Starts a server that accepts `connections` connections and exits
    /// when the last one drains.
    fn start(sock: &str, connections: usize) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(sock);
        let child = Command::new(server_bin())
            .args(["serve", "--socket", sock, "--accept"])
            .arg(connections.to_string())
            .arg("--workers")
            .arg(crate::nproc().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server_bin().display()))?;
        Ok(ServerProc {
            child,
            sock: sock.to_string(),
            pending: connections,
            responses: Responses::default(),
            peak_rss_mb: 0.0,
        })
    }

    fn connect(&mut self) -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(s) => {
                    self.pending = self.pending.saturating_sub(1);
                    return Ok(s);
                }
                Err(e) => {
                    if Instant::now() > deadline || matches!(self.child.try_wait(), Ok(Some(_))) {
                        return Err(format!("connect {}: {e}", self.sock));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// Sends one request: a connection of its own carrying the line, its
    /// sending side closed at once so the server answers as soon as the
    /// request is done.
    fn send(&mut self, line: &str) -> Result<InFlight, String> {
        let mut stream = self.connect()?;
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.shutdown(std::net::Shutdown::Write))
            .and_then(|_| stream.set_nonblocking(true))
            .map_err(|e| format!("send on {}: {e}", self.sock))?;
        Ok(InFlight {
            stream,
            buf: Vec::new(),
        })
    }

    /// One open-loop phase: sends `lines` evenly spaced at `rate` per
    /// second (all at once when `None`), then reads responses until every
    /// connection is closed or `PHASE_TIMEOUT` passes. Returns each sent
    /// request's due and actual send instants; a failed send ends the phase.
    fn phase(
        &mut self,
        lines: &[String],
        rate: Option<f64>,
    ) -> Result<(Vec<Instant>, Vec<Instant>), String> {
        let pid = self.child.id().to_string();
        crate::reset_peak_rss(&pid);
        let t0 = Instant::now() + Duration::from_millis(1);
        let due_at = |i: usize| match rate {
            Some(r) => t0 + Duration::from_secs_f64(i as f64 / r),
            None => t0,
        };
        let mut due = Vec::with_capacity(lines.len());
        let mut sent = Vec::with_capacity(lines.len());
        let mut open: Vec<InFlight> = Vec::new();
        let mut deadline = None;
        loop {
            while sent.len() < lines.len() && deadline.is_none() {
                let i = sent.len();
                if due_at(i) > Instant::now() {
                    break;
                }
                match self.send(&lines[i]) {
                    Ok(c) => {
                        due.push(due_at(i));
                        sent.push(Instant::now());
                        open.push(c);
                    }
                    Err(e) if i == 0 => return Err(e),
                    Err(_) => deadline = Some(Instant::now() + PHASE_TIMEOUT),
                }
            }
            if sent.len() == lines.len() && deadline.is_none() {
                self.peak_rss_mb = crate::peak_rss_mb(&pid);
                deadline = Some(Instant::now() + PHASE_TIMEOUT);
            }
            let now = Instant::now();
            let wake = match deadline {
                Some(d) if open.is_empty() || now >= d => break,
                Some(d) => d,
                None => due_at(sent.len()),
            };
            wait_readable(&open, wake.saturating_duration_since(now));
            let at = Instant::now();
            open.retain_mut(|c| drain(c, at, &mut self.responses));
        }
        Ok((due, sent))
    }

    /// Closes the connections the server still expects, waits for it to
    /// drain and exit (killing it if it does not), and returns every
    /// response read plus the server's stderr, which holds its
    /// `ServerStats` summary.
    fn finish(mut self) -> (Responses, String) {
        while self.pending > 0 {
            match self.connect() {
                Ok(c) => drop(c),
                Err(_) => break,
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(self.child.try_wait(), Ok(Some(_))) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut err = String::new();
        if let Some(mut e) = self.child.stderr.take() {
            let _ = e.read_to_string(&mut err);
        }
        (std::mem::take(&mut self.responses), err)
    }
}

/// A server left running when the client gives up early, a failed check
/// included, is stopped too.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Parses one response line. The server writes a non-finite float (λ of a
/// partition with an empty rank) as Rust's `inf`, which is not JSON; such
/// a line is read with `inf` taken as the float it names and flagged, so
/// the report counts these lines while the payload is still verified.
fn parse_response(text: &str) -> Result<(Fields, bool), String> {
    let text = text.trim();
    match Fields::parse(text) {
        Ok(f) => Ok((f, false)),
        Err(e) if text.contains(":inf") || text.contains(":-inf") => {
            let fixed = text.replace(":inf", ":1e999").replace(":-inf", ":-1e999");
            Fields::parse(&fixed).map(|f| (f, true)).map_err(|_| e)
        }
        Err(e) => Err(e),
    }
}

fn wire(reqs: &[Request]) -> Vec<String> {
    reqs.iter().map(|r| format!("{}\n", r.to_json())).collect()
}

/// Parses a served response's payload fields.
fn payload_of(f: &Fields) -> Option<Payload> {
    let num = |k: &str| f.num::<u64>(k).ok().flatten();
    let flt = |k: &str| f.num::<f64>(k).ok().flatten();
    let sig = u64::from_str_radix(f.str("sig").ok()??.trim_start_matches("0x"), 16).ok()?;
    Some(Payload {
        sig,
        elements: num("elements")?,
        final_p: num("final_p")? as u32,
        deaths: num("deaths")? as u32,
        lambda: flt("lambda")?,
        achieved_tolerance: flt("tol_achieved")?,
        rounds: num("rounds")?,
        splitter_level: num("splitter_level")? as u8,
        cmax: num("cmax")?,
        wmax: num("wmax")?,
        predicted_tp: flt("predicted_tp")?,
    })
}

/// Bitwise payload equality (floats by bits).
fn same(a: &Payload, b: &Payload) -> bool {
    a.sig == b.sig
        && a.elements == b.elements
        && a.final_p == b.final_p
        && a.deaths == b.deaths
        && a.lambda.to_bits() == b.lambda.to_bits()
        && a.achieved_tolerance.to_bits() == b.achieved_tolerance.to_bits()
        && a.rounds == b.rounds
        && a.splitter_level == b.splitter_level
        && a.cmax == b.cmax
        && a.wmax == b.wmax
        && a.predicted_tp.to_bits() == b.predicted_tp.to_bits()
}

/// One served response, checked.
struct Served {
    id: u64,
    faulted: bool,
    non_json: bool,
    at: Instant,
    /// Due to read, ms.
    lat_ms: f64,
    wall_us: f64,
    worker: usize,
    warm: String,
    batched: u64,
}

/// Why a response does not count as served.
enum Bad {
    /// Shed or rejected by the server's backpressure.
    Refused(String),
    /// Missing, malformed, failed, or a payload that differs from the library.
    Wrong(String),
}

/// Checks the response to `req` against the direct library call.
fn check(req: &Request, line: Option<&Line>, cache: &mut DirectCache) -> Result<Served, Bad> {
    let line = line.ok_or_else(|| Bad::Wrong(format!("request {}: no response", req.id)))?;
    let (f, non_json) = parse_response(&line.text).map_err(|e| {
        Bad::Wrong(format!(
            "request {}: bad response line ({e}): {}",
            req.id,
            line.text.trim()
        ))
    })?;
    let status = f.str("status").ok().flatten().unwrap_or("?").to_string();
    if status != Status::Ok.name() {
        let msg = format!("request {}: status {status}", req.id);
        return Err(
            if status == Status::Shed.name() || status == Status::Rejected.name() {
                Bad::Refused(msg)
            } else {
                Bad::Wrong(msg)
            },
        );
    }
    let got = payload_of(&f)
        .ok_or_else(|| Bad::Wrong(format!("request {}: payload fields missing", req.id)))?;
    if !same(&got, &cache.payload(&req.scn)) {
        return Err(Bad::Wrong(format!(
            "request {}: payload differs from the library ({})",
            req.id,
            req.scn.replay_cmd()
        )));
    }
    Ok(Served {
        id: req.id,
        faulted: req.scn.faults.is_some(),
        non_json,
        at: line.at,
        lat_ms: f64::INFINITY,
        wall_us: f.num::<f64>("wall_us").ok().flatten().unwrap_or(0.0),
        worker: f.num::<usize>("worker").ok().flatten().unwrap_or(0),
        warm: f.str("warm").ok().flatten().unwrap_or("").to_string(),
        batched: f.num::<u64>("batched").ok().flatten().unwrap_or(0),
    })
}

/// One open-loop phase: its requests and when each was due and sent.
struct Phase {
    reqs: Vec<Request>,
    due: Vec<Instant>,
    sent: Vec<Instant>,
}

/// A phase's responses, judged.
struct Judged {
    /// Latency per request, ms from due to read; infinite when not served.
    lat: Vec<f64>,
    served: Vec<Served>,
    /// Ladder requests the server shed or rejected.
    refused: usize,
}

/// Judges a phase. Every wrong output is a failed op. A refusal is a
/// failed op too, except on a ladder rung, where refusals are how a rate
/// past capacity shows: they fail the rung, not the run.
fn judge(p: &Phase, s: &Responses, cache: &mut DirectCache, o: &mut Outcome, rung: bool) -> Judged {
    let mut j = Judged {
        lat: Vec::with_capacity(p.reqs.len()),
        served: Vec::new(),
        refused: 0,
    };
    for (i, r) in p.reqs.iter().enumerate() {
        o.attempted += 1;
        let Some(due) = p.due.get(i) else {
            o.fail(format!("request {}: never sent", r.id));
            j.lat.push(f64::INFINITY);
            continue;
        };
        match check(r, s.got.get(&r.id), cache) {
            Ok(mut sv) => {
                sv.lat_ms = (sv.at - *due).as_secs_f64() * 1e3;
                j.lat.push(sv.lat_ms);
                j.served.push(sv);
            }
            Err(Bad::Refused(_)) if rung => {
                j.refused += 1;
                j.lat.push(f64::INFINITY);
            }
            Err(Bad::Refused(e) | Bad::Wrong(e)) => {
                o.fail(e);
                j.lat.push(f64::INFINITY);
            }
        }
    }
    j
}

/// Number after `key` in the server's shutdown summary.
fn stat_after(summary: &str, key: &str) -> Option<f64> {
    let rest = &summary[summary.find(key)? + key.len()..];
    rest.split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .find(|t| !t.is_empty())?
        .parse()
        .ok()
}

/// Prints, per class of request, how the server served it: hot scenarios
/// split by whether they carry a fault plan (the server runs those cold on
/// a fresh engine), and the one-offs.
fn warm_paths(o: &mut Outcome, served: &[Served]) {
    type Class = (&'static str, fn(&Served) -> bool);
    let classes: [Class; 3] = [
        ("hot, fault-free", |v| !is_one_off(v.id) && !v.faulted),
        ("hot, faulted", |v| !is_one_off(v.id) && v.faulted),
        ("one-off", |v| is_one_off(v.id)),
    ];
    let mut row = String::from("warm paths in the main window:");
    for (name, of) in classes {
        let vs: Vec<&Served> = served.iter().filter(|v| of(v)).collect();
        let share = |w: WarmPath| {
            vs.iter().filter(|v| v.warm == w.name()).count() as f64 / vs.len().max(1) as f64
        };
        row.push_str(&format!(
            " {name} {} requests ({:.2} hit, {:.2} replay, {:.2} cold);",
            vs.len(),
            share(WarmPath::Hit),
            share(WarmPath::Replay),
            share(WarmPath::Cold)
        ));
    }
    let warm = served
        .iter()
        .filter(|v| v.warm != WarmPath::Cold.name())
        .count();
    row.push_str(&format!(
        " all {:.2} warm",
        warm as f64 / served.len().max(1) as f64
    ));
    o.line(row);
}

/// A ladder rung as judged: its offered rate and the latency it is ranked
/// by.
struct Rung {
    offered: f64,
    ms: f64,
}

/// `serve_max_rps` from the ladder: the rate at which the rung latency
/// crosses `LIMIT_MS`, interpolated in log latency between the last passing
/// rung and the first failing one. If the first rung already failed, its
/// rate scaled by limit / latency, floored at a quarter of it.
fn max_rps(last_pass: Option<&Rung>, fail: &Rung) -> f64 {
    match last_pass {
        Some(p) if fail.ms.is_finite() && fail.ms > p.ms => {
            let f = (LIMIT_MS.ln() - p.ms.max(1e-3).ln()) / (fail.ms.ln() - p.ms.max(1e-3).ln());
            p.offered + (fail.offered - p.offered) * f.clamp(0.0, 1.0)
        }
        Some(p) => p.offered,
        None => fail.offered * (LIMIT_MS / fail.ms).clamp(0.25, 1.0),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let n_main = MAIN_REQUESTS;
    let hot_scns = hot_set();
    let all = stream(&hot_scns, args.seed, n_main, MAX_RUNGS);
    // The warm-up pass: each hot scenario once, ids past the stream's.
    let hot: Vec<Request> = hot_scns
        .into_iter()
        .enumerate()
        .map(|(k, scn)| Request {
            id: (all.len() + k) as u64,
            scn,
            deadline_s: None,
        })
        .collect();
    let hot_wire = wire(&hot);
    let sock = format!("{}/serve-{}.sock", crate::OUT_DIR, std::process::id());
    if let Err(e) = std::fs::create_dir_all(crate::OUT_DIR) {
        o.fail(format!("create {}: {e}", crate::OUT_DIR));
        return o;
    }

    // Set-up: server start plus one warm-up pass over the hot set. Only
    // the last server is kept; it then serves the main window and the
    // ladder, one connection per request.
    let mut setup = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let last = k + 1 == SETUPS;
        let connections = hot.len() + if last { all.len() } else { 0 };
        let t0 = Instant::now();
        let warmed = ServerProc::start(&sock, connections)
            .and_then(|mut s| s.phase(&hot_wire, None).map(|_| s));
        let s = match warmed {
            Ok(s) => s,
            Err(e) => {
                o.fail(e);
                return o;
            }
        };
        setup.push(t0.elapsed().as_secs_f64());
        if last {
            server = Some(s);
        } else {
            s.finish();
        }
    }
    let mut s = server.expect("a server is running");

    // Verification against the direct library call, phase by phase.
    let mut cache = DirectCache::new();
    let warm_fail = hot
        .iter()
        .filter(|r| check(r, s.responses.got.get(&r.id), &mut cache).is_err())
        .count();
    if warm_fail > 0 {
        o.fail(format!("{warm_fail} warm-up responses failed verification"));
    }

    let start = Instant::now();
    let main_ticks0 = crate::cpu_ticks();
    let main = all[..n_main].to_vec();
    let (due, sent) = match s.phase(&wire(&main), Some(RATE)) {
        Ok(ds) => ds,
        Err(e) => {
            o.fail(e);
            s.finish();
            return o;
        }
    };
    let main = Phase {
        reqs: main,
        due,
        sent,
    };
    let main_stolen = crate::stolen_share(main_ticks0, crate::cpu_ticks());
    let peak = s.peak_rss_mb;
    let Judged { lat, served, .. } = judge(&main, &s.responses, &mut cache, &mut o, false);
    // Latencies net of hypervisor steal over the main window, as the other
    // workloads' op times are (see `Stopwatch`).
    let raw_p50 = median(&lat);
    let lat: Vec<f64> = lat.iter().map(|l| l * (1.0 - main_stolen)).collect();
    let mut non_json = served.iter().filter(|v| v.non_json).count();
    let wall: Vec<f64> = served.iter().map(|v| v.wall_us).collect();
    let mean_wall_us = wall.iter().sum::<f64>() / wall.len().max(1) as f64;

    // The ladder: rising offered rates until a rung's median misses the
    // limit, a request is refused or the backlog grows. It starts below the
    // capacity the main window suggests, so it climbs through the knee
    // whatever the host's speed. The rate where the median crosses the
    // limit is then scaled up by the unstolen share of the CPU time over the
    // ladder: the capacity of the host net of hypervisor steal.
    let suggested = crate::nproc() as f64 * 1e6 / mean_wall_us.max(1.0);
    let ticks0 = crate::cpu_ticks();
    let mut last_pass: Option<Rung> = None;
    let mut raw_max_rps = None;
    for k in 0..MAX_RUNGS {
        let rate = suggested * LADDER_START * LADDER_STEP.powi(k as i32);
        let at = n_main + k * RUNG_N;
        let reqs = all[at..at + RUNG_N].to_vec();
        let (due, sent) = match s.phase(&wire(&reqs), Some(rate)) {
            Ok(ds) => ds,
            Err(e) => {
                o.fail(e);
                break;
            }
        };
        let ph = Phase { reqs, due, sent };
        let j = judge(&ph, &s.responses, &mut cache, &mut o, true);
        non_json += j.served.iter().filter(|v| v.non_json).count();
        let l = &j.lat;
        let span = (*ph.sent.last().expect("sent") - ph.sent[0]).as_secs_f64();
        let offered = (ph.sent.len() - 1) as f64 / span;
        let (t, pct, n) = tail(l);
        // A growing backlog shows as a slow last third: the rung is judged
        // by the larger of its median and its last third's median.
        let p50 = median(l);
        let late_p50 = median(&l[l.len() - l.len() / 3..]);
        let growing = late_p50 > p50.max(LIMIT_MS);
        let rung = Rung {
            offered,
            ms: p50.max(late_p50),
        };
        let pass = rung.ms <= LIMIT_MS && j.refused == 0;
        o.line(format!(
            "ladder rung {}: offered {offered:.1} req/s, p50 {p50:.2} ms, tail {t:.2} ms (p{pct:.0} of {n}), \
             {} refused, backlog {}",
            k + 1,
            j.refused,
            if growing { "growing" } else { "steady" }
        ));
        if !pass {
            raw_max_rps = Some(max_rps(last_pass.as_ref(), &rung));
            break;
        }
        last_pass = Some(rung);
    }
    let stolen = crate::stolen_share(ticks0, crate::cpu_ticks());
    let window_s = start.elapsed().as_secs_f64();
    let (resp, summary) = s.finish();
    for line in &resp.stray {
        o.fail(format!("error line from the server: {}", line.trim()));
    }
    let late: Vec<f64> = main
        .due
        .iter()
        .zip(&main.sent)
        .map(|(d, a)| (*a - *d).as_secs_f64() * 1e3)
        .collect();
    let late_p99 = percentile(&late, 0.99);
    if late_p99 > LATE_LIMIT_MS {
        o.invalid = Some(format!(
            "the open-loop sender ran {late_p99:.1} ms late at p99 (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    let raw_max_rps = raw_max_rps.unwrap_or_else(|| {
        o.invalid = Some(format!(
            "every one of the {MAX_RUNGS} ladder rungs met the limit: capacity is above the top rung"
        ));
        last_pass.map_or(0.0, |r| r.offered)
    });
    let max_rps = raw_max_rps / (1.0 - stolen).max(0.5);

    let (tail_ms, pct, n) = tail(&lat);
    o.set("setup_s", median(&setup));
    o.set("op_p50_ms", median(&lat));
    o.set("op_tail_ms", tail_ms);
    o.set("work_per_s", max_rps);
    o.set("peak_rss_mb", peak);
    o.line(format!(
        "serve_stream: {} requests at {RATE} req/s offered, then a ladder from {:.1} req/s; window {window_s:.2} s; \
         {} workers, hot set {}, one-off every {FRESH_EVERY}th, one connection per request",
        main.reqs.len(),
        suggested * LADDER_START,
        crate::nproc(),
        hot.len()
    ));
    o.line(format!(
        "host steal during the main window: {:.1}% of busy CPU time; serve p50 before taking steal out: {raw_p50:.3} ms",
        100.0 * main_stolen
    ));
    o.line(format!("serve_p50_ms = {:.3} ms", median(&lat)));
    o.line(format!(
        "serve_tail_ms = {tail_ms:.3} ms (p{pct:.0} of {n} samples)"
    ));
    o.line(format!(
        "serve_max_rps = {max_rps:.1} req/s (ladder median under {LIMIT_MS} ms, nothing refused, steady backlog; \
         net of {:.1}% host steal, {raw_max_rps:.1} req/s before)",
        100.0 * stolen
    ));
    o.line(format!(
        "setup_s = {:.6} s (median of {SETUPS} server starts + warm-up passes)",
        median(&setup)
    ));
    o.line(format!(
        "peak_rss_mb = {peak:.1} MB (server process, during the main window)"
    ));
    o.line(format!("bench.generator_late_p99_ms = {late_p99:.3} ms"));
    o.line(format!(
        "server wall time (enqueue to done): p50 {:.0} us, mean {mean_wall_us:.0} us, tail {:.0} us",
        median(&wall),
        tail(&wall).0
    ));
    warm_paths(&mut o, &served);
    o.line(format!(
        "checks: {} responses verified against {} direct library calls; \
         {non_json} carried a non-JSON `inf` (lambda of a partition with an empty rank)",
        o.attempted,
        cache.len()
    ));
    if let Some(line) = summary.lines().find(|l| l.starts_with("served")) {
        o.line(format!("server: {line}"));
    }

    if args.trace {
        let wire_us: Vec<f64> = served.iter().map(|v| v.lat_ms * 1e3 - v.wall_us).collect();
        let mut per_worker: BTreeMap<usize, f64> = BTreeMap::new();
        for v in &served {
            *per_worker.entry(v.worker).or_default() += 1.0;
        }
        let mean = served.len() as f64 / crate::nproc() as f64;
        let maxw = per_worker.values().copied().fold(0.0, f64::max);
        let count = |w: &str| served.iter().filter(|v| v.warm == w).count() as f64;
        o.set("serve.server_wall_p50_us", median(&wall));
        o.set("serve.wire_p50_us", median(&wire_us));
        o.set(
            "serve.warm_request_rate",
            stat_after(&summary, "warm-request rate").unwrap_or(0.0),
        );
        o.set(
            "serve.batched_frac",
            served.iter().filter(|v| v.batched > 1).count() as f64 / served.len().max(1) as f64,
        );
        o.set(
            "serve.shard_imbalance",
            if mean > 0.0 { maxw / mean } else { 0.0 },
        );
        o.set("core.warm_hits", count(WarmPath::Hit.name()));
        o.set("core.warm_replays", count(WarmPath::Replay.name()));
        o.set("core.warm_colds", count(WarmPath::Cold.name()));
        o.set("bench.generator_late_p99_ms", late_p99);
        standalone(&main.reqs, &mut cache, &mut o, args);
    }
    o
}

/// Per-layer samples of the standalone request path.
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    build: Vec<f64>,
    hit: Vec<f64>,
    cold: Vec<f64>,
    write: Vec<f64>,
    bytes: Vec<f64>,
    msgs: Vec<f64>,
    collectives: Vec<f64>,
    syncs: Vec<f64>,
    alloc_count: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

/// Times each layer of the request path in this process (traced run
/// only), on the first main-window requests: parse, tree build, a cold
/// engine pass on a fresh engine and state, a second pass on the same
/// (now warm) engine and state, and the response write. The sample runs
/// once untraced and once traced, for the overhead figure.
fn standalone(reqs: &[Request], cache: &mut DirectCache, o: &mut Outcome, args: &Args) {
    let sample = &reqs[..reqs.len().min(STANDALONE)];
    let lines: Vec<String> = sample.iter().map(Request::to_json).collect();
    let mut sp = Spans::new(false);
    let mut l = Layers::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for pass in 0..2 {
        sp.set_on(pass == 1);
        for (r, line) in sample.iter().zip(&lines) {
            o.attempted += 1;
            let a0 = alloc::snapshot();
            let t0 = Instant::now();
            let op = sp.open("op.serve_stream");
            let t = Instant::now();
            let parsed = sp.run("serve.parse", || Request::from_json(line));
            let parse_us = us(t);
            let req = match parsed {
                Ok(q) => q,
                Err(e) => {
                    sp.close(op);
                    o.fail(format!("request {}: does not parse back: {e}", r.id));
                    continue;
                }
            };
            let t = Instant::now();
            let leaves = sp.run("scenario.build_tree", || req.scn.build_tree().len());
            let build_us = us(t);
            std::hint::black_box(leaves);
            let (mut e, mut st) = sp.run("scenario.engine", || {
                (req.scn.engine_faulted(), PartitionState::new())
            });
            let t = Instant::now();
            let (cold, vs) = sp.run("serve.engine_pass_cold", || {
                run_request(&mut e, &mut st, &req.scn)
            });
            let cold_us = us(t);
            let stats = (
                e.stats().bytes_total,
                e.stats().msgs_total,
                e.stats().collectives,
                e.sync_points(),
            );
            let hits = st.stats.hits;
            let t = Instant::now();
            let (again, _) = sp.run("serve.engine_pass_hit", || {
                run_request(&mut e, &mut st, &req.scn)
            });
            let hit_us = us(t);
            let was_hit = st.stats.hits > hits;
            let resp = Response {
                id: req.id,
                status: Status::Ok,
                payload: Some(again.clone()),
                replay: None,
                worker: 0,
                warm: if was_hit {
                    WarmPath::Hit
                } else {
                    WarmPath::Cold
                },
                batched: 1,
                virtual_s: vs,
                wall_us: 0,
                retry_after_s: None,
                error: None,
            };
            let t = Instant::now();
            let text = sp.run("serve.write", || resp.to_json());
            let write_us = us(t);
            sp.close(op);
            let op_s = t0.elapsed().as_secs_f64();
            let (allocs, abytes) = alloc::since(a0);
            std::hint::black_box(text);
            if !same(&cold, &again) || !same(&cold, &cache.payload(&r.scn)) {
                o.fail(format!(
                    "request {}: standalone passes differ from the library",
                    r.id
                ));
            }
            if pass == 0 {
                plain.push(op_s);
                continue;
            }
            traced.push(op_s);
            l.parse.push(parse_us);
            l.build.push(build_us);
            l.cold.push(cold_us);
            if was_hit {
                l.hit.push(hit_us);
            }
            l.write.push(write_us);
            l.bytes.push(stats.0 as f64);
            l.msgs.push(stats.1 as f64);
            l.collectives.push(stats.2 as f64);
            l.syncs.push(stats.3 as f64);
            l.alloc_count.push(allocs as f64);
            l.alloc_bytes.push(abytes as f64);
        }
    }
    // The largest scenario of the sample, cold, at 1 thread and at nproc.
    let big = sample
        .iter()
        .max_by_key(|r| r.scn.n)
        .expect("a non-empty sample");
    let time_at = |threads: usize| {
        with_threads(threads, || {
            let runs: Vec<f64> = (0..5)
                .map(|_| {
                    let mut e = big.scn.engine_faulted();
                    let mut st = PartitionState::new();
                    let t = Instant::now();
                    run_request(&mut e, &mut st, &big.scn);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        })
    };
    let speedup = time_at(1) / time_at(crate::nproc());

    o.set("serve.parse_us", median(&l.parse));
    o.set("scenario.build_tree_us", median(&l.build));
    o.set("serve.engine_pass_hit_us", median(&l.hit));
    o.set("serve.engine_pass_cold_us", median(&l.cold));
    o.set("serve.write_us", median(&l.write));
    o.set("mpisim.bytes", median(&l.bytes));
    o.set("mpisim.msgs", median(&l.msgs));
    o.set("mpisim.collectives", median(&l.collectives));
    o.set("mpisim.sync_points", median(&l.syncs));
    o.set("mpisim.par_speedup", speedup);
    o.set("alloc.count", median(&l.alloc_count));
    o.set("alloc.bytes", median(&l.alloc_bytes));
    o.set(
        "bench.trace_overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    o.line(format!(
        "standalone request path ({} requests): parse {:.1} us, build_tree {:.1} us, \
         cold pass {:.1} us, hit pass {:.1} us ({} hits), write {:.1} us",
        sample.len(),
        median(&l.parse),
        median(&l.build),
        median(&l.cold),
        median(&l.hit),
        l.hit.len(),
        median(&l.write)
    ));
    o.ledger(&sp, "op.serve_stream", &traced);
    crate::write_trace(&sp, args, o);
}
