//! Host wall-time spans recorded by the benchmark around its own calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! A span's name is `<layer>.<call>`; the layer is the prefix (`sfc`,
//! `octree`, `core`, `mpisim`, `fem`, `scenario`, `serve`). Each workload op
//! is one root span (`op.<workload>`); its self time — wall time no child
//! covers — is the ledger's `other` remainder.

use optipart_trace::json_escape;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layers of the ledger, in print order; `other` is the op's own self time.
pub const LAYERS: [&str; 8] = [
    "sfc", "octree", "core", "mpisim", "fem", "scenario", "serve", "other",
];

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// The in-memory recorder. When off, `open`/`close` record nothing and
/// `run` is a plain call.
pub struct Spans {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// One op's wall time split into layer self times.
pub struct OpLedger {
    pub wall_s: f64,
    /// Self seconds per entry of [`LAYERS`].
    pub self_s: [f64; LAYERS.len()],
    /// Self seconds per layer call (span name).
    pub calls: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Opens a span as a child of the innermost open one. Returns a handle
    /// for [`Spans::close`] (`usize::MAX` when tracing is off).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = Some(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    fn dur(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let end = s.end.expect("span closed before the ledger is read");
        (end - s.start).as_secs_f64()
    }

    /// Ledgers of every root span named `op_name`. Spans close innermost
    /// first, so a span's children lie inside it one after another, and its
    /// self time is its duration less theirs: the self times of an op's
    /// spans add up to the op's wall time by construction.
    pub fn ledgers(&self, op_name: &str) -> Vec<OpLedger> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == op_name {
                let mut led = OpLedger {
                    wall_s: self.dur(i),
                    self_s: [0.0; LAYERS.len()],
                    calls: BTreeMap::new(),
                };
                self.tile(i, &children, &mut led, true);
                out.push(led);
            }
        }
        out
    }

    fn tile(&self, i: usize, children: &[Vec<usize>], led: &mut OpLedger, root: bool) {
        let mut covered = 0.0;
        for &c in &children[i] {
            covered += self.dur(c);
            self.tile(c, children, led, false);
        }
        let name = self.spans[i].name;
        let layer = if root {
            "other"
        } else {
            name.split('.').next().unwrap_or("other")
        };
        let k = LAYERS
            .iter()
            .position(|&l| l == layer)
            .unwrap_or(LAYERS.len() - 1);
        let own = (self.dur(i) - covered).max(0.0);
        led.self_s[k] += own;
        if !root {
            *led.calls.entry(name).or_default() += own;
        }
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].end.is_some())
            .map(|i| self.dur(i))
            .collect()
    }

    /// Chrome `trace_event` JSON of the host spans — the format the engine
    /// exports for virtual time, so both open in the same viewer. Host
    /// spans live on their own process track (pid 1).
    pub fn chrome_json(&self, label: &str) -> String {
        let mut ev = vec![
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"host wall time\"}}"
                .to_string(),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            let ts = (s.start - self.epoch).as_secs_f64() * 1e6;
            let dur = (end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":1,\"tid\":0,\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                json_escape(s.name),
                json_escape(s.name.split('.').next().unwrap_or("")),
                s.op,
            ));
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&ev.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}
