//! Host-time spans recorded by the benchmark around its calls into each
//! layer. Spans live in memory and are written once, at the end, as a
//! Chrome trace; a layer's self time is its spans' durations minus the
//! parts their child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures; when recording, also keeps one [`Span`] per call.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Times calls but records nothing: the untraced, timed runs.
    pub fn off() -> Tracer {
        Tracer {
            recording: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            recording: true,
            ..Tracer::off()
        }
    }

    /// Run `f` inside a span called `name` (`layer.call`); returns its
    /// output and its host seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per layer, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.dur_ns().saturating_sub(child) as f64 / 1e9;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, t)) => *t += own,
                None => out.push((s.layer(), own)),
            }
        }
        out
    }

    /// The spans as Chrome Trace Event JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.span("mpi.run", |tr| {
            tr.span("sim.queue", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let times = tr.self_times();
        let mpi = times.iter().find(|(l, _)| *l == "mpi").unwrap().1;
        let sim = times.iter().find(|(l, _)| *l == "sim").unwrap().1;
        assert!(sim >= 0.02, "{sim}");
        assert!(
            mpi < sim,
            "parent self time excludes the child: {mpi} vs {sim}"
        );
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::off();
        let (v, secs) = tr.span("mpi.run", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
