//! In-memory spans recorded by the benchmark around the public calls it
//! makes into each layer.  Nothing here runs inside the program: a span
//! is two `Instant` reads and a `Vec` push on the benchmark's side, and
//! the spans are written out only after the last timed interaction.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if one was open.
    pub parent: Option<usize>,
    /// Interaction the span belongs to (shared by every span of one
    /// gesture-plus-frame).
    pub interaction: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.  `begin`/`end` nest; [`Tracer::time`] wraps a closure.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    interaction: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), interaction: 0 }
    }
}

impl Tracer {
    /// Tag every span begun from now on with `id`.
    pub fn set_interaction(&mut self, id: u64) {
        self.interaction = id;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            interaction: self.interaction,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close in nesting order");
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per interaction, the summed duration (ms) of every span called
    /// `name`; interactions without such a span are absent.
    pub fn per_interaction_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.interaction).or_insert(0.0) += s.ns() as f64 / 1e6;
        }
        out
    }

    /// Write the spans as tab-separated lines:
    /// `index  parent  interaction  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "index\tparent\tinteraction\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.interaction, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_interaction() {
        let mut t = Tracer::default();
        t.set_interaction(1);
        let outer = t.begin("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.time("inner", || ());
        t.end(outer);
        t.set_interaction(2);
        t.time("inner", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let inner = t.per_interaction_ms("inner");
        assert_eq!(inner.len(), 2);
        assert!(inner[&1] <= t.per_interaction_ms("outer")[&1]);
    }
}
