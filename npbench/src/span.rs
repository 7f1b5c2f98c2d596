//! Spans of the traced phase: recorded from the benchmark's own files,
//! around each call into a layer, kept in memory and written out when
//! the run ends.
//!
//! One span per line of `results/npbench/trace-<workload>.jsonl`:
//! `{"id":7,"parent":3,"workload":"…","layer":"npafd.access","pass":0,
//! "burst":12,"start_ns":…,"end_ns":…,"ops":4096}`. `parent` is the id
//! of the enclosing span (`null` for a root); a span's **self time** is
//! its duration minus the durations of the spans that name it as parent.

use std::io::Write;

use crate::clock::Stopwatch;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer name (`crate.function`), or `burst` / `engine.*` for roots.
    pub layer: &'static str,
    /// Replay pass the span belongs to.
    pub pass: u32,
    /// Burst index within the pass.
    pub burst: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Operations (packets, draws, handshakes…) done inside the span.
    pub ops: u64,
}

/// In-memory span store for one workload's traced phase.
#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    epoch: Stopwatch,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            epoch: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.epoch.ns()
    }

    /// Open a span; returns its id. Close it with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, parent: Option<u32>, pass: u32, burst: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            layer,
            pass,
            burst,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        id
    }

    /// Close span `id` now, crediting it `ops` operations. Returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: u32, ops: u64) -> u64 {
        let end_ns = self.now_ns();
        match self.spans.get_mut(id as usize) {
            Some(s) => {
                s.end_ns = end_ns;
                s.ops = ops;
                end_ns - s.start_ns
            }
            None => 0,
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration minus the durations
    /// of the spans that name it as parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| own.get_mut(p as usize)) {
                *slot = slot.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON line per span, into `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"layer\":\"{}\",\"pass\":{},\"burst\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                self.workload, s.layer, s.pass, s.burst, s.start_ns, s.end_ns, s.ops
            )?;
        }
        Ok(())
    }

    /// Write the spans to `results/npbench/trace-<workload>.jsonl` under
    /// the current directory. Returns the path written.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results").join("npbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.jsonl", self.workload));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        self.write_jsonl(&mut file)?;
        file.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_lines_parse() {
        let mut r = Recorder::new("w");
        let root = r.open("burst", None, 0, 3);
        let child = r.open("nphash.crc16", Some(root), 0, 3);
        r.close(child, 4096);
        r.close(root, 4096);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].ops, 4096);
        let child = spans[1].end_ns - spans[1].start_ns;
        let whole = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(r.self_ns(), [whole - child, child]);

        let mut bytes = Vec::new();
        r.write_jsonl(&mut bytes).expect("writing to memory");
        let text = String::from_utf8(bytes).expect("JSON is UTF-8");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = serde_json::parse_value(line).expect("each line is one JSON object");
            assert!(v.get("layer").is_some() && v.get("parent").is_some());
        }
        assert!(text
            .lines()
            .next()
            .is_some_and(|l| l.contains("\"parent\":null")));
    }
}
