//! In-memory spans for traced runs, and the forwarding `MappingProblem`
//! that records one span per evaluation.
//!
//! A span is `(name, id, parent, start, end)` in nanoseconds since the
//! recorder's epoch. Spans stay in memory and are written once, at exit.
//! Self time is a span's duration minus the part of it its children cover
//! (children may overlap: evaluations run on several pool threads).

use magma_m3e::{BwAllocator, JobProfile, M3e, Mapping, MappingProblem};
use magma_model::{JobSignature, TaskType};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans for the whole run.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 means "no parent").
    pub fn id(&self) -> u64 {
        // Relaxed: the counter publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans.lock().expect("span store poisoned").extend(spans);
    }

    /// Writes every span as CSV (`name,id,parent,start_ns,end_ns`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,id,parent,start_ns,end_ns")?;
        for s in spans.iter() {
            writeln!(w, "{},{},{},{},{}", s.name, s.id, s.parent, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Running totals of a traced search (or several).
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    pub steps: u64,
    pub step_ns: u64,
    pub self_ns: u64,
    pub evals: u64,
    pub eval_ns: u64,
    /// Sum over steps of (first evaluation start .. last evaluation end).
    pub batch_span_ns: u64,
    /// Sum over steps of that span's part covered by no evaluation.
    pub wait_ns: u64,
    /// Steps that evaluated anything (one batch span each).
    pub batches: u64,
    pub decode: (u64, u64),
    pub replay: (u64, u64),
    pub schedule: (u64, u64),
}

fn mean_us((n, ns): (u64, u64)) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

impl SearchStats {
    pub fn step_us(&self) -> f64 {
        mean_us((self.steps, self.step_ns))
    }
    pub fn self_us(&self) -> f64 {
        mean_us((self.steps, self.self_ns))
    }
    pub fn fitness_us(&self) -> f64 {
        mean_us((self.evals, self.eval_ns))
    }
    pub fn wait_us(&self) -> f64 {
        mean_us((self.batches, self.wait_ns))
    }
    pub fn decode_us(&self) -> f64 {
        mean_us(self.decode)
    }
    pub fn replay_us(&self) -> f64 {
        mean_us(self.replay)
    }
    pub fn schedule_us(&self) -> f64 {
        mean_us(self.schedule)
    }
    /// Evaluation busy time over (batch span x workers).
    pub fn efficiency(&self, workers: usize) -> f64 {
        if self.batch_span_ns == 0 {
            return 0.0;
        }
        self.eval_ns as f64 / (self.batch_span_ns as f64 * workers as f64)
    }
    /// Host seconds per evaluated sample, stepping included.
    pub fn step_sec_per_sample(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.step_ns as f64 / self.evals as f64 / 1e9
        }
    }
}

/// How many evaluated mappings per step are kept for the timed
/// decode / replay / schedule calls.
const SAMPLED_PER_STEP: usize = 4;

/// A `MappingProblem` that forwards to an [`M3e`] and records one span per
/// evaluation under the current step. Forwarding is exact, so searches
/// through it are bit-identical to searches on the `M3e` itself.
pub struct Traced<'a> {
    inner: &'a M3e,
    rec: &'a Recorder,
    evals: Mutex<Vec<(u64, u64)>>,
    sampled: Mutex<Vec<Mapping>>,
}

impl<'a> Traced<'a> {
    pub fn new(inner: &'a M3e, rec: &'a Recorder) -> Self {
        Traced { inner, rec, evals: Mutex::new(Vec::new()), sampled: Mutex::new(Vec::new()) }
    }

    /// Runs one step under a `step` span (child of `parent`), folds its
    /// evaluation spans into `stats` and times decode / replay / schedule
    /// on a few of the step's own mappings. Returns what `step` returned.
    pub fn step(
        &self,
        parent: u64,
        stats: &mut SearchStats,
        step: impl FnOnce() -> usize,
    ) -> usize {
        let id = self.rec.id();
        let start = self.rec.now();
        let spent = step();
        let end = self.rec.now();
        self.rec.push(Span { name: "step", id, parent, start_ns: start, end_ns: end });

        let mut evals = std::mem::take(&mut *self.evals.lock().expect("eval spans poisoned"));
        stats.steps += 1;
        stats.step_ns += end - start;
        if !evals.is_empty() {
            let first = evals.iter().map(|e| e.0).min().expect("non-empty");
            let last = evals.iter().map(|e| e.1).max().expect("non-empty");
            let busy: u64 = evals.iter().map(|e| e.1 - e.0).sum();
            let covered = covered_ns(&mut evals, first, last);
            stats.evals += evals.len() as u64;
            stats.eval_ns += busy;
            stats.batches += 1;
            stats.batch_span_ns += last - first;
            stats.wait_ns += (last - first) - covered;
            stats.self_ns += (end - start) - covered_ns(&mut evals, start, end);
            self.rec.extend(evals.iter().map(|&(s, e)| Span {
                name: "eval",
                id: 0,
                parent: id,
                start_ns: s,
                end_ns: e,
            }));
        } else {
            stats.self_ns += end - start;
        }

        let sampled = std::mem::take(&mut *self.sampled.lock().expect("samples poisoned"));
        let evaluator = self.inner.evaluator();
        for m in &sampled {
            let t0 = Instant::now();
            let decoded = std::hint::black_box(m.decode());
            let t1 = Instant::now();
            let sched = BwAllocator::new().allocate_with_memo(
                &decoded,
                evaluator.table(),
                evaluator.system_bw_gbps(),
                evaluator.memo(),
            );
            let t2 = Instant::now();
            std::hint::black_box(sched);
            let full = self.inner.schedule(m);
            let t3 = Instant::now();
            std::hint::black_box(full);
            stats.decode.0 += 1;
            stats.decode.1 += (t1 - t0).as_nanos() as u64;
            stats.replay.0 += 1;
            stats.replay.1 += (t2 - t1).as_nanos() as u64;
            stats.schedule.0 += 1;
            stats.schedule.1 += (t3 - t2).as_nanos() as u64;
        }
        spent
    }
}

impl MappingProblem for Traced<'_> {
    fn num_jobs(&self) -> usize {
        MappingProblem::num_jobs(self.inner)
    }

    fn num_accels(&self) -> usize {
        MappingProblem::num_accels(self.inner)
    }

    fn evaluate(&self, mapping: &Mapping) -> f64 {
        let start = self.rec.now();
        let fitness = MappingProblem::evaluate(self.inner, mapping);
        let end = self.rec.now();
        self.evals.lock().expect("eval spans poisoned").push((start, end));
        let mut sampled = self.sampled.lock().expect("samples poisoned");
        if sampled.len() < SAMPLED_PER_STEP {
            sampled.push(mapping.clone());
        }
        fitness
    }

    fn task_type(&self) -> Option<TaskType> {
        MappingProblem::task_type(self.inner)
    }

    fn profile(&self, job: usize, accel: usize) -> Option<JobProfile> {
        MappingProblem::profile(self.inner, job, accel)
    }

    fn signatures(&self) -> Option<&[JobSignature]> {
        MappingProblem::signatures(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut v = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(covered_ns(&mut v, 0, 100), 25);
        assert_eq!(covered_ns(&mut v, 8, 25), 12);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }
}
