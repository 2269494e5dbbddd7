//! Parallel experiment executor.
//!
//! Every figure of the paper's evaluation is a sweep of *independent,
//! deterministic* simulation cells (scheme × workload × size × buffer
//! count). The figure modules decompose their sweeps into a flat list of
//! tagged [`Cell`] jobs; [`sweep`] runs them on a scoped worker pool and
//! reassembles the results **in cell-index order**, so the emitted tables
//! and CSVs are byte-identical to a sequential run regardless of the
//! worker count or scheduling jitter.
//!
//! The pool size comes from, in priority order: [`set_jobs`] (the
//! `reproduce --jobs N` flag), the `FUSEDPACK_JOBS` environment variable,
//! and finally `std::thread::available_parallelism`. `jobs == 1` runs the
//! cells inline on the calling thread — the reference behaviour the
//! determinism CI job diffs against.
//!
//! Each cell's wall-clock time is recorded in a process-global timings
//! registry (drained by `reproduce --timings`) and, when a telemetry
//! recorder is attached via [`set_telemetry`], emitted as a
//! `Payload::SweepCell` span on the worker's lane.

use fusedpack_sim::Time;
use fusedpack_telemetry::{Lane, Payload, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One unit of sweep work: a label (for timing reports) and a closure
/// producing this cell's measurement.
pub struct Cell<T> {
    label: String,
    job: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Cell<T> {
    pub fn new(label: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        Cell {
            label: label.into(),
            job: Box::new(job),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Wall-clock timing of one executed cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Experiment name passed to [`sweep`].
    pub experiment: String,
    /// The cell's label.
    pub label: String,
    /// Position in the cell list.
    pub index: usize,
    /// Worker thread that ran the cell (0 when sequential).
    pub worker: usize,
    /// Wall-clock execution time of the cell closure.
    pub wall: Duration,
}

/// 0 = unset (fall back to env / available cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);
static TIMINGS: Mutex<Vec<CellTiming>> = Mutex::new(Vec::new());
static TELEMETRY: Mutex<Option<Telemetry>> = Mutex::new(None);

/// Lock `m`, recovering the data if a panicking holder poisoned it: every
/// guarded value here stays consistent across a panic (a timing list, a
/// recorder handle, an unclaimed cell), so one failed sweep must not wedge
/// the next.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serializes the tests that change process-wide sweep settings (worker,
/// shard or serve-request counts) or drain the timing registry: the test
/// harness runs tests on parallel threads, and without this one test can
/// observe another's settings halfway through a comparison.
#[cfg(test)]
pub(crate) fn settings_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

/// Fix the worker-pool size (0 restores the default resolution order).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The worker-pool size [`sweep`] will use.
pub fn jobs() -> usize {
    let n = JOBS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Ok(v) = std::env::var("FUSEDPACK_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Attach a telemetry recorder: every subsequent cell emits a
/// `SweepCell` span (rank = worker index, wall-clock nanoseconds since
/// the first attached recorder's epoch).
pub fn set_telemetry(t: Telemetry) {
    *lock(&TELEMETRY) = Some(t);
}

/// Drain and return all cell timings recorded since the last call.
pub fn take_timings() -> Vec<CellTiming> {
    std::mem::take(&mut *lock(&TIMINGS))
}

/// A completed cell awaiting reassembly: (index, value, label, worker,
/// start instant, wall time).
type Finished<T> = (usize, T, String, usize, Instant, Duration);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn record_cell(
    experiment: &str,
    label: String,
    index: usize,
    worker: usize,
    t0: Instant,
    wall: Duration,
) {
    if let Some(t) = lock(&TELEMETRY).as_ref() {
        let start = t0.duration_since(epoch()).as_nanos() as u64;
        t.for_rank(worker as u32).span(
            Lane::Host,
            Time(start),
            Time(start + wall.as_nanos() as u64),
            || Payload::SweepCell {
                index: index as u64,
                worker: worker as u32,
            },
        );
    }
    lock(&TIMINGS).push(CellTiming {
        experiment: experiment.to_string(),
        label,
        index,
        worker,
        wall,
    });
}

/// Run `cells` and return their results in cell-index order.
///
/// With `jobs() == 1` (or a single cell) the cells run inline,
/// sequentially, on the calling thread. Otherwise a thread scope spawns
/// `min(jobs, cells)` workers that claim cells from a shared atomic
/// cursor; each worker returns the cells it finished, and the results are
/// reassembled by index afterwards, so the output is identical either
/// way. A panicking cell fails the whole sweep at either worker count.
pub fn sweep<T: Send + 'static>(experiment: &str, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    let workers = jobs().min(n);
    let _ = epoch(); // pin the telemetry epoch before any cell runs

    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (index, cell) in cells.into_iter().enumerate() {
            let t0 = Instant::now();
            let value = (cell.job)();
            let wall = t0.elapsed();
            record_cell(experiment, cell.label, index, 0, t0, wall);
            out.push(value);
        }
        return out;
    }

    // Each slot holds one unclaimed cell; workers claim the next index
    // from the cursor, so no two workers ever touch the same slot.
    let slots: Vec<Mutex<Option<Cell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);

    let mut finished: Vec<Finished<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (slots, cursor) = (&slots, &cursor);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            return done;
                        }
                        let cell = lock(&slots[index]).take().expect("cell claimed once");
                        let t0 = Instant::now();
                        let value = (cell.job)();
                        done.push((index, value, cell.label, worker, t0, t0.elapsed()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    finished.sort_by_key(|&(index, ..)| index);
    debug_assert_eq!(finished.len(), n);
    // Record timings in cell-index order so the --timings report is as
    // deterministic in shape as the tables themselves.
    let mut out = Vec::with_capacity(n);
    for (index, value, label, worker, t0, wall) in finished {
        record_cell(experiment, label, index, worker, t0, wall);
        out.push(value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: usize) -> Vec<Cell<usize>> {
        (0..n)
            .map(|i| Cell::new(format!("cell{i}"), move || i * i))
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let _settings = settings_lock();
        let want: Vec<usize> = (0..40).map(|i| i * i).collect();
        set_jobs(1);
        assert_eq!(sweep("t", cells(40)), want);
        set_jobs(4);
        assert_eq!(sweep("t", cells(40)), want, "parallel must preserve order");
        set_jobs(0);
        let _ = take_timings();
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let _settings = settings_lock();
        set_jobs(16);
        assert_eq!(sweep("t", cells(3)), vec![0, 1, 4]);
        assert!(sweep::<usize>("t", Vec::new()).is_empty());
        set_jobs(0);
        let _ = take_timings();
    }

    #[test]
    fn timings_are_recorded_in_index_order() {
        let _settings = settings_lock();
        set_jobs(4);
        let _ = take_timings();
        let _ = sweep("timed", cells(8));
        let timings: Vec<CellTiming> = take_timings()
            .into_iter()
            .filter(|t| t.experiment == "timed")
            .collect();
        assert_eq!(timings.len(), 8);
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.label, format!("cell{i}"));
        }
        set_jobs(0);
    }

    #[test]
    fn telemetry_span_per_cell() {
        let _settings = settings_lock();
        let tele = Telemetry::with_capacity(64);
        set_telemetry(tele.clone());
        set_jobs(2);
        let _ = sweep("spans", cells(5));
        set_jobs(0);
        let _ = take_timings();
        let snap = tele.snapshot();
        let spans: Vec<_> = snap
            .events
            .iter()
            .filter(|e| matches!(e.payload, Payload::SweepCell { .. }))
            .collect();
        assert!(spans.len() >= 5, "one span per cell, got {}", spans.len());
        assert!(spans.iter().all(|e| e.is_span()));
    }

    /// Restores the default worker count and drains the timing registry
    /// when dropped, so a test that panics on purpose leaves no settings
    /// behind.
    struct ResetSettings;

    impl Drop for ResetSettings {
        fn drop(&mut self) {
            set_jobs(0);
            let _ = take_timings();
        }
    }

    /// Sweep eight cells at `jobs` workers, the sixth of which panics.
    fn sweep_with_panicking_cell(jobs: usize) {
        let _settings = settings_lock();
        let _reset = ResetSettings;
        set_jobs(jobs);
        let mut cells = cells(8);
        cells[5] = Cell::new("boom", || panic!("cell failed"));
        let _ = sweep("panics", cells);
    }

    #[test]
    #[should_panic(expected = "cell failed")]
    fn panicking_cell_fails_a_sequential_sweep() {
        sweep_with_panicking_cell(1);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn panicking_cell_fails_a_parallel_sweep() {
        sweep_with_panicking_cell(4);
    }
}
