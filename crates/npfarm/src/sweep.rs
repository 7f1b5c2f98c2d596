//! The sweep abstraction: typed cells, a deterministic runner, and the
//! orchestration that decides which cells run, load, or skip.

use crate::cache;
use crate::key::{CellKey, KeyFields};
use crate::pool;
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// A parameter sweep a binary declares: the cell list, the canonical
/// identity of each cell, and the deterministic function that runs one.
///
/// The contract npfarm relies on (and the byte-identity tests enforce):
/// `run_cell` must be a pure function of the fields reported by
/// `cell_fields` — same fields, same result bytes. Anything that can
/// change the result (scenario, scheduler, seed, profile, trace
/// preset, feature flags) must appear in the field list.
pub trait Sweep: Sync {
    /// Typed cell configuration.
    type Cell: Clone + Send + Sync;
    /// Per-cell result; must serialize deterministically and round-trip
    /// (`parse(serialize(r))` reserializes to identical bytes) for the
    /// cache to be transparent.
    type Out: Serialize + Deserialize + Send;

    /// Sweep name; namespaces cache entries and JSONL files.
    fn name(&self) -> &'static str;

    /// The full cell list, in canonical (deterministic) order.
    fn cells(&self) -> Vec<Self::Cell>;

    /// Canonical `key = value` identity of a cell.
    fn cell_fields(&self, cell: &Self::Cell) -> KeyFields;

    /// Run one cell. Must be deterministic in the cell fields.
    fn run_cell(&self, cell: &Self::Cell) -> Self::Out;

    /// Whether results may be cached / loaded. Sweeps that *measure
    /// wall-clock* (timing, benches) must say `false`: their output is
    /// a function of the host, not of the cell fields.
    fn cacheable(&self) -> bool {
        true
    }

    /// Force serial execution (one worker). For measurement sweeps
    /// whose cells would contend for the CPU they are timing.
    fn serial(&self) -> bool {
        false
    }

    /// Optional throughput metric (packets/s) extracted from a result,
    /// recorded in the per-cell JSONL.
    fn throughput(&self, _out: &Self::Out) -> Option<f64> {
        None
    }
}

/// How one cell's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Executed in this process.
    Ran,
    /// Loaded from the content-addressed cache.
    Cached,
    /// Outside this process's shard and not in cache; no result.
    Skipped,
}

impl CellStatus {
    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ran => "ran",
            CellStatus::Cached => "cached",
            CellStatus::Skipped => "skipped",
        }
    }
}

/// One cell's outcome.
#[derive(Debug)]
pub struct CellOutcome<R> {
    /// The cell's canonical key.
    pub key: CellKey,
    /// How the result was obtained.
    pub status: CellStatus,
    /// Wall-clock of the run (0 for cached/skipped cells). Timing is
    /// *reporting only* — it never feeds back into results.
    pub wall_ms: f64,
    /// Optional packets/s metric.
    pub packets_per_sec: Option<f64>,
    /// The result; `None` iff skipped.
    pub result: Option<R>,
}

/// The outcome of a whole sweep, cells in canonical order.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Sweep name.
    pub name: String,
    /// Per-cell outcomes, in `Sweep::cells` order.
    pub cells: Vec<CellOutcome<R>>,
}

impl<R: Serialize> SweepOutcome<R> {
    /// Count of cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// All results, in cell order — `None` if any cell was skipped
    /// (sharded partial run), in which case a notice is printed so the
    /// operator knows why the aggregate tables are absent.
    pub fn into_complete(self) -> Option<Vec<R>> {
        let skipped = self.count(CellStatus::Skipped);
        if skipped > 0 {
            eprintln!(
                "npfarm: {}: partial shard run ({skipped}/{} cells skipped) — \
                 aggregate output suppressed; per-cell results are in the sweep JSONL",
                self.name,
                self.cells.len()
            );
            return None;
        }
        Some(
            self.cells
                .into_iter()
                .map(|c| c.result.expect("non-skipped cell has a result"))
                .collect(),
        )
    }

    /// Canonical bytes of the aggregated results: a JSON array of
    /// `{"cell": <label>, "result": <payload>}` in cell order, with all
    /// timing excluded. Two executions of the same spec — serial or
    /// parallel, cold or warm cache — must produce identical bytes;
    /// the determinism property tests compare exactly this.
    pub fn canonical_bytes(&self) -> String {
        let items: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("cell".to_string(), Value::Str(c.key.label())),
                    ("has_result".to_string(), Value::Bool(c.result.is_some())),
                    (
                        "result".to_string(),
                        c.result
                            .as_ref()
                            .map(|r| r.to_value())
                            .unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Array(items)).unwrap_or_default()
    }
}

/// Sweep orchestrator: worker bound, shard selection, cache and
/// resume policy, JSONL destination. Construct with [`Farm::from_args`]
/// in binaries (parses the shared flag set) or [`Farm::new`] in tests.
#[derive(Debug, Clone)]
pub struct Farm {
    /// Bounded worker count for the work-stealing pool.
    pub jobs: usize,
    /// `--shard k/n`: this process runs cells `i` with `i % n == k-1`.
    pub shard: Option<(usize, usize)>,
    /// `--resume`: load cached results instead of re-running cells.
    pub resume: bool,
    /// `--no-cache`: disable both cache reads and writes.
    pub no_cache: bool,
    /// Cache directory (`--cache-dir`, env `NPFARM_CACHE_DIR`, or the
    /// default installed by the binary harness).
    pub cache_dir: PathBuf,
    /// Where per-sweep JSONL files land; `None` disables JSONL.
    pub jsonl_dir: Option<PathBuf>,
    /// Suppress the per-sweep summary line (tests).
    pub quiet: bool,
}

impl Farm {
    /// A farm with defaults: all cells, no resume, caching on, JSONL
    /// off, machine parallelism.
    pub fn new(cache_dir: PathBuf) -> Farm {
        Farm {
            jobs: pool::default_workers(),
            shard: None,
            resume: false,
            no_cache: false,
            cache_dir,
            jsonl_dir: None,
            quiet: false,
        }
    }

    /// Parse the shared npfarm flag set from `std::env::args`:
    /// `--jobs N`, `--shard k/n`, `--resume`, `--no-cache`,
    /// `--cache-dir <path>` (default: env `NPFARM_CACHE_DIR`, then
    /// `results/npfarm-cache`). Unrecognized flags are ignored so
    /// binaries keep their own argument namespace.
    pub fn from_args() -> Farm {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// [`Farm::from_args`] over an explicit argument list.
    fn from_arg_list(args: impl IntoIterator<Item = String>) -> Farm {
        let args: Vec<String> = args.into_iter().collect();
        let value_of = |key: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == key)
                .and_then(|i| args.get(i + 1))
                .map(|s| s.as_str())
        };
        let cache_dir = value_of("--cache-dir")
            .map(PathBuf::from)
            .or_else(|| std::env::var("NPFARM_CACHE_DIR").ok().map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("results").join("npfarm-cache"));
        let shard = value_of("--shard").and_then(parse_shard);
        if value_of("--shard").is_some() && shard.is_none() {
            eprintln!("npfarm: bad --shard (expected k/n with 1 <= k <= n); running all cells");
        }
        Farm {
            jobs: value_of("--jobs")
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(pool::default_workers),
            shard,
            resume: args.iter().any(|a| a == "--resume"),
            no_cache: args.iter().any(|a| a == "--no-cache"),
            cache_dir,
            jsonl_dir: None,
            quiet: false,
        }
    }

    /// Set the JSONL output directory.
    pub fn with_jsonl_dir(mut self, dir: PathBuf) -> Farm {
        self.jsonl_dir = Some(dir);
        self
    }

    /// Override the worker bound.
    pub fn with_jobs(mut self, jobs: usize) -> Farm {
        self.jobs = jobs.max(1);
        self
    }

    /// Run a sweep: resolve each cell against the shard filter and the
    /// cache, execute the remainder on the pool, persist new results,
    /// and emit the per-cell JSONL.
    pub fn sweep<S: Sweep>(&self, spec: &S) -> SweepOutcome<S::Out> {
        let cells = spec.cells();
        let keys: Vec<CellKey> = cells
            .iter()
            .map(|c| CellKey::new(spec.name(), spec.cell_fields(c).into_vec()))
            .collect();
        let cache_on = spec.cacheable() && !self.no_cache;

        // Phase 1: resolve every cell to loaded / to-run / skipped.
        let mut outcomes: Vec<CellOutcome<S::Out>> = Vec::with_capacity(cells.len());
        let mut to_run: Vec<(usize, S::Cell)> = Vec::new();
        for (i, (cell, key)) in cells.iter().zip(keys.iter()).enumerate() {
            let in_shard = self.shard.map(|(k, n)| i % n == k - 1).unwrap_or(true);
            let cached: Option<S::Out> = if cache_on && self.resume {
                cache::load(&self.cache_dir, key)
            } else {
                None
            };
            let (status, result) = match (cached, in_shard) {
                (Some(r), _) => (CellStatus::Cached, Some(r)),
                (None, true) => {
                    to_run.push((i, cell.clone()));
                    (CellStatus::Ran, None) // result filled in below
                }
                (None, false) => (CellStatus::Skipped, None),
            };
            let packets_per_sec = result.as_ref().and_then(|r| spec.throughput(r));
            outcomes.push(CellOutcome {
                key: key.clone(),
                status,
                wall_ms: 0.0,
                packets_per_sec,
                result,
            });
        }

        // Phase 2: execute the unresolved cells on the pool.
        let workers = if spec.serial() { 1 } else { self.jobs };
        let ran: Vec<(usize, S::Out, f64)> = pool::map_indexed(to_run, workers, |_, (i, cell)| {
            // Recorded in the per-cell JSONL, excluded from result payloads and cache keys.
            #[allow(clippy::disallowed_methods, reason = "cell-timing telemetry only")]
            let start = Instant::now();
            let out = spec.run_cell(&cell);
            (i, out, start.elapsed().as_secs_f64() * 1_000.0)
        });

        // Phase 3: persist and slot the fresh results.
        for (i, out, wall_ms) in ran {
            if cache_on {
                cache::store(&self.cache_dir, &keys[i], &out);
            }
            let slot = outcomes.get_mut(i).expect("outcome slot for ran cell");
            slot.wall_ms = wall_ms;
            slot.packets_per_sec = spec.throughput(&out);
            slot.result = Some(out);
        }

        let outcome = SweepOutcome {
            name: spec.name().to_string(),
            cells: outcomes,
        };
        if let Some(dir) = &self.jsonl_dir {
            write_jsonl(dir, &outcome);
        }
        if !self.quiet {
            eprintln!(
                "npfarm: {}: {} cells — {} ran, {} cached, {} skipped ({} worker{})",
                outcome.name,
                outcome.cells.len(),
                outcome.count(CellStatus::Ran),
                outcome.count(CellStatus::Cached),
                outcome.count(CellStatus::Skipped),
                workers,
                if workers == 1 { "" } else { "s" },
            );
        }
        outcome
    }

    /// Plain bounded-parallel map over arbitrary jobs (order-preserving,
    /// uncached) — for fan-out that is not a cacheable sweep, like
    /// `run_all` launching child binaries.
    pub fn map<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        pool::map_indexed(jobs, self.jobs, |_, t| f(t))
    }
}

fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (k, n) = s.split_once('/')?;
    let k: usize = k.trim().parse().ok()?;
    let n: usize = n.trim().parse().ok()?;
    (n >= 1 && k >= 1 && k <= n).then_some((k, n))
}

/// Write `<dir>/<sweep>.jsonl`: one line per cell, in canonical cell
/// order. Timing fields are informational; everything else is a
/// deterministic function of the spec.
fn write_jsonl<R: Serialize>(dir: &PathBuf, outcome: &SweepOutcome<R>) {
    let mut text = String::new();
    for c in &outcome.cells {
        let line = Value::Object(vec![
            ("sweep".to_string(), Value::Str(outcome.name.clone())),
            ("cell".to_string(), Value::Str(c.key.label())),
            ("key".to_string(), Value::Str(c.key.hash_hex())),
            (
                "status".to_string(),
                Value::Str(c.status.as_str().to_string()),
            ),
            ("wall_ms".to_string(), Value::F64(c.wall_ms)),
            (
                "packets_per_sec".to_string(),
                c.packets_per_sec.map(Value::F64).unwrap_or(Value::Null),
            ),
            (
                "result".to_string(),
                c.result
                    .as_ref()
                    .map(|r| r.to_value())
                    .unwrap_or(Value::Null),
            ),
        ]);
        match serde_json::to_string(&line) {
            Ok(s) => {
                text.push_str(&s);
                text.push('\n');
            }
            Err(e) => eprintln!("npfarm: jsonl serialize failed: {e}"),
        }
    }
    let path = dir.join(format!("{}.jsonl", outcome.name));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("npfarm: jsonl write {} failed: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
