//! Checkpoint/restart for the distributed solver (DESIGN.md §14).
//!
//! At every level boundary the solver can snapshot each rank's complete
//! state — labels, `Σ_tot`, the In-Table, the dendrogram prefix, and
//! the recorded protocol-log prefix — into an
//! in-memory [`CheckpointStore`]. When a scheduled fault kills a rank
//! (see `louvain_runtime::fault`), the driver rewinds every rank to the
//! last checkpoint and re-executes; because every per-rank quantity is
//! persisted as exact bit patterns and every downstream consumer folds
//! its inputs in sorted order, the recovered run is **bit-identical** to
//! a fault-free run — same modularity, same dendrogram, same protocol
//! log.
//!
//! Serialization uses the repo's hand-rolled std-only JSON
//! ([`crate::json`]): floats travel as `f64::to_bits` integers so
//! NaN/∞/−0.0 and every finite value round-trip exactly. A checkpoint
//! that fails validation is rejected with a named [`CheckpointError`] —
//! never silently resumed.

use crate::json::Json;
use crate::result::LevelInfo;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp of the checkpoint JSON layout. A mismatch is a
/// [`CheckpointError::Schema`] — a checkpoint from another build is
/// refused, not reinterpreted. v2 added the partition record
/// (`part_kind`/`part_owners`) and the level-0 vertex domain
/// (`orig_vertices`) for the pluggable-partition work (DESIGN.md §15).
/// v3 dropped `internal_bits` (Σ_in is now folded from the row store,
/// never stored) and the frontier counters and occupancy (the scan
/// count follows from the restored levels).
pub const CHECKPOINT_SCHEMA: u64 = 3;

/// Why a checkpoint was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document is not valid JSON.
    Malformed(String),
    /// The document's `schema` stamp is not [`CHECKPOINT_SCHEMA`].
    Schema {
        /// The stamp found in the document.
        found: u64,
    },
    /// A required field is absent or has the wrong JSON type.
    Missing(&'static str),
    /// Fields are individually well-formed but mutually inconsistent
    /// (e.g. per-vertex arrays of different lengths).
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema { found } => write!(
                f,
                "checkpoint schema v{found} does not match this build's v{CHECKPOINT_SCHEMA}"
            ),
            CheckpointError::Missing(field) => {
                write!(f, "checkpoint field {field:?} is missing or mistyped")
            }
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One level's summary with floats as exact bit patterns (the
/// serializable image of [`LevelInfo`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSnapshot {
    /// Vertices at this level.
    pub num_vertices: u64,
    /// Communities found at this level.
    pub num_communities: u64,
    /// `modularity.to_bits()`.
    pub modularity_bits: u64,
    /// Inner iterations executed.
    pub inner_iterations: u64,
    /// `move_fractions`, element-wise `to_bits()`.
    pub move_fraction_bits: Vec<u64>,
    /// `q_trace`, element-wise `to_bits()`.
    pub q_trace_bits: Vec<u64>,
}

impl LevelSnapshot {
    /// Captures a [`LevelInfo`] as exact bits.
    #[must_use]
    pub fn of(info: &LevelInfo) -> Self {
        Self {
            num_vertices: info.num_vertices as u64,
            num_communities: info.num_communities as u64,
            modularity_bits: info.modularity.to_bits(),
            inner_iterations: info.inner_iterations as u64,
            move_fraction_bits: info.move_fractions.iter().map(|x| x.to_bits()).collect(),
            q_trace_bits: info.q_trace.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// Reconstructs the [`LevelInfo`] bit-for-bit.
    #[must_use]
    pub fn restore(&self) -> LevelInfo {
        LevelInfo {
            num_vertices: self.num_vertices as usize,
            num_communities: self.num_communities as usize,
            modularity: f64::from_bits(self.modularity_bits),
            inner_iterations: self.inner_iterations as usize,
            move_fractions: self
                .move_fraction_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
            q_trace: self
                .q_trace_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
        }
    }
}

/// One rank's complete solver state at a level boundary.
///
/// Everything the level loop of `rank_main` carries across iterations is
/// here, with floats as bit patterns. The In-Table is persisted as its
/// `(key, weight)` multiset sorted by key — slot layout and capacity are
/// *not* state, because every consumer of the table folds its contents
/// in sorted order (the determinism contract of `crate::parallel`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The rank this snapshot belongs to.
    pub rank: usize,
    /// World size the snapshot was taken under.
    pub ranks: usize,
    /// The level index execution resumes at.
    pub next_level: usize,
    /// `to_bits()` of the global weight sum `s = 2m`.
    pub s_bits: u64,
    /// This rank's share of the input edge count.
    pub input_edges: u64,
    /// `to_bits()` of the previous level's modularity (outer-loop stop).
    pub q_prev_level_bits: u64,
    /// Remote-cache invalidations so far (trace/result counter).
    pub cache_invalidations: u64,
    /// Global vertices at the resumed level.
    pub n: u64,
    /// Sorted In-Table keys.
    pub in_keys: Vec<u64>,
    /// `to_bits()` of the weight for each entry of `in_keys`.
    pub in_w_bits: Vec<u64>,
    /// `to_bits()` of the weighted degree per local vertex.
    pub k_bits: Vec<u64>,
    /// Community (global id) per local vertex.
    pub label: Vec<u32>,
    /// `to_bits()` of `Σ_tot` per owned community.
    pub tot_bits: Vec<u64>,
    /// Member count per owned community.
    pub size: Vec<u32>,
    /// Current community of each originally-local vertex.
    pub orig_comm: Vec<u32>,
    /// The originally-local vertices themselves (level-0 ids) — the
    /// domain `orig_comm` is indexed by. Under the modulo partition this
    /// is derivable from `(rank, ranks, n)`; under a balanced partition
    /// it is genuine state and must travel with the snapshot.
    pub orig_vertices: Vec<u32>,
    /// Partition strategy tag of the resumed level (`"modulo"` or
    /// `"arc_balanced"`), restored without communication.
    pub part_kind: String,
    /// Dense owner vector of the resumed level's partition — one rank id
    /// per global vertex. Empty for `"modulo"`, whose ownership is pure
    /// arithmetic.
    pub part_owners: Vec<u32>,
    /// Completed level summaries (the dendrogram prefix's metadata).
    pub levels: Vec<LevelSnapshot>,
    /// Per-completed-level labels of originally-local vertices (the
    /// dendrogram prefix itself).
    pub level_orig_comms: Vec<Vec<u32>>,
    /// Names of the collectives recorded so far (empty unless protocol
    /// recording is on); seeded back so the recovered log splices.
    pub protocol_log: Vec<String>,
}

fn ck_field<'a>(obj: &'a Json, key: &'static str) -> Result<&'a Json, CheckpointError> {
    obj.get(key).ok_or(CheckpointError::Missing(key))
}

fn ck_u64(obj: &Json, key: &'static str) -> Result<u64, CheckpointError> {
    ck_field(obj, key)?
        .as_u64()
        .ok_or(CheckpointError::Missing(key))
}

fn ck_u64s(obj: &Json, key: &'static str) -> Result<Vec<u64>, CheckpointError> {
    ck_field(obj, key)?
        .as_arr()
        .ok_or(CheckpointError::Missing(key))?
        .iter()
        .map(|v| v.as_u64().ok_or(CheckpointError::Missing(key)))
        .collect()
}

fn ck_u32s(obj: &Json, key: &'static str) -> Result<Vec<u32>, CheckpointError> {
    ck_u64s(obj, key)?
        .into_iter()
        .map(|u| u32::try_from(u).map_err(|_| CheckpointError::Corrupt(key)))
        .collect()
}

fn ck_str(obj: &Json, key: &'static str) -> Result<String, CheckpointError> {
    ck_field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(CheckpointError::Missing(key))
}

fn ck_strs(obj: &Json, key: &'static str) -> Result<Vec<String>, CheckpointError> {
    ck_field(obj, key)?
        .as_arr()
        .ok_or(CheckpointError::Missing(key))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or(CheckpointError::Missing(key))
        })
        .collect()
}

fn uints(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&u| Json::UInt(u)).collect())
}

fn uints32(xs: &[u32]) -> Json {
    Json::Arr(xs.iter().map(|&u| Json::UInt(u64::from(u))).collect())
}

impl Checkpoint {
    /// Serializes the checkpoint. `parse(to_json(c).render()) == c`
    /// bit-for-bit (floats are carried as bit patterns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(CHECKPOINT_SCHEMA)),
            ("rank".into(), Json::UInt(self.rank as u64)),
            ("ranks".into(), Json::UInt(self.ranks as u64)),
            ("next_level".into(), Json::UInt(self.next_level as u64)),
            ("s_bits".into(), Json::UInt(self.s_bits)),
            ("input_edges".into(), Json::UInt(self.input_edges)),
            (
                "q_prev_level_bits".into(),
                Json::UInt(self.q_prev_level_bits),
            ),
            (
                "cache_invalidations".into(),
                Json::UInt(self.cache_invalidations),
            ),
            ("n".into(), Json::UInt(self.n)),
            ("in_keys".into(), uints(&self.in_keys)),
            ("in_w_bits".into(), uints(&self.in_w_bits)),
            ("k_bits".into(), uints(&self.k_bits)),
            ("label".into(), uints32(&self.label)),
            ("tot_bits".into(), uints(&self.tot_bits)),
            ("size".into(), uints32(&self.size)),
            ("orig_comm".into(), uints32(&self.orig_comm)),
            ("orig_vertices".into(), uints32(&self.orig_vertices)),
            ("part_kind".into(), Json::Str(self.part_kind.clone())),
            ("part_owners".into(), uints32(&self.part_owners)),
            (
                "levels".into(),
                Json::Arr(
                    self.levels
                        .iter()
                        .map(|l| {
                            Json::Obj(vec![
                                ("num_vertices".into(), Json::UInt(l.num_vertices)),
                                ("num_communities".into(), Json::UInt(l.num_communities)),
                                ("modularity_bits".into(), Json::UInt(l.modularity_bits)),
                                ("inner_iterations".into(), Json::UInt(l.inner_iterations)),
                                ("move_fraction_bits".into(), uints(&l.move_fraction_bits)),
                                ("q_trace_bits".into(), uints(&l.q_trace_bits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "level_orig_comms".into(),
                Json::Arr(self.level_orig_comms.iter().map(|c| uints32(c)).collect()),
            ),
            (
                "protocol_log".into(),
                Json::Arr(
                    self.protocol_log
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Every defect is a named [`CheckpointError`]: bad JSON
    /// ([`CheckpointError::Malformed`] via [`Self::parse`]), a foreign
    /// schema stamp, a missing or mistyped field, or mutually
    /// inconsistent array lengths. A failed restore must abort loudly —
    /// silently resuming from damaged state would break the bit-identity
    /// contract this subsystem exists to keep.
    pub fn from_json(doc: &Json) -> Result<Self, CheckpointError> {
        let schema = ck_u64(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema { found: schema });
        }
        let levels_json = ck_field(doc, "levels")?
            .as_arr()
            .ok_or(CheckpointError::Missing("levels"))?;
        let mut levels = Vec::with_capacity(levels_json.len());
        for l in levels_json {
            levels.push(LevelSnapshot {
                num_vertices: ck_u64(l, "num_vertices")?,
                num_communities: ck_u64(l, "num_communities")?,
                modularity_bits: ck_u64(l, "modularity_bits")?,
                inner_iterations: ck_u64(l, "inner_iterations")?,
                move_fraction_bits: ck_u64s(l, "move_fraction_bits")?,
                q_trace_bits: ck_u64s(l, "q_trace_bits")?,
            });
        }
        let level_orig_comms = ck_field(doc, "level_orig_comms")?
            .as_arr()
            .ok_or(CheckpointError::Missing("level_orig_comms"))?
            .iter()
            .map(|c| {
                c.as_arr()
                    .ok_or(CheckpointError::Missing("level_orig_comms"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|u| u32::try_from(u).ok())
                            .ok_or(CheckpointError::Corrupt("level_orig_comms"))
                    })
                    .collect()
            })
            .collect::<Result<Vec<Vec<u32>>, _>>()?;
        let cp = Self {
            rank: ck_u64(doc, "rank")? as usize,
            ranks: ck_u64(doc, "ranks")? as usize,
            next_level: ck_u64(doc, "next_level")? as usize,
            s_bits: ck_u64(doc, "s_bits")?,
            input_edges: ck_u64(doc, "input_edges")?,
            q_prev_level_bits: ck_u64(doc, "q_prev_level_bits")?,
            cache_invalidations: ck_u64(doc, "cache_invalidations")?,
            n: ck_u64(doc, "n")?,
            in_keys: ck_u64s(doc, "in_keys")?,
            in_w_bits: ck_u64s(doc, "in_w_bits")?,
            k_bits: ck_u64s(doc, "k_bits")?,
            label: ck_u32s(doc, "label")?,
            tot_bits: ck_u64s(doc, "tot_bits")?,
            size: ck_u32s(doc, "size")?,
            orig_comm: ck_u32s(doc, "orig_comm")?,
            orig_vertices: ck_u32s(doc, "orig_vertices")?,
            part_kind: ck_str(doc, "part_kind")?,
            part_owners: ck_u32s(doc, "part_owners")?,
            levels,
            level_orig_comms,
            protocol_log: ck_strs(doc, "protocol_log")?,
        };
        cp.validate()?;
        Ok(cp)
    }

    /// Parses and validates a rendered checkpoint.
    ///
    /// # Errors
    ///
    /// See [`Self::from_json`]; invalid JSON text is
    /// [`CheckpointError::Malformed`].
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = Json::parse(text).map_err(CheckpointError::Malformed)?;
        Self::from_json(&doc)
    }

    fn validate(&self) -> Result<(), CheckpointError> {
        if self.rank >= self.ranks {
            return Err(CheckpointError::Corrupt("rank out of range"));
        }
        if self.in_keys.len() != self.in_w_bits.len() {
            return Err(CheckpointError::Corrupt("in_keys/in_w_bits length skew"));
        }
        if self.in_keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Corrupt("in_keys not strictly sorted"));
        }
        let local_n = self.k_bits.len();
        if [self.label.len(), self.tot_bits.len(), self.size.len()]
            .iter()
            .any(|&l| l != local_n)
        {
            return Err(CheckpointError::Corrupt("per-vertex array length skew"));
        }
        if self.orig_vertices.len() != self.orig_comm.len() {
            return Err(CheckpointError::Corrupt(
                "orig_vertices/orig_comm length skew",
            ));
        }
        match self.part_kind.as_str() {
            "modulo" => {
                if !self.part_owners.is_empty() {
                    return Err(CheckpointError::Corrupt(
                        "modulo partition carries an owner vector",
                    ));
                }
            }
            "arc_balanced" => {
                if self.part_owners.len() as u64 != self.n {
                    return Err(CheckpointError::Corrupt(
                        "balanced partition owner vector length skew",
                    ));
                }
            }
            _ => return Err(CheckpointError::Corrupt("unknown partition kind")),
        }
        if self.levels.len() != self.level_orig_comms.len() {
            return Err(CheckpointError::Corrupt(
                "levels/level_orig_comms length skew",
            ));
        }
        if self.next_level != self.levels.len() {
            return Err(CheckpointError::Corrupt(
                "next_level disagrees with completed levels",
            ));
        }
        Ok(())
    }
}

/// Shared in-memory checkpoint storage: one slot per rank holding the
/// latest *rendered* checkpoint, plus cumulative counters.
///
/// Slots hold JSON text, not structs, so every restore exercises the
/// full serialize→parse→validate path — the same path an on-disk
/// checkpoint would take. Writes happen only inside the post-barrier
/// window of a level boundary (no collective between the barrier and
/// the write), so a scheduled crash — which can only fire at a
/// `sim_sync` — can never leave the store half-updated: either every
/// rank wrote level `L`'s snapshot, or none did.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: Vec<Mutex<Option<String>>>,
    bytes: AtomicU64,
    taken: AtomicU64,
}

impl CheckpointStore {
    /// An empty store for `ranks` ranks.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        Self {
            slots: (0..ranks).map(|_| Mutex::new(None)).collect(),
            bytes: AtomicU64::new(0),
            taken: AtomicU64::new(0),
        }
    }

    /// Renders and stores `cp` into its rank's slot, replacing any
    /// previous snapshot. Returns the rendered size in bytes.
    pub fn save_slot(&self, cp: &Checkpoint) -> u64 {
        let rendered = cp.to_json().render();
        let len = rendered.len() as u64;
        // lint: allow(R3) — monotone local statistic, never read by the protocol
        self.bytes.fetch_add(len, Ordering::Relaxed);
        // lint: allow(R3) — monotone local statistic, never read by the protocol
        self.taken.fetch_add(1, Ordering::Relaxed);
        *lock_slot(&self.slots[cp.rank]) = Some(rendered);
        len
    }

    /// Parses and returns `rank`'s latest snapshot, or `None` if that
    /// rank never checkpointed.
    ///
    /// # Panics
    ///
    /// Panics with the named [`CheckpointError`] if the stored text no
    /// longer validates — restore never silently continues from damage.
    #[must_use]
    pub fn read_slot(&self, rank: usize) -> Option<Checkpoint> {
        let guard = lock_slot(&self.slots[rank]);
        let text = guard.as_ref()?;
        match Checkpoint::parse(text) {
            Ok(cp) => Some(cp),
            Err(e) => panic!("refusing to restore rank {rank}: {e}"),
        }
    }

    /// Total bytes of all checkpoints rendered so far (cumulative, not
    /// just the live slots).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        // lint: allow(R3) — read after all rank threads joined; no live peers
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of per-rank checkpoints taken so far.
    #[must_use]
    pub fn total_taken(&self) -> u64 {
        // lint: allow(R3) — read after all rank threads joined; no live peers
        self.taken.load(Ordering::Relaxed)
    }
}

fn lock_slot<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A rank can only die at a sim_sync, never while holding a slot, so
    // poisoning is unreachable; recover the guard rather than unwrap.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A replayable chaos scenario: everything needed to re-run one CI
/// failure locally (`louvain-bench --fault-plan <file>`). Uploaded as an
/// artifact by the chaos CI job when a recovered run mismatches.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCase {
    /// World size.
    pub ranks: usize,
    /// Schedule-perturbation seed (`None` = unperturbed).
    pub perturb_seed: Option<u64>,
    /// Checkpoint cadence in levels (0 = off).
    pub checkpoint_every_level: usize,
    /// The exact fault plan that produced the failure.
    pub fault_plan: louvain_runtime::FaultPlan,
}

impl ChaosCase {
    /// Serializes the case (crash clocks travel as bit patterns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(CHECKPOINT_SCHEMA)),
            ("ranks".into(), Json::UInt(self.ranks as u64)),
            (
                "perturb_seed".into(),
                match self.perturb_seed {
                    Some(s) => Json::UInt(s),
                    None => Json::Bool(false),
                },
            ),
            (
                "checkpoint_every_level".into(),
                Json::UInt(self.checkpoint_every_level as u64),
            ),
            ("fault_seed".into(), Json::UInt(self.fault_plan.seed)),
            (
                "drop_one_in".into(),
                Json::UInt(self.fault_plan.drop_one_in),
            ),
            (
                "duplicate_one_in".into(),
                Json::UInt(self.fault_plan.duplicate_one_in),
            ),
            (
                "delay_one_in".into(),
                Json::UInt(self.fault_plan.delay_one_in),
            ),
            (
                "crashes".into(),
                Json::Arr(
                    self.fault_plan
                        .crashes
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("rank".into(), Json::UInt(c.rank as u64)),
                                ("at_clock_bits".into(), Json::UInt(c.at_clock.to_bits())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a case.
    ///
    /// # Errors
    ///
    /// The same named-error contract as [`Checkpoint::from_json`].
    pub fn from_json(doc: &Json) -> Result<Self, CheckpointError> {
        let schema = ck_u64(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema { found: schema });
        }
        let perturb_seed = match ck_field(doc, "perturb_seed")? {
            Json::Bool(false) => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or(CheckpointError::Missing("perturb_seed"))?,
            ),
        };
        let crashes = ck_field(doc, "crashes")?
            .as_arr()
            .ok_or(CheckpointError::Missing("crashes"))?
            .iter()
            .map(|c| {
                Ok(louvain_runtime::CrashPoint {
                    rank: ck_u64(c, "rank")? as usize,
                    at_clock: f64::from_bits(ck_u64(c, "at_clock_bits")?),
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        Ok(Self {
            ranks: ck_u64(doc, "ranks")? as usize,
            perturb_seed,
            checkpoint_every_level: ck_u64(doc, "checkpoint_every_level")? as usize,
            fault_plan: louvain_runtime::FaultPlan {
                seed: ck_u64(doc, "fault_seed")?,
                drop_one_in: ck_u64(doc, "drop_one_in")?,
                duplicate_one_in: ck_u64(doc, "duplicate_one_in")?,
                delay_one_in: ck_u64(doc, "delay_one_in")?,
                crashes,
            },
        })
    }

    /// Parses a rendered case.
    ///
    /// # Errors
    ///
    /// See [`Self::from_json`].
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = Json::parse(text).map_err(CheckpointError::Malformed)?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            rank: 1,
            ranks: 4,
            next_level: 2,
            s_bits: 123.75f64.to_bits(),
            input_edges: 99,
            q_prev_level_bits: 0.4375f64.to_bits(),
            cache_invalidations: 1,
            n: 10,
            in_keys: vec![3, 7, 11],
            in_w_bits: vec![
                1.0f64.to_bits(),
                f64::NAN.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ],
            k_bits: vec![2.5f64.to_bits(), (-0.0f64).to_bits()],
            label: vec![5, 9],
            tot_bits: vec![1e8f64.to_bits(), 0.1f64.to_bits()],
            size: vec![3, 1],
            orig_comm: vec![1, 5, 9],
            orig_vertices: vec![1, 5, 9],
            part_kind: "modulo".into(),
            part_owners: vec![],
            levels: vec![
                LevelSnapshot {
                    num_vertices: 10,
                    num_communities: 4,
                    modularity_bits: 0.5f64.to_bits(),
                    inner_iterations: 3,
                    move_fraction_bits: vec![0.9f64.to_bits(), 0.1f64.to_bits()],
                    q_trace_bits: vec![0.3f64.to_bits()],
                },
                LevelSnapshot {
                    num_vertices: 4,
                    num_communities: 2,
                    modularity_bits: 0.6f64.to_bits(),
                    inner_iterations: 1,
                    move_fraction_bits: vec![],
                    q_trace_bits: vec![],
                },
            ],
            level_orig_comms: vec![vec![0, 1, 2], vec![0, 0, 1]],
            protocol_log: vec!["Barrier".into(), "SimSync".into()],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let cp = sample_checkpoint();
        let back = Checkpoint::parse(&cp.to_json().render()).expect("restore");
        assert_eq!(back, cp); // Eq on bit patterns — NaN/∞/−0.0 included
    }

    #[test]
    fn level_snapshot_restores_float_values() {
        let info = LevelInfo {
            num_vertices: 8,
            num_communities: 3,
            modularity: 0.123_456_789,
            inner_iterations: 2,
            move_fractions: vec![1.0, 0.0],
            q_trace: vec![0.1, 0.123_456_789],
        };
        assert_eq!(LevelSnapshot::of(&info).restore(), info);
    }

    #[test]
    fn corrupted_checkpoints_are_rejected_with_named_errors() {
        assert!(matches!(
            Checkpoint::parse("{not json"),
            Err(CheckpointError::Malformed(_))
        ));

        let mut doc = sample_checkpoint().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::UInt(CHECKPOINT_SCHEMA + 1);
        }
        assert_eq!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Schema {
                found: CHECKPOINT_SCHEMA + 1
            })
        );

        let mut doc = sample_checkpoint().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "label");
        }
        assert_eq!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Missing("label"))
        );

        // Truncate one per-vertex array: lengths skew.
        let mut cp = sample_checkpoint();
        cp.size.pop();
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt("per-vertex array length skew"))
        );

        // Unsorted In-Table keys.
        let mut cp = sample_checkpoint();
        cp.in_keys.swap(0, 2);
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt("in_keys not strictly sorted"))
        );

        // A balanced partition must carry one owner per global vertex.
        let mut cp = sample_checkpoint();
        cp.part_kind = "arc_balanced".into();
        cp.part_owners = vec![0, 1];
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt(
                "balanced partition owner vector length skew"
            ))
        );

        // A partition kind this build doesn't know is refused, not
        // defaulted.
        let mut cp = sample_checkpoint();
        cp.part_kind = "hash".into();
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt("unknown partition kind"))
        );
    }

    #[test]
    fn balanced_partition_checkpoint_round_trips() {
        let mut cp = sample_checkpoint();
        cp.part_kind = "arc_balanced".into();
        cp.part_owners = vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]; // n = 10
        let back = Checkpoint::parse(&cp.to_json().render()).expect("restore");
        assert_eq!(back, cp);
    }

    #[test]
    fn store_keeps_latest_snapshot_and_counts_bytes() {
        let store = CheckpointStore::new(4);
        assert!(store.read_slot(1).is_none());
        let cp = sample_checkpoint();
        let len = store.save_slot(&cp);
        assert_eq!(store.total_bytes(), len);
        assert_eq!(store.total_taken(), 1);
        let mut cp2 = cp.clone();
        cp2.next_level = 3;
        cp2.levels.push(cp2.levels[1].clone());
        cp2.level_orig_comms.push(vec![0, 0, 0]);
        store.save_slot(&cp2);
        assert_eq!(store.read_slot(1), Some(cp2));
        assert_eq!(store.total_taken(), 2);
        assert!(store.read_slot(0).is_none());
    }

    #[test]
    fn chaos_case_round_trips() {
        let case = ChaosCase {
            ranks: 4,
            perturb_seed: Some(13),
            checkpoint_every_level: 1,
            fault_plan: louvain_runtime::FaultPlan {
                seed: 7,
                drop_one_in: 0,
                duplicate_one_in: 0,
                delay_one_in: 0,
                crashes: vec![louvain_runtime::CrashPoint {
                    rank: 2,
                    at_clock: 10_000.5,
                }],
            },
        };
        let back = ChaosCase::parse(&case.to_json().render()).expect("parse");
        assert_eq!(back, case);
        let none_seed = ChaosCase {
            perturb_seed: None,
            ..case
        };
        assert_eq!(
            ChaosCase::parse(&none_seed.to_json().render()).expect("parse"),
            none_seed
        );
    }
}
