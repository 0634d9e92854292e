//! The tile-task layer of the threaded executor: what one factorization
//! *is* — its `ItemState`, its [`KernelSet`] — and the solo entry
//! points.
//!
//! How tasks are queued, popped, stolen and rescued is the engine's
//! business (the crate-private `engine` module: one worker loop over one
//! `calu_sched::ReadyQueues` value per run). This module owns the part
//! the engine treats as opaque: per-item tile storage behind
//! `SharedTiles`, one atomic dependence counter per task, the
//! tournament-panel slots, the priority keys, and the task bodies. Each
//! worker brings its own [`GemmScratch`] packing arena, sized from the
//! tile dimension and reused across tasks, so the packed BLAS-3 kernels
//! (trailing updates and triangular solves) run without per-task heap
//! allocation.
//!
//! [`calu_factor`] and [`cholesky_factor`] are the solo entry points:
//! a [`factor_batch`] of one job, co-scheduling off.
//!
//! ## The kernel-set layer
//!
//! Everything the engine does — the static/dynamic split, the queues,
//! the steal tiers, the dependence counters — is **algorithm-blind**:
//! it schedules opaque task IDs. What a task *does* is decided by the
//! [`KernelSet`] the item derives from its graph's [`Algorithm`]: the
//! CALU set runs tournament-pivoted panels, `A·U⁻¹` / `L⁻¹·A` solves
//! and GEMM updates, while the tiled-Cholesky set
//! ([`TaskGraph::build_cholesky`]) runs `dpotrf` panels, `A·L⁻ᵀ` solves
//! and SYRK / `A·Bᵀ` GEMM updates over the lower triangle — no pivoting
//! at all. Because the graph carries both the dependency shape and the
//! kernel identity, every caller of the engine picks the right kernels
//! by simply naming the kernel set; [`cholesky_factor`] is
//! [`calu_factor`] with a different one.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use calu_dag::{Algorithm, TaskGraph, TaskId, TaskKind};
use calu_kernels::{gemm, lu_nopiv_unblocked, potrf, syrk, trsm, GemmScratch};
use calu_matrix::{DenseMatrix, Layout, ProcessGrid, RowPerm, TileStorage, TiledMatrix};
use calu_sched::{priority, CpuTopology, OwnerMap, Padded};

use crate::config::CaluConfig;
use crate::engine::factor_batch;
use crate::engine::{BatchItem, Outcome, Source};
use crate::error::CaluError;
use crate::factorization::Factorization;
use crate::pivot::swaps_for_selection;
use crate::shared::{DensifyScratch, SharedTiles, TilePtr};
use crate::sync::{advise_huge_pages, Mutex};
use crate::tslu::Candidate;

/// A panel's tournament: one candidate per slot of the graph's
/// [`calu_dag::TreePlan`], and the pivots its finish picks.
struct PanelState {
    slots: Vec<Mutex<Option<Candidate>>>,
    perm: OnceLock<RowPerm>,
}

/// The algorithm-indexed kernel set: which tile-task bodies an item's
/// tasks run. Everything the scheduler does — queues, priorities, steal
/// tiers, dependence counters — is shared across kernel sets; only the
/// per-task math differs. [`KernelSet::algorithm`] is the one mapping
/// between the two names: every job names its kernel set, the engine
/// builds that algorithm's graph via the crate-internal
/// `KernelSet::build_graph`, the single validated constructor, and an
/// item derives its kernels back from the graph, so the dependency shape
/// and the kernels can never disagree. [`KernelSet::check_shape`] is the
/// one job-shape rule every entry point applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSet {
    /// CALU: tournament-pivoted panel (leaf/combine/finish), `A·U⁻¹`
    /// and `P·L⁻¹·A` triangular solves, `C − A·B` trailing updates.
    CaluLu,
    /// Tiled Cholesky: `dpotrf` panel, `A·L⁻ᵀ` triangular solve,
    /// lower-triangle SYRK (diagonal tiles) / `C − A·Bᵀ` GEMM
    /// (off-diagonal tiles) trailing updates. No pivoting: the item's
    /// permutation is the identity and the tournament-panel machinery
    /// is never built.
    Cholesky,
}

impl KernelSet {
    /// The one job-shape rule: a job is non-empty, and square for
    /// Cholesky. Every entry point applies it — the batch driver,
    /// the graph constructor `build_graph`, the service's admission and
    /// the facade's plan.
    pub fn check_shape(self, (m, n): (usize, usize)) -> Result<(), CaluError> {
        if m == 0 || n == 0 {
            return Err(CaluError::EmptyMatrix);
        }
        if self == KernelSet::Cholesky && m != n {
            return Err(CaluError::InvalidConfig(format!(
                "tiled Cholesky factors a square SPD matrix, got {m}×{n}"
            )));
        }
        Ok(())
    }

    /// The algorithm this kernel set runs: with
    /// [`for_algorithm`](Self::for_algorithm), its inverse, the one
    /// mapping between the two.
    pub fn algorithm(self) -> Algorithm {
        match self {
            KernelSet::CaluLu => Algorithm::Calu,
            KernelSet::Cholesky => Algorithm::Cholesky,
        }
    }

    /// The kernel set that runs `algorithm` on the engine, or `None` for
    /// one only a sequential reference driver runs (GEPP, incremental
    /// pivoting).
    pub fn for_algorithm(algorithm: Algorithm) -> Option<Self> {
        [KernelSet::CaluLu, KernelSet::Cholesky]
            .into_iter()
            .find(|k| k.algorithm() == algorithm)
    }

    /// Build this kernel set's algorithm's task graph for an `m×n`
    /// matrix tiled at `b` that passes [`check_shape`](Self::check_shape).
    /// Cholesky graphs ignore `leaf_stride` — there is no tournament
    /// reduction tree to shape.
    pub(crate) fn build_graph(
        self,
        m: usize,
        n: usize,
        b: usize,
        leaf_stride: usize,
    ) -> Result<TaskGraph, CaluError> {
        self.check_shape((m, n))?;
        Ok(self.algorithm().build_graph(m, n, b, leaf_stride))
    }
}

const NOT_SINGULAR: usize = usize::MAX;

/// Tile buffers at least this large are backed by transparent huge
/// pages, asked for before their FILL tasks first touch them: a run
/// then takes one fault per 2 MiB instead of per 4 KiB.
const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;

/// What one of a run's task ids names. The DAG's tasks come first; the
/// *conversion tasks* are numbered after them: one FILL per fill chunk,
/// then one DENSIFY per tile column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Task {
    /// A task of the DAG, of this kind.
    Dag(TaskKind),
    /// Copy fill chunk `c` of the input into its tiles (`fill_tiles`).
    Fill(usize),
    /// Turn tile column `tj` in place into the dense factors' columns
    /// and apply its deferred left swaps.
    Densify(usize),
}

/// Per-item execution state: everything one factorization's task bodies
/// touch — the input, tiled storage, dependence counters, tournament
/// panels, priority keys — with *no queues attached*. The engine pairs
/// one `ItemState` with one queue set per run: one queue per pool worker
/// for a co-operative run, one for a co-scheduled one. The graph is held
/// by [`Arc`] rather than borrowed because service workers are
/// `'static` threads with no scope to borrow from.
pub(crate) struct ItemState<'a> {
    pub(crate) g: Arc<TaskGraph>,
    tiles: SharedTiles,
    deps: Vec<AtomicU32>,
    owners: OwnerMap,
    /// Leading tile columns scheduled statically (the `dratio` split
    /// resolved against this item's panel count).
    nstatic: usize,
    /// Tasks retired so far, conversion tasks included: the one count
    /// that releases each stage (see [`complete_into`](Self::complete_into)).
    /// Every completion writes it and every task reads the fields around
    /// it, so it keeps to its own cache lines.
    done: Padded<AtomicUsize>,
    singular: AtomicUsize,
    panels: Vec<PanelState>,
    /// The input: read by the FILL tasks, then dropped unless the job
    /// asked for verification (a borrowed one stays borrowed).
    input: RwLock<Option<Cow<'a, DenseMatrix>>>,
    /// Keep the input past the FILLs, for the residual.
    verify: bool,
    /// The combined permutation and singular flag, taken once every DAG
    /// task retired — what the DENSIFY tasks swap by.
    factored: OnceLock<(RowPerm, Option<usize>)>,
    pub(crate) kernels: KernelSet,
    b: usize,
}

impl<'a> ItemState<'a> {
    /// Build the execution state for factoring `input` in zeroed tiles
    /// of the graph's shape, laid out in `layout` on `grid` with blocks
    /// of `group` tiles, the most a pop stacks (allocated here,
    /// huge-page backed when large, first touched by whoever fills
    /// them): `nstatic` is the number of leading tile columns scheduled
    /// statically (the `dratio` split already resolved against this
    /// item's panel count).
    pub(crate) fn new(
        layout: Layout,
        group: usize,
        g: Arc<TaskGraph>,
        grid: ProcessGrid,
        nstatic: usize,
        input: Cow<'a, DenseMatrix>,
    ) -> Self {
        let kernels = KernelSet::for_algorithm(g.algorithm())
            .unwrap_or_else(|| panic!("the engine has no {} kernels", g.algorithm()));
        let mut tiles = TiledMatrix::zeros(layout, g.rows(), g.cols(), g.block(), grid, group);
        if size_of_val(tiles.buffer()) >= HUGE_PAGE_MIN_BYTES {
            advise_huge_pages(tiles.buffer_mut());
        }
        Self {
            tiles: SharedTiles::new(tiles),
            deps: g.ids().map(|t| AtomicU32::new(g.dep_count(t))).collect(),
            owners: OwnerMap::new(&g, grid),
            nstatic,
            done: Padded::default(),
            singular: AtomicUsize::new(NOT_SINGULAR),
            // tournament-panel state exists only for pivoted kernel sets;
            // Cholesky panels are a single in-tile dpotrf with no
            // candidates to merge and no permutation to record
            panels: match kernels {
                KernelSet::Cholesky => Vec::new(),
                KernelSet::CaluLu => (0..g.num_panels())
                    .map(|k| PanelState {
                        slots: (0..g.tree(k).slots).map(|_| Mutex::new(None)).collect(),
                        perm: OnceLock::new(),
                    })
                    .collect(),
            },
            input: RwLock::new(Some(input)),
            verify: false,
            factored: OnceLock::new(),
            kernels,
            b: g.block(),
            g,
        }
    }

    /// Keep the input past the FILLs, for the residual, or not.
    pub(crate) fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// The FILL tasks' count: one per tile column and grid row.
    fn fills(&self) -> usize {
        self.g.tile_cols() * self.owners.grid().pr()
    }

    /// Every task of the run: the DAG's, the FILLs and the DENSIFYs.
    pub(crate) fn tasks(&self) -> usize {
        self.g.len() + self.fills() + self.g.tile_cols()
    }

    /// What task id `t` names.
    pub(crate) fn task(&self, t: TaskId) -> Task {
        match t.idx().checked_sub(self.g.len()) {
            None => Task::Dag(self.g.kind(t)),
            Some(c) if c < self.fills() => Task::Fill(c),
            Some(c) => Task::Densify(c - self.fills()),
        }
    }

    /// The FILL task ids in column order, each with the worker that
    /// owns its tiles.
    pub(crate) fn fill_tasks(&self) -> impl DoubleEndedIterator<Item = (TaskId, usize)> {
        let (grid, first) = (self.owners.grid(), self.g.len());
        (0..self.fills()).map(move |c| {
            let owner = grid.owner(c % grid.pr(), c / grid.pr());
            (TaskId((first + c) as u32), owner)
        })
    }

    /// The DENSIFY task ids, in column order.
    pub(crate) fn densify_tasks(&self) -> Vec<TaskId> {
        (self.g.len() + self.fills()..self.tasks())
            .map(|t| TaskId(t as u32))
            .collect()
    }

    /// The tiles `(ti, tj)` FILL `c` copies: grid row `c % pr`'s tiles
    /// of tile column `c / pr`, so they share one block-cyclic owner.
    pub(crate) fn fill_tiles(&self, c: usize) -> impl Iterator<Item = (usize, usize)> {
        let pr = self.owners.grid().pr();
        (c % pr..self.g.tile_rows())
            .step_by(pr)
            .map(move |ti| (ti, c / pr))
    }

    /// Where `t` is queued when it is static — `(owner, static key)` —
    /// or `None` for a task of the dynamic section. A DAG task is static
    /// when its output tile's column is one of the first `Nstatic`,
    /// keyed P ≻ L ≻ U ≻ S. Conversion tasks are dynamic, so any worker
    /// may take one: a busy or lost owner holds no FILL up.
    pub(crate) fn static_slot(&self, t: TaskId) -> Option<(usize, u64)> {
        match self.task(t) {
            Task::Dag(kind) => (kind.writes_tile().1 < self.nstatic)
                .then(|| (self.owners.owner(t), priority::static_key(&kind))),
            Task::Fill(_) | Task::Densify(_) => None,
        }
    }

    /// `t`'s priority in the dynamic section: Algorithm 2's DFS order
    /// for a DAG task, the column order for a conversion task.
    pub(crate) fn dynamic_key(&self, t: TaskId) -> u64 {
        match self.task(t) {
            Task::Dag(kind) => priority::dynamic_key(&kind),
            Task::Fill(c) | Task::Densify(c) => c as u64,
        }
    }

    /// Retire the tasks of one pop and collect into `ready_buf` (cleared
    /// first) what that released: their newly enabled DAG successors,
    /// and the next stage when this completion ended one. The count of
    /// retired tasks is the one stage rule over `F` FILLs, the DAG's `N`
    /// tasks and the DENSIFYs: the completion that makes it `F` releases
    /// the DAG's initial tasks and drops an unverified input, the one
    /// that makes it `F + N` releases the DENSIFYs. Returns whether this
    /// completion retired the run's final task; queueing what it
    /// released is the caller's business.
    ///
    /// `done` is an AcqRel counter every completion bumps, after its own
    /// releases: the completion that reaches a threshold sees every
    /// earlier task's writes, and the queue it pushes to hands them on to
    /// whoever pops next. A stage's last completion enables no DAG
    /// successor (the FILLs have none; after the last DAG task none is
    /// left), so the next stage is the whole batch.
    pub(crate) fn complete_into(&self, tasks: &[u32], ready_buf: &mut Vec<TaskId>) -> bool {
        ready_buf.clear();
        // conversion tasks, past the DAG's ids, release nothing through it
        for &t in tasks.iter().filter(|&&t| (t as usize) < self.g.len()) {
            for &s in self.g.successors(TaskId(t)) {
                if self.deps[s.idx()].fetch_sub(1, Ordering::AcqRel) == 1 {
                    ready_buf.push(s);
                }
            }
        }
        let done = self.done.fetch_add(tasks.len(), Ordering::AcqRel) + tasks.len();
        let fills = self.fills();
        if done == fills {
            // a moved-in or generated input is freed, a borrowed one let go
            if !self.verify {
                *self.input.write().unwrap_or_else(|e| e.into_inner()) = None;
            }
            ready_buf.extend(self.g.initial_ready());
        } else if done == fills + self.g.len() {
            ready_buf.extend(self.densify_tasks());
        }
        done == self.tasks()
    }

    /// Tasks retired so far, conversion tasks included.
    pub(crate) fn retired(&self) -> usize {
        self.done.load(Ordering::Acquire)
    }

    /// Whether every FILL retired: the tiles hold the input.
    pub(crate) fn filled(&self) -> bool {
        self.retired() >= self.fills()
    }

    /// Whether the DAG is under way: every FILL retired, not yet every
    /// DAG task.
    pub(crate) fn factoring(&self) -> bool {
        let fills = self.fills();
        (fills..fills + self.g.len()).contains(&self.retired())
    }

    /// `(k, i, j)` when `t` is an S task.
    fn update_of(&self, t: u32) -> Option<(usize, usize, usize)> {
        match self.task(TaskId(t)) {
            Task::Dag(TaskKind::Update { k, i, j }) => Some((k as usize, i as usize, j as usize)),
            _ => None,
        }
    }

    /// Whether S task `next` stacks under S task `last` in one GEMM —
    /// the paper's §4 grouping, decided by where the tiles sit: same
    /// panel and column, and both `next`'s C tile and its L tile start
    /// exactly where `last`'s end, on the same leading dimension. The
    /// BCL layout stores a thread's tiles of one column that way, up to
    /// `group` tiles a block, so a stack stops at a block's end; 2l-BL
    /// (every tile its own block) never does. A Cholesky diagonal
    /// update is a SYRK on its own lower triangle, so it neither starts
    /// nor joins a group; the off-diagonal `A·Bᵀ` updates below it do.
    /// Never for a conversion task.
    pub(crate) fn stacks_under(&self, last: u32, next: u32) -> bool {
        let (Some((k, i, j)), Some((k2, i2, j2))) = (self.update_of(last), self.update_of(next))
        else {
            return false;
        };
        let below = |tj: usize| {
            let (a, b) = (self.tiles.loc(i, tj), self.tiles.loc(i2, tj));
            b.offset == a.offset + a.rows && b.ld == a.ld
        };
        let not_syrk = self.kernels == KernelSet::CaluLu || (i != j && i2 != j2);
        not_syrk && (k, j) == (k2, j2) && below(j) && below(k)
    }

    /// The input, for as long as the run keeps it. (No writer can
    /// panic, so a poisoned lock still guards a valid value.)
    pub(crate) fn input(&self) -> RwLockReadGuard<'_, Option<Cow<'a, DenseMatrix>>> {
        self.input.read().unwrap_or_else(|e| e.into_inner())
    }

    /// What the tasks decided, once every DAG task ran: the combined
    /// permutation (in panel order) and the singular flag, taken by the
    /// first caller. By reference, because co-operative runs live in
    /// `Arc`s shared with in-flight workers; the factors themselves
    /// leave through [`take_factors`](Self::take_factors).
    pub(crate) fn factored(&self) -> &(RowPerm, Option<usize>) {
        self.factored.get_or_init(|| {
            let mut perm = RowPerm::identity();
            // unpivoted kernel sets (Cholesky) build no panel state: the
            // permutation is the identity
            for panel in &self.panels {
                perm.extend(panel.perm.get().expect("all panels finished"));
            }
            let singular = match self.singular.load(Ordering::Acquire) {
                NOT_SINGULAR => None,
                c => Some(c),
            };
            (perm, singular)
        })
    }

    /// Copy the input's entries into the tiles of FILL `c`, one
    /// contiguous tile column at a time.
    ///
    /// # Safety
    /// No DAG task of the item may have started, and no two calls may
    /// name the same chunk: chunks partition the tiles, so distinct
    /// chunks write disjoint elements.
    unsafe fn fill_chunk(&self, c: usize) {
        let input = self.input();
        let a = input.as_deref().expect("the input outlives the fills");
        let tiles: Vec<(usize, TilePtr)> = self
            .fill_tiles(c)
            .map(|(ti, tj)| (ti * self.b, self.tiles.tile_ptr(ti, tj)))
            .collect();
        let tj = c / self.owners.grid().pr();
        for j in 0..self.g.tile_col_count(tj) {
            let src = a.col(tj * self.b + j);
            for (r0, t) in &tiles {
                t.col_mut(j).copy_from_slice(&src[*r0..r0 + t.rows]);
            }
        }
    }

    /// Turn tile column `tj` in place into its columns of the dense
    /// factors (the tile buffer is the result) and apply the deferred
    /// left swaps to each column while it is hot, in the calling
    /// worker's `densify` buffers.
    ///
    /// # Safety
    /// Every DAG task must have completed, so no worker holds a tile
    /// pointer, and no two calls may name the same column.
    unsafe fn densify_chunk(&self, tj: usize, densify: &mut DensifyScratch) {
        let (perm, _) = self.factored();
        let cols = self.tiles.densify_col(tj, densify);
        for (j, col) in cols.chunks_exact_mut(self.g.rows()).enumerate() {
            left_swaps_in_col(col, tj * self.b + j, &self.g, perm.pivots(), self.b);
        }
    }

    /// The dense factors: the tile buffer, moved out without a copy.
    ///
    /// # Safety
    /// Every DENSIFY task must have completed, with its writes visible
    /// to the caller, and the item's tiles must not be used again.
    pub(crate) unsafe fn take_factors(&self) -> DenseMatrix {
        let data = self.tiles.take_buffer();
        DenseMatrix::from_col_major(self.g.rows(), self.g.cols(), data)
            .expect("the tile buffer holds m × n elements")
    }
}

impl ItemState<'_> {
    fn flag_singular(&self, col: usize) {
        self.singular.fetch_min(col, Ordering::AcqRel);
    }

    // ----- task bodies -------------------------------------------------

    /// Width of panel `k` (ragged last panel allowed).
    fn panel_width(&self, k: usize) -> usize {
        self.g.tile_col_count(k)
    }

    /// Gather the leaf chunk (every `leaf_stride`-th tile row from `i0`)
    /// of panel `k` and elect its pivot candidates: one copy, tile
    /// column by tile column, into a block GEPP then factors in place;
    /// the winners' pristine values are read back from the tiles, which
    /// nothing writes before this panel's finish.
    fn run_leaf(&self, k: usize, i0: usize, scratch: &mut GemmScratch) {
        let w = self.panel_width(k);
        // SAFETY: leaves read their own chunk's tiles; prior writers
        // (previous panel's updates) are ordered before us by deps and
        // the next writer (this panel's finish) after us.
        let tiles: Vec<TilePtr> = self
            .g
            .leaf_rows(i0)
            .map(|ti| unsafe { self.tiles.tile_ptr(ti, k) })
            .collect();
        let total: usize = tiles.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(total * w);
        for j in 0..w {
            for t in &tiles {
                // SAFETY: as above.
                data.extend_from_slice(unsafe { t.col(j) });
            }
        }
        let block = DenseMatrix::from_col_major(total, w, data).expect("total × w elements");
        let b = self.b;
        let ids: Vec<usize> = self
            .g
            .leaf_rows(i0)
            .zip(&tiles)
            .flat_map(|(ti, t)| (0..t.rows).map(move |i| ti * b + i))
            .collect();
        // only the ragged last tile row is short, so block row `i` sits
        // in the chunk's tile `i / b` at offset `i % b`
        // SAFETY: as above.
        let original = |i: usize, j: usize| unsafe { tiles[i / b].get(i % b, j) };
        let cand = Candidate::elect(block, &ids, original, scratch);
        let slot = i0 - k;
        *self.panels[k].slots[slot].lock() = Some(cand);
    }

    fn run_combine(&self, k: usize, level: u32, idx: u32, scratch: &mut GemmScratch) {
        let st = self.g.tree(k).step_for(level, idx);
        let a = self.panels[k].slots[st.left]
            .lock()
            .take()
            .expect("left candidate ready");
        let b = self.panels[k].slots[st.right]
            .lock()
            .take()
            .expect("right candidate ready");
        *self.panels[k].slots[st.out].lock() = Some(Candidate::combine(&a, &b, scratch));
    }

    /// Swap two global rows within tile column `tj`.
    ///
    /// # Safety
    /// Caller must have exclusive access to the affected tiles.
    unsafe fn swap_rows_in_tile_col(&self, r1: usize, r2: usize, tj: usize) {
        if r1 == r2 {
            return;
        }
        let w = self.g.tile_col_count(tj);
        let (t1, o1) = (r1 / self.b, r1 % self.b);
        let (t2, o2) = (r2 / self.b, r2 % self.b);
        let p1 = self.tiles.tile_ptr(t1, tj);
        let p2 = self.tiles.tile_ptr(t2, tj);
        for j in 0..w {
            let a = p1.get(o1, j);
            let b = p2.get(o2, j);
            p1.set(o1, j, b);
            p2.set(o2, j, a);
        }
    }

    fn run_finish(&self, k: usize) {
        let w = self.panel_width(k);
        let winner = self.panels[k].slots[self.g.tree(k).root]
            .lock()
            .take()
            .expect("tournament winner ready");
        let selected = &winner.ids[..w.min(winner.ids.len())];
        let perm = swaps_for_selection(k * self.b, selected);
        // apply Π_k to the panel column itself
        unsafe {
            for (t, &p) in perm.pivots().iter().enumerate() {
                self.swap_rows_in_tile_col(k * self.b + t, p, k);
            }
            // factor the diagonal tile without pivoting
            let d = self.tiles.tile_ptr(k, k);
            let span = (d.cols - 1) * d.ld + d.rows;
            let slice = std::slice::from_raw_parts_mut(d.ptr, span);
            if let Some(c) = lu_nopiv_unblocked(d.rows, d.cols, slice, d.ld) {
                self.flag_singular(k * self.b + c);
            }
        }
        self.panels[k]
            .perm
            .set(perm)
            .expect("panel finish runs once");
    }

    fn run_compute_l(&self, k: usize, i: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads diag tile (written by finish, ordered), writes
        // tile (i, k) exclusively.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(i, k);
            trsm::dtrsm_right_upper_raw_packed(t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch);
        }
    }

    fn run_compute_u(&self, k: usize, j: usize, scratch: &mut GemmScratch) {
        let perm = self.panels[k].perm.get().expect("finish ordered before U");
        // SAFETY: exclusive access to column j's tiles rows k.. per DAG.
        unsafe {
            for (t, &p) in perm.pivots().iter().enumerate() {
                self.swap_rows_in_tile_col(k * self.b + t, p, j);
            }
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(k, j);
            trsm::dtrsm_left_lower_unit_raw_packed(
                t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch,
            );
        }
    }

    /// The S tasks `(k, i..=i_last, j)` of one group as a single GEMM
    /// over their stacked tiles (`i_last == i`: the plain S task).
    fn run_update(&self, k: usize, i: usize, i_last: usize, j: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads L(·,k), U(k,j) (ordered by deps), writes (·,j)
        // exclusively, for every member; `stacks_under` chained the
        // members' C and L tiles end to start, so the rows from tile i
        // down to tile i_last are the members' and nobody else's.
        unsafe {
            let l = self.tiles.tile_ptr(i, k);
            let u = self.tiles.tile_ptr(k, j);
            let c = self.tiles.tile_ptr(i, j);
            let last = self.tiles.tile_ptr(i_last, j);
            let rows = last.ptr.offset_from(c.ptr) as usize + last.rows;
            gemm::dgemm_raw_packed(
                rows, c.cols, l.cols, -1.0, l.ptr, l.ld, u.ptr, u.ld, 1.0, c.ptr, c.ld, scratch,
            );
        }
    }

    // ----- Cholesky task bodies ---------------------------------------

    /// Cholesky panel: `dpotrf` on the diagonal tile `(k,k)` in place
    /// (lower triangle only). A non-positive pivot — the input is not
    /// numerically SPD — flags the item singular at its global column.
    fn run_potrf(&self, k: usize) {
        // SAFETY: exclusive write access to tile (k,k) per the DAG; the
        // slice spans only this tile's own storage, same as run_finish.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let span = (d.cols - 1) * d.ld + d.rows;
            let slice = std::slice::from_raw_parts_mut(d.ptr, span);
            if let Some(c) = potrf::dpotrf_blocked(d.rows, slice, d.ld, trsm::TRSM_NB) {
                self.flag_singular(k * self.b + c);
            }
        }
    }

    /// Cholesky triangular solve: `L_ik ← A_ik · L_kk⁻ᵀ`.
    fn run_cholesky_l(&self, k: usize, i: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads diag tile (written by the panel, ordered by
        // deps), writes tile (i, k) exclusively.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(i, k);
            trsm::dtrsm_right_lower_trans_raw_packed(
                t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch,
            );
        }
    }

    /// Cholesky trailing updates `A_ij ← A_ij − L_ik·L_jkᵀ` for
    /// `i..=i_last` (`j ≤ i`, lower triangle only; `i_last == i`: one
    /// task). A diagonal tile (`i == j`, always alone) uses the
    /// lower-triangle SYRK so its strictly-upper part is never touched;
    /// off-diagonal tiles are one full `A·Bᵀ` GEMM over the group's
    /// stacked rows, packing the shared `L_jk` once.
    fn run_cholesky_update(
        &self,
        k: usize,
        i: usize,
        i_last: usize,
        j: usize,
        scratch: &mut GemmScratch,
    ) {
        // SAFETY: reads L(·,k), L(j,k) (ordered by deps), writes (·,j)
        // exclusively, for every member; `stacks_under` chained the
        // members' C and L tiles end to start, as in `run_update`.
        unsafe {
            let li = self.tiles.tile_ptr(i, k);
            let c = self.tiles.tile_ptr(i, j);
            if i == j {
                syrk::dsyrk_ln_raw_packed(
                    c.rows, li.cols, -1.0, li.ptr, li.ld, 1.0, c.ptr, c.ld, scratch,
                );
            } else {
                let lj = self.tiles.tile_ptr(j, k);
                let last = self.tiles.tile_ptr(i_last, j);
                let rows = last.ptr.offset_from(c.ptr) as usize + last.rows;
                gemm::dgemm_nt_raw_packed(
                    rows, c.cols, li.cols, -1.0, li.ptr, li.ld, lj.ptr, lj.ld, 1.0, c.ptr, c.ld,
                    scratch,
                );
            }
        }
    }

    /// Run one task: a DAG task's kernel through the item's
    /// [`KernelSet`], or a conversion task's copy. `scratch` is the
    /// calling worker's packing arena — pre-sized for tile-dimension
    /// GEMMs, so the BLAS-3 tasks (L, U, S) never touch the allocator,
    /// and grown once by the first TSLU leaf's taller GEPP — and
    /// `densify` its buffers for a DENSIFY. The task *kinds* are shared
    /// across kernel sets (they encode the dependency shape); the bodies
    /// are not.
    pub(crate) fn execute(
        &self,
        t: TaskId,
        scratch: &mut GemmScratch,
        densify: &mut DensifyScratch,
    ) {
        let kind = match self.task(t) {
            Task::Dag(kind) => kind,
            // SAFETY: the FILLs are the only tasks queued until the
            // completion that makes `done` equal their count — every
            // FILL retired — queues the DAG's first ones, and each FILL
            // id is queued once, so no two calls name the same chunk.
            Task::Fill(c) => return unsafe { self.fill_chunk(c) },
            // SAFETY: the DENSIFYs are queued only by the completion
            // that retires the last DAG task (the AcqRel `done` counter
            // orders every task body before it, and the queue hands that
            // on to whoever pops), each id once, so the column blocks
            // rearranged are disjoint.
            Task::Densify(tj) => return unsafe { self.densify_chunk(tj, densify) },
        };
        match (self.kernels, kind) {
            (KernelSet::CaluLu, TaskKind::PanelLeaf { k, i }) => {
                self.run_leaf(k as usize, i as usize, scratch)
            }
            (KernelSet::CaluLu, TaskKind::PanelCombine { k, level, idx }) => {
                self.run_combine(k as usize, level, idx, scratch)
            }
            (KernelSet::CaluLu, TaskKind::PanelFinish { k }) => self.run_finish(k as usize),
            (KernelSet::CaluLu, TaskKind::ComputeL { k, i }) => {
                self.run_compute_l(k as usize, i as usize, scratch)
            }
            (KernelSet::CaluLu, TaskKind::ComputeU { k, j }) => {
                self.run_compute_u(k as usize, j as usize, scratch)
            }
            (KernelSet::CaluLu, TaskKind::Update { k, i, j }) => {
                self.run_update(k as usize, i as usize, i as usize, j as usize, scratch)
            }
            (KernelSet::Cholesky, TaskKind::PanelFinish { k }) => self.run_potrf(k as usize),
            (KernelSet::Cholesky, TaskKind::ComputeL { k, i }) => {
                self.run_cholesky_l(k as usize, i as usize, scratch)
            }
            (KernelSet::Cholesky, TaskKind::Update { k, i, j }) => {
                self.run_cholesky_update(k as usize, i as usize, i as usize, j as usize, scratch)
            }
            (KernelSet::Cholesky, kind) => {
                unreachable!("tiled Cholesky graphs never emit {kind:?}")
            }
        }
    }

    /// Run what one pop claimed: a single task, or a group of S tasks
    /// chained by [`stacks_under`](Self::stacks_under) as one GEMM (an
    /// `A·Bᵀ` one under Cholesky).
    pub(crate) fn execute_group(
        &self,
        group: &[u32],
        scratch: &mut GemmScratch,
        densify: &mut DensifyScratch,
    ) {
        match *group {
            [] => {}
            [t] => self.execute(TaskId(t), scratch, densify),
            [first, .., last] => {
                let (Some((k, i, j)), Some((_, i_last, _))) =
                    (self.update_of(first), self.update_of(last))
                else {
                    unreachable!("only S tasks stack");
                };
                match self.kernels {
                    KernelSet::CaluLu => self.run_update(k, i, i_last, j, scratch),
                    KernelSet::Cholesky => self.run_cholesky_update(k, i, i_last, j, scratch),
                }
            }
        }
    }
}

/// The host's CPU topology, detected once per process: sysfs parse on
/// Linux, flat fallback elsewhere (see [`CpuTopology::detect`]).
pub(crate) fn host_topology() -> &'static CpuTopology {
    static TOPO: OnceLock<CpuTopology> = OnceLock::new();
    TOPO.get_or_init(CpuTopology::detect)
}

/// Apply the deferred "left swaps" (Algorithm 1, line 43) to column `c`
/// of the factors: the permutation of every panel strictly right of the
/// column, in panel order. `piv` is the concatenation of the panel
/// permutations. A column is contiguous, so the swaps stay in cache
/// where a row-wise walk strides `m` elements per column touched.
fn left_swaps_in_col(col: &mut [f64], c: usize, g: &TaskGraph, piv: &[usize], b: usize) {
    for k in c / b + 1..g.num_panels() {
        let base = k * b;
        let w = g.tile_col_count(k);
        for t in 0..w.min(piv.len().saturating_sub(base)) {
            col.swap(base + t, piv[base + t]);
        }
    }
}

/// Factor the symmetric positive-definite `a` as `A = L·Lᵀ` with the
/// tiled Cholesky kernel set on the same hybrid static/dynamic executor
/// as CALU — identical queues, steal tiers and scratch arenas, different
/// task bodies ([`KernelSet::Cholesky`]). Only the lower triangle of `a`
/// is read; on return the factorization's `lu` holds `L` in its lower
/// triangle (non-unit diagonal) with `a`'s untouched strictly-upper part
/// above it, the permutation is the identity, and `singular_at` flags
/// the first column whose pivot was not positive (the input was not
/// numerically SPD). Use [`Factorization::cholesky_residual`] to verify.
pub fn cholesky_factor(a: &DenseMatrix, cfg: &CaluConfig) -> Result<Factorization, CaluError> {
    factor_one(BatchItem::cholesky(Source::Dense(a)), cfg).map(|out| out.factorization)
}

/// Factor `a` with CALU: tournament pivoting + hybrid static/dynamic
/// scheduling (Algorithm 1).
pub fn calu_factor(a: &DenseMatrix, cfg: &CaluConfig) -> Result<Factorization, CaluError> {
    factor_one(BatchItem::lu(Source::Dense(a)), cfg).map(|out| out.factorization)
}

/// A [`factor_batch`] of one with co-scheduling off — what "solo" means:
/// the whole pool runs the hybrid static/dynamic schedule on the job,
/// however small. The full [`Outcome`] (timeline, queue accounting,
/// verification) behind [`calu_factor`] / [`cholesky_factor`].
pub fn factor_one(job: BatchItem<'_>, cfg: &CaluConfig) -> Result<Outcome, CaluError> {
    let mut out = factor_batch(&[job], &cfg.clone().with_batch_small_cutoff(0))?;
    Ok(out.items.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu_simple;
    use crate::fault::FaultPlan;
    use calu_matrix::{gen, Layout};
    use calu_sched::{QueueDiscipline, ScheduleMetrics};

    fn check(a: &DenseMatrix, cfg: &CaluConfig, tol: f64) {
        let f = calu_factor(a, cfg).expect("factor");
        assert!(f.is_nonsingular(), "unexpected singularity");
        let r = f.residual(a);
        assert!(r < tol, "residual {r} with {cfg:?}");
    }

    #[test]
    fn single_thread_matches_reference() {
        let a = gen::uniform(48, 48, 1);
        let cfg = CaluConfig::new(8).with_threads(1);
        let f = calu_factor(&a, &cfg).unwrap();
        // a 1×1 grid's panel has one tournament leaf: one TSLU chunk
        let reference = calu_simple(&a, 8, 1);
        assert_eq!(f.perm.pivots(), reference.perm.pivots());
        assert_eq!(f.lu.as_slice(), reference.lu.as_slice());
        assert!(f.residual(&a) < 1e-12);
    }

    #[test]
    fn multithreaded_all_layouts() {
        let a = gen::uniform(64, 64, 2);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16).with_threads(4).with_layout(layout);
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn dratio_sweep_same_answer() {
        let a = gen::uniform(60, 60, 3);
        let rhs = gen::uniform(60, 1, 4);
        let mut solutions = Vec::new();
        for dratio in [0.0, 0.1, 0.5, 1.0] {
            let cfg = CaluConfig::new(10).with_threads(3).with_dratio(dratio);
            let f = calu_factor(&a, &cfg).unwrap();
            assert!(f.residual(&a) < 1e-12, "dratio {dratio}");
            solutions.push(f.solve(&rhs));
        }
        for s in &solutions[1..] {
            assert!(
                s.approx_eq(&solutions[0], 1e-9),
                "schedule must not change math"
            );
        }
    }

    #[test]
    fn threads_do_not_change_pivots() {
        // determinism: pivot choice depends only on the matrix & grid,
        // not on timing
        let a = gen::uniform(80, 80, 5);
        let f1 = calu_factor(&a, &CaluConfig::new(16).with_threads(4)).unwrap();
        let f2 = calu_factor(&a, &CaluConfig::new(16).with_threads(4)).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise deterministic");
    }

    #[test]
    fn tall_matrix() {
        let a = gen::uniform(96, 32, 6);
        let cfg = CaluConfig::new(16).with_threads(4);
        check(&a, &cfg, 1e-12);
    }

    /// The executor's own grid rule, as `Engine::build` applies it.
    fn grid_for(m: usize, n: usize, b: usize, threads: usize) -> ProcessGrid {
        ProcessGrid::for_shape(threads, m.div_ceil(b), n.div_ceil(b)).unwrap()
    }

    #[test]
    fn fewer_tile_rows_than_grid_rows_never_yields_an_empty_leaf() {
        // 3 tile rows under a 4×1 grid, 5 under 7×1, a ragged 2 under
        // 3×2: the DAG caps a panel's leaves at its remaining tile rows
        for (m, n, b, threads) in [(48, 8, 16, 4), (40, 5, 8, 7), (40, 5, 32, 6)] {
            let grid = grid_for(m, n, b, threads);
            assert!(m.div_ceil(b) < grid.pr(), "{m}x{n}: the case under test");
            let g = TaskGraph::build_calu(m, n, b, grid.pr());
            for t in g.ids() {
                if let TaskKind::PanelLeaf { k, i } = g.kind(t) {
                    let rows = g.leaf_rows(i as usize).count();
                    assert!(rows > 0, "{m}x{n} b={b}: leaf ({k},{i}) is empty");
                }
            }
            let a = gen::uniform(m, n, 41);
            check(&a, &CaluConfig::new(b).with_threads(threads), 1e-12);
        }
    }

    #[test]
    fn tall_panels_get_one_leaf_per_thread_and_stay_stable() {
        // residual and element growth on tall inputs the tournament now
        // splits pr ways: benign, Wilkinson-style (GEPP's worst case in
        // the leading block) and rank-deficient
        let (m, n, b) = (512, 32, 16);
        // GEPP's worst case in the leading corner, nothing under it: the
        // pivots of the first 12 columns must come out of a block whose
        // elimination doubles the last column 11 times
        let wilkinson_style = {
            let (w, rest) = (gen::wilkinson(12), gen::uniform(m, n, 43));
            DenseMatrix::from_fn(m, n, |i, j| match (i < 12, j < 12) {
                (true, true) => w.get(i, j),
                (false, true) => 0.0,
                (_, false) => rest.get(i, j),
            })
        };
        // with the growth each may show: what GEPP itself shows on it
        // (2^11 on the Wilkinson block, single digits on random data)
        let inputs = [
            ("uniform", gen::uniform(m, n, 42), 32.0),
            ("wilkinson-style", wilkinson_style, 2048.0),
            ("rank-deficient", gen::rank_deficient(m, n, 20, 44), 32.0),
        ];
        for threads in [2usize, 4] {
            let grid = grid_for(m, n, b, threads);
            assert_eq!((grid.pr(), grid.pc()), (threads, 1));
            // (Grigori, Demmel & Xiang: tournament pivoting over a tree
            // of height H may grow elements by up to 2^(n(H+1)−1), the
            // 2^(n−1) of partial pivoting at H = 0 — the caps above sit
            // far inside that)
            for (name, a, growth_cap) in &inputs {
                let cfg = CaluConfig::new(b).with_threads(threads);
                let out = factor_one(BatchItem::lu(Source::Dense(a)).traced(true), &cfg).unwrap();
                let tl = out.timeline.as_ref().unwrap();
                let leaves = tl
                    .spans()
                    .iter()
                    .filter(|s| s.kind == calu_trace::SpanKind::Panel)
                    .count();
                let g = TaskGraph::build_calu(m, n, b, threads);
                assert_eq!(tl.spans().len(), g.len(), "{name} T={threads}");
                // per panel: `threads` leaves, one combine fewer, a finish
                assert_eq!(leaves, g.num_panels() * 2 * threads, "{name} T={threads}");
                let f = &out.factorization;
                let residual = f.residual(a);
                assert!(residual < 1e-12, "{name} T={threads}: residual {residual}");
                let growth = f.growth_factor(a);
                assert!(
                    growth <= *growth_cap,
                    "{name} T={threads}: growth {growth} above {growth_cap}"
                );
            }
        }
    }

    #[test]
    fn one_explicit_leaf_on_a_tall_input_is_the_sequential_panel_bitwise() {
        // `.tslu_leaves(1)` pins the DAG the square-grid default used to
        // give a tall input on few threads (1×p grid, one leaf): same
        // graph and kernels whatever grid now owns the tiles, so the
        // same bits as the one-thread run, whose grid has one row
        let a = gen::uniform(400, 48, 45);
        let one = calu_factor(&a, &CaluConfig::new(16)).unwrap();
        for threads in [2, 4] {
            let mut cfg = CaluConfig::new(16).with_threads(threads);
            cfg.leaf_stride = Some(1);
            let f = calu_factor(&a, &cfg).unwrap();
            assert_eq!(f.perm.pivots(), one.perm.pivots(), "T={threads}");
            assert_eq!(f.lu.as_slice(), one.lu.as_slice(), "T={threads}");
            // the default splits the panel, so it elects other pivots
            let split = calu_factor(&a, &CaluConfig::new(16).with_threads(threads)).unwrap();
            assert_ne!(split.perm.pivots(), one.perm.pivots(), "T={threads}");
            assert!(split.residual(&a) < 1e-12);
        }
    }

    #[test]
    fn left_swaps_per_column_match_the_row_walk_bitwise() {
        /// The order this replaced: each swap walked across the columns
        /// left of its panel, `m` elements apart.
        fn row_walk(lu: &mut DenseMatrix, g: &TaskGraph, perms: &RowPerm, b: usize) {
            let piv = perms.pivots();
            for k in 0..g.num_panels() {
                let base = k * b;
                let w = g.tile_col_count(k);
                let left_cols = base.min(lu.cols());
                for t in 0..w.min(piv.len().saturating_sub(base)) {
                    lu.swap_rows_in_cols(base + t, piv[base + t], 0, left_cols);
                }
            }
        }
        // square, tall, wide, ragged in both directions
        for (m, n, b) in [
            (64, 64, 16),
            (96, 32, 16),
            (32, 96, 16),
            (50, 37, 8),
            (37, 50, 8),
        ] {
            let a = gen::uniform(m, n, 46);
            let perm = calu_factor(&a, &CaluConfig::new(b).with_threads(2))
                .unwrap()
                .perm;
            assert!(perm.pivots().iter().enumerate().any(|(k, &p)| p != k));
            let g = TaskGraph::build_calu(m, n, b, 2);
            let mut old = gen::uniform(m, n, 47);
            let mut new = old.clone();
            row_walk(&mut old, &g, &perm, b);
            for c in 0..n {
                left_swaps_in_col(new.col_mut(c), c, &g, perm.pivots(), b);
            }
            assert_eq!(old.as_slice(), new.as_slice(), "{m}x{n} b={b}");
        }
    }

    #[test]
    fn s_tasks_stack_exactly_where_their_tiles_do() {
        // 8×8 tiles (the last row and column ragged) on a 2×2 grid: a
        // worker owns every other tile row, and BCL stores its tiles of
        // one column end to start in blocks of `group` counted from the
        // run's end (3 here: owned rows 1 | 3, 5, 7 and 0 | 2, 4, 6)
        let (n, b) = (61, 8);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let g = Arc::new(TaskGraph::build_calu(n, n, b, 2));
        let id = |kind: TaskKind| g.ids().find(|&t| g.kind(t) == kind).unwrap().0;
        let s = |k, i, j| id(TaskKind::Update { k, i, j });
        let input = || Cow::Owned(DenseMatrix::zeros(n, n));
        let bcl = ItemState::new(Layout::BlockCyclic, 3, g.clone(), grid, 8, input());
        assert!(bcl.stacks_under(s(0, 3, 1), s(0, 5, 1)), "next owned row");
        assert!(
            bcl.stacks_under(s(0, 5, 2), s(0, 7, 2)),
            "ragged last member"
        );
        assert!(!bcl.stacks_under(s(0, 1, 2), s(0, 3, 2)), "the next block");
        assert!(!bcl.stacks_under(s(0, 1, 1), s(0, 3, 1)), "the next block");
        // blocks of 8 hold each owner's whole run of 4 tiles
        let whole = ItemState::new(Layout::BlockCyclic, 8, g.clone(), grid, 8, input());
        assert!(whole.stacks_under(s(0, 1, 2), s(0, 3, 2)), "one block");
        assert!(!bcl.stacks_under(s(0, 1, 1), s(0, 2, 1)), "another owner's");
        assert!(!bcl.stacks_under(s(0, 3, 1), s(0, 7, 1)), "a gap");
        assert!(!bcl.stacks_under(s(0, 5, 1), s(0, 3, 1)), "upwards");
        assert!(!bcl.stacks_under(s(0, 3, 1), s(0, 5, 3)), "another column");
        assert!(!bcl.stacks_under(s(0, 2, 2), s(1, 4, 2)), "another panel");
        let l = id(TaskKind::ComputeL { k: 0, i: 3 });
        assert!(!bcl.stacks_under(s(0, 1, 1), l) && !bcl.stacks_under(l, s(0, 3, 1)));
        // 2l-BL keeps every tile in a block of its own: nothing stacks
        let tlb = ItemState::new(Layout::TwoLevelBlock, 3, g.clone(), grid, 8, input());
        for i in 1..6 {
            assert!(
                !tlb.stacks_under(s(0, i, 1), s(0, i + 2, 1)),
                "2l-BL row {i}"
            );
        }
        // Cholesky: the off-diagonal A·Bᵀ updates stack by the same
        // rule; the diagonal SYRK never starts or joins a group
        let gc = Arc::new(TaskGraph::build_cholesky(n, b));
        let c = |k, i, j| {
            let kind = TaskKind::Update { k, i, j };
            gc.ids().find(|&t| gc.kind(t) == kind).unwrap().0
        };
        let spd = || Cow::Owned(DenseMatrix::zeros(n, n));
        let chol = ItemState::new(Layout::BlockCyclic, 3, gc.clone(), grid, 8, spd());
        assert!(chol.stacks_under(c(0, 3, 1), c(0, 5, 1)), "next owned row");
        assert!(chol.stacks_under(c(0, 5, 2), c(0, 7, 2)), "ragged last");
        // blocks of 2: owned rows 1, 3 | 5, 7
        let pairs = ItemState::new(Layout::BlockCyclic, 2, gc.clone(), grid, 8, spd());
        assert!(
            !pairs.stacks_under(c(0, 3, 1), c(0, 5, 1)),
            "the next block"
        );
        for (d, o) in [(c(0, 3, 3), c(0, 5, 3)), (c(0, 2, 2), c(0, 4, 2))] {
            assert!(!chol.stacks_under(d, o), "the diagonal as last");
            assert!(!chol.stacks_under(o, d), "the diagonal as next");
        }
        assert!(
            !chol.stacks_under(c(0, 3, 1), c(0, 4, 1)),
            "another owner's"
        );
        assert!(!chol.stacks_under(c(0, 3, 1), c(0, 5, 3)), "another column");
        assert!(!chol.stacks_under(c(0, 4, 2), c(1, 6, 2)), "another panel");
        let l = gc
            .ids()
            .find(|&t| gc.kind(t) == TaskKind::ComputeL { k: 0, i: 5 });
        assert!(!chol.stacks_under(c(0, 3, 1), l.unwrap().0));
        // CM stacks every row of a column, the diagonal still alone
        let cm = ItemState::new(Layout::ColumnMajor, 3, gc.clone(), grid, 8, spd());
        assert!(cm.stacks_under(c(0, 2, 1), c(0, 3, 1)), "CM next row");
        assert!(!cm.stacks_under(c(0, 1, 1), c(0, 2, 1)), "CM diagonal");
        let tlb = ItemState::new(Layout::TwoLevelBlock, 3, gc.clone(), grid, 8, spd());
        assert!(!tlb.stacks_under(c(0, 3, 1), c(0, 5, 1)), "2l-BL");
    }

    #[test]
    fn a_group_of_8_stacks_8_tiles_within_a_block_and_never_crosses_one() {
        // 36 tile rows on a 2×1 grid: each owner holds 18 tiles of a
        // column, in blocks of 2, 8 and 8 (counted from the run's end)
        let (m, n, b) = (288, 16, 8);
        let grid = ProcessGrid::new(2, 1).unwrap();
        let g = Arc::new(TaskGraph::build_calu(m, n, b, 2));
        let s = |i| {
            let kind = TaskKind::Update { k: 0, i, j: 1 };
            g.ids().find(|&t| g.kind(t) == kind).unwrap().0
        };
        let input = Cow::Owned(DenseMatrix::zeros(m, n));
        let item = ItemState::new(Layout::BlockCyclic, 8, g.clone(), grid, 1, input);
        for r in 0..2 {
            // the S tasks' rows of owner `r` (tile row 0 has none)
            let mine: Vec<u32> = (1..36).filter(|i| i % 2 == r).collect();
            let (mut stack, mut tallest) = (1, 1);
            for pair in mine.windows(2) {
                let (i, next) = (pair[0], pair[1]);
                // tile row `next` is its owner's `(next - r) / 2`-th, and
                // a block starts at the owner's tiles 2 and 10
                let crosses = ((next - r) / 2 + 6) % 8 == 0;
                assert_eq!(item.stacks_under(s(i), s(next)), !crosses, "{i} → {next}");
                stack = if crosses { 1 } else { stack + 1 };
                tallest = tallest.max(stack);
            }
            assert_eq!(tallest, 8, "owner {r}: a full block stacks whole");
        }
    }

    #[test]
    fn conversion_tasks_partition_the_tiles_after_the_dag() {
        // LU and Cholesky × square, tall (p×1 grid), wide (1×p grid)
        // and ragged shapes × the co-operative grid and a one-worker
        // run's 1×1 grid
        let b = 8;
        for (m, n) in [(64usize, 64usize), (160, 24), (24, 160), (61, 61), (83, 37)] {
            for kernels in [KernelSet::CaluLu, KernelSet::Cholesky] {
                if kernels == KernelSet::Cholesky && m != n {
                    continue;
                }
                let (mt, nt) = (m.div_ceil(b), n.div_ceil(b));
                for grid in [grid_for(m, n, b, 4), ProcessGrid::new(1, 1).unwrap()] {
                    let ctx = format!("{kernels:?} {m}x{n} on {}x{}", grid.pr(), grid.pc());
                    let g = Arc::new(kernels.build_graph(m, n, b, grid.pr()).unwrap());
                    let input = Cow::Owned(DenseMatrix::zeros(m, n));
                    let item = ItemState::new(Layout::BlockCyclic, 3, g.clone(), grid, 2, input);
                    // the conversion ids run contiguously from the DAG's end
                    let last = TaskId(g.len() as u32 - 1);
                    assert_eq!(item.task(last), Task::Dag(g.kind(last)), "{ctx}");
                    let (fills, owners): (Vec<TaskId>, Vec<usize>) = item.fill_tasks().unzip();
                    let conversions = [fills, item.densify_tasks()].concat();
                    let ids: Vec<TaskId> =
                        (g.len()..item.tasks()).map(|t| TaskId(t as u32)).collect();
                    assert_eq!(conversions, ids, "{ctx}");
                    // every tile in exactly one FILL, queued on the tile's
                    // block-cyclic owner; every tile column in one DENSIFY;
                    // both in the dynamic section
                    let mut filled = vec![0usize; mt * nt];
                    let mut densified = vec![0usize; nt];
                    for (x, &t) in conversions.iter().enumerate() {
                        assert!(item.static_slot(t).is_none(), "{ctx}: {t:?} is dynamic");
                        match item.task(t) {
                            Task::Fill(c) => {
                                for (ti, tj) in item.fill_tiles(c) {
                                    assert_eq!(owners[x], grid.owner(ti, tj), "{ctx}: FILL {c}");
                                    filled[ti * nt + tj] += 1;
                                }
                            }
                            Task::Densify(tj) => densified[tj] += 1,
                            Task::Dag(_) => panic!("{ctx}: {t:?} is past the DAG"),
                        }
                        // a conversion task never stacks with anything
                        for other in (0..item.tasks() as u32).map(TaskId) {
                            assert!(
                                !item.stacks_under(t.0, other.0)
                                    && !item.stacks_under(other.0, t.0),
                                "{ctx}"
                            );
                        }
                    }
                    assert!(filled.iter().all(|&f| f == 1), "{ctx}: {filled:?}");
                    assert!(densified.iter().all(|&d| d == 1), "{ctx}: {densified:?}");
                }
            }
        }
    }

    #[test]
    fn the_retired_count_releases_each_stage_once() {
        // retire every task of a run one at a time in dependency order,
        // no body run: the count alone releases the stages
        let b = 8;
        for (kernels, (m, n), verify) in [
            (KernelSet::CaluLu, (40usize, 24usize), false),
            (KernelSet::Cholesky, (40, 40), true),
        ] {
            let grid = grid_for(m, n, b, 4);
            let g = Arc::new(kernels.build_graph(m, n, b, grid.pr()).unwrap());
            let input = Cow::Owned(DenseMatrix::zeros(m, n));
            let item =
                ItemState::new(Layout::BlockCyclic, 3, g.clone(), grid, 2, input).verified(verify);
            let mut queue: std::collections::VecDeque<TaskId> =
                item.fill_tasks().map(|(t, _)| t).collect();
            let (fills, dag) = (queue.len(), g.len());
            let mut released = vec![0usize; item.tasks()];
            for t in &queue {
                released[t.idx()] += 1;
            }
            let (mut retired, mut finals, mut ready) = (0, 0, Vec::new());
            while let Some(t) = queue.pop_front() {
                let ctx = format!("{kernels:?} after {t:?}");
                finals += usize::from(item.complete_into(&[t.0], &mut ready));
                retired += 1;
                if retired == fills {
                    assert!(
                        ready.iter().copied().eq(g.initial_ready()),
                        "{ctx}: the last FILL"
                    );
                } else if retired == fills + dag {
                    assert_eq!(ready, item.densify_tasks(), "{ctx}: the last DAG task");
                } else if retired < fills || retired > fills + dag {
                    assert!(ready.is_empty(), "{ctx}: {ready:?}");
                } else {
                    assert!(ready.iter().all(|&s| s.idx() < dag), "{ctx}: {ready:?}");
                }
                assert_eq!(item.retired(), retired, "{ctx}");
                assert_eq!(item.filled(), retired >= fills, "{ctx}");
                assert_eq!(
                    item.factoring(),
                    (fills..fills + dag).contains(&retired),
                    "{ctx}"
                );
                assert_eq!(item.input().is_some(), verify || retired < fills, "{ctx}");
                assert_eq!(finals, usize::from(retired == item.tasks()), "{ctx}");
                for &s in &ready {
                    released[s.idx()] += 1;
                }
                queue.extend(ready.iter().copied());
            }
            assert_eq!(retired, item.tasks(), "{kernels:?}");
            assert!(
                released.iter().all(|&r| r == 1),
                "{kernels:?}: {released:?}"
            );
        }
    }

    #[test]
    fn ragged_tiles() {
        let a = gen::uniform(50, 50, 7);
        let cfg = CaluConfig::new(16).with_threads(2);
        check(&a, &cfg, 1e-12);
    }

    #[test]
    fn trace_is_complete() {
        let a = gen::uniform(64, 64, 8);
        let cfg = CaluConfig::new(16).with_threads(4);
        let Outcome {
            factorization: f,
            timeline: Some(tl),
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)).traced(true), &cfg).unwrap()
        else {
            panic!("a traced job has a timeline")
        };
        assert!(f.residual(&a) < 1e-12);
        assert_eq!(tl.cores(), 4);
        let g = TaskGraph::build_calu(64, 64, 16, 2);
        assert_eq!(tl.spans().len(), g.len(), "one span per task");
    }

    #[test]
    fn solve_through_threaded_factorization() {
        let a = gen::uniform(64, 64, 9);
        let x_true = gen::uniform(64, 2, 10);
        let rhs = calu_matrix::ops::matmul(&a, &x_true);
        let f = calu_factor(&a, &CaluConfig::new(8).with_threads(4)).unwrap();
        assert!(f.solve(&rhs).approx_eq(&x_true, 1e-7));
    }

    #[test]
    fn zero_matrix_flagged() {
        let z = DenseMatrix::zeros(16, 16);
        let f = calu_factor(&z, &CaluConfig::new(4).with_threads(2)).unwrap();
        assert!(!f.is_nonsingular());
    }

    #[test]
    fn rejects_bad_config() {
        let a = gen::uniform(8, 8, 11);
        assert!(calu_factor(&a, &CaluConfig::new(0)).is_err());
        assert!(calu_factor(&a, &CaluConfig::new(4).with_threads(0)).is_err());
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            assert!(
                calu_factor(&a, &CaluConfig::new(4).with_dratio(0.0).with_queue(queue)).is_err(),
                "{queue} discipline without a dynamic section is a config error"
            );
        }
    }

    #[test]
    fn sharded_queue_all_layouts() {
        let a = gen::uniform(64, 64, 12);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16)
                .with_threads(4)
                .with_dratio(0.5)
                .with_layout(layout)
                .with_queue(QueueDiscipline::sharded());
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn queue_discipline_does_not_change_the_math() {
        // the schedule (and who steals what) must not affect a single
        // bit of the factors: writes to each tile are totally ordered by
        // the DAG's exclusive-writer discipline
        let a = gen::uniform(80, 80, 13);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let sharded = base.clone().with_queue(QueueDiscipline::sharded());
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &sharded).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise identical factors");
    }

    #[test]
    fn global_discipline_never_steals() {
        let a = gen::uniform(64, 64, 14);
        let cfg = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let Outcome {
            schedule: ScheduleMetrics { threads: stats, .. },
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)), &cfg).unwrap();
        for s in &stats {
            assert_eq!(s.stolen_pops, 0, "no steal path under Global");
            assert_eq!(s.failed_steals, 0, "no steal probes under Global");
        }
    }

    #[test]
    fn lockfree_queue_all_layouts() {
        let a = gen::uniform(64, 64, 16);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16)
                .with_threads(4)
                .with_dratio(0.5)
                .with_layout(layout)
                .with_queue(QueueDiscipline::lock_free());
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn lockfree_discipline_does_not_change_the_math() {
        let a = gen::uniform(80, 80, 13);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let lockfree = base.clone().with_queue(QueueDiscipline::lock_free());
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &lockfree).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise identical factors");
    }

    #[test]
    fn lockfree_stats_attribute_every_task_once() {
        let a = gen::uniform(96, 96, 17);
        let cfg = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(1.0)
            .with_queue(QueueDiscipline::LockFree { seed: 11 });
        let Outcome {
            factorization: f,
            timeline: Some(tl),
            schedule: ScheduleMetrics { threads: stats, .. },
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)).traced(true), &cfg).unwrap()
        else {
            panic!("a traced job has a timeline")
        };
        assert!(f.residual(&a) < 1e-12);
        let total: u64 = stats
            .iter()
            .map(|s| s.local_pops + s.global_pops + s.stolen_pops)
            .sum();
        assert_eq!(total as usize, tl.spans().len(), "one pop per span");
        for s in &stats {
            assert!(
                s.remote_steal_pops <= s.stolen_pops,
                "remote steals are a subset of steals"
            );
        }
    }

    #[test]
    fn pinned_workers_factor_identically() {
        // pinning moves threads, never data: same bits with and without
        let a = gen::uniform(64, 64, 18);
        let base = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(0.5)
            .with_queue(QueueDiscipline::lock_free());
        let pinned = base.clone().with_pinning(true);
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &pinned).unwrap();
        assert!(f1.residual(&a) < 1e-12 && f2.residual(&a) < 1e-12);
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0));
    }

    #[test]
    fn cholesky_factors_spd_on_all_layouts() {
        let a = gen::spd_uniform(64, 21);
        for layout in [
            Layout::ColumnMajor,
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
        ] {
            let cfg = CaluConfig::new(16).with_threads(4).with_layout(layout);
            let f = cholesky_factor(&a, &cfg).expect("factor");
            assert!(f.is_nonsingular(), "{layout:?}");
            assert!(f.perm.pivots().is_empty(), "Cholesky never pivots");
            let r = f.cholesky_residual(&a);
            assert!(r < 1e-13, "residual {r} on {layout:?}");
        }
    }

    #[test]
    fn cholesky_matches_sequential_dpotrf() {
        // the tiled factor agrees with the dense reference kernel (to
        // roundoff: summation orders differ between tilings)
        let a = gen::spd_uniform(48, 22);
        let mut reference = a.clone();
        let ld = reference.ld();
        assert!(calu_kernels::dpotrf_unblocked(48, reference.as_mut_slice(), ld).is_none());
        let f = cholesky_factor(&a, &CaluConfig::new(16).with_threads(3)).unwrap();
        for i in 0..48 {
            for j in 0..=i {
                let (x, y) = (f.lu.get(i, j), reference.get(i, j));
                assert!((x - y).abs() < 1e-11, "({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn cholesky_bitwise_identical_across_disciplines_and_threads() {
        let a = gen::spd_uniform(80, 23);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let f0 = cholesky_factor(&a, &base).unwrap();
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            let f = cholesky_factor(&a, &base.clone().with_queue(queue)).unwrap();
            assert!(f.lu.approx_eq(&f0.lu, 0.0), "bitwise across disciplines");
        }
        for threads in [1, 2, 3] {
            let f = cholesky_factor(&a, &base.clone().with_threads(threads)).unwrap();
            assert!(
                f.lu.approx_eq(&f0.lu, 0.0),
                "bitwise across {threads} threads"
            );
        }
    }

    #[test]
    fn cholesky_flags_non_spd_input() {
        // an indefinite symmetric matrix must come back flagged, not
        // panic or hang
        let mut a = gen::spd_uniform(32, 24);
        a.set(10, 10, -5.0);
        let f = cholesky_factor(&a, &CaluConfig::new(8).with_threads(2)).unwrap();
        assert!(!f.is_nonsingular());
        assert!(
            f.singular_at.unwrap() <= 10,
            "flag at or before the bad pivot"
        );
    }

    #[test]
    fn cholesky_rejects_rectangular_input() {
        let a = gen::uniform(32, 16, 25);
        let err = cholesky_factor(&a, &CaluConfig::new(8).with_threads(2)).unwrap_err();
        assert!(err.to_string().contains("square"), "{err}");
    }

    #[test]
    fn cholesky_ragged_tiles() {
        let a = gen::spd_uniform(50, 26);
        let f = cholesky_factor(&a, &CaluConfig::new(16).with_threads(2)).unwrap();
        assert!(f.cholesky_residual(&a) < 1e-13);
    }

    #[test]
    fn lost_worker_is_rescued_bitwise() {
        // the headline rescue invariant: kill a worker mid-run and the
        // survivors produce the exact same bits the healthy pool does
        let a = gen::uniform(96, 96, 31);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.3);
        let f0 = calu_factor(&a, &base).unwrap();
        let plan = FaultPlan::off().with_seed(5).lose_worker(2, 3);
        let cfg = base.clone().with_fault(plan);
        let Outcome {
            factorization: f,
            schedule: ScheduleMetrics { threads: stats, .. },
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)), &cfg).unwrap();
        assert_eq!(f0.perm.pivots(), f.perm.pivots());
        assert!(f0.lu.approx_eq(&f.lu, 0.0), "bitwise despite the loss");
        assert!(stats[2].lost, "worker 2 recorded as lost");
        assert!(
            stats.iter().map(|s| s.rescued).sum::<u64>() > 0,
            "the dead owner's static backlog was republished"
        );
    }

    #[test]
    fn slow_worker_degrades_but_never_changes_the_bits() {
        let a = gen::uniform(80, 80, 32);
        let base = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(0.5)
            .with_queue(QueueDiscipline::sharded());
        let f0 = calu_factor(&a, &base).unwrap();
        let cfg = base
            .clone()
            .with_fault(FaultPlan::off().with_seed(9).slow_worker(1, 2.0));
        let Outcome {
            factorization: f,
            schedule: ScheduleMetrics { threads: stats, .. },
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)), &cfg).unwrap();
        assert_eq!(f0.perm.pivots(), f.perm.pivots());
        assert!(f0.lu.approx_eq(&f.lu, 0.0));
        assert!(!stats[1].lost, "slow is degraded, not dead");
    }

    #[test]
    fn injected_panic_fails_typed_not_process() {
        let a = gen::uniform(64, 64, 33);
        let cfg = CaluConfig::new(16)
            .with_threads(3)
            .with_fault(FaultPlan::off().panic_worker(0, 1));
        match calu_factor(&a, &cfg) {
            Err(CaluError::TaskPanic(msg)) => {
                assert!(msg.contains("injected"), "{msg}")
            }
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn stalled_worker_recovers_and_matches() {
        let a = gen::spd_uniform(64, 34);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let f0 = cholesky_factor(&a, &base).unwrap();
        let cfg = base
            .clone()
            .with_fault(FaultPlan::off().stall_worker(3, 2, 20));
        let f = cholesky_factor(&a, &cfg).unwrap();
        assert!(f0.lu.approx_eq(&f.lu, 0.0));
    }

    #[test]
    fn sharded_stats_attribute_every_task_once() {
        let a = gen::uniform(96, 96, 15);
        let cfg = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(1.0)
            .with_queue(QueueDiscipline::Sharded { seed: 9 });
        let Outcome {
            factorization: f,
            timeline: Some(tl),
            schedule: ScheduleMetrics { threads: stats, .. },
            ..
        } = factor_one(BatchItem::lu(Source::Dense(&a)).traced(true), &cfg).unwrap()
        else {
            panic!("a traced job has a timeline")
        };
        assert!(f.residual(&a) < 1e-12);
        let total: u64 = stats
            .iter()
            .map(|s| s.local_pops + s.global_pops + s.stolen_pops)
            .sum();
        assert_eq!(total as usize, tl.spans().len(), "one pop per span");
        assert_eq!(
            stats.iter().map(|s| s.local_pops).sum::<u64>(),
            0,
            "dratio 1.0 leaves nothing in the static queues"
        );
    }
}
