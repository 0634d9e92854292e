//! The discrete-event engine: executes a task graph on a machine model
//! under a scheduling policy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use calu_dag::{PaperKind, TaskGraph, TaskId};
use calu_matrix::{Layout, ProcessGrid};
use calu_sched::{
    make_policy_ordered, CpuTopology, Policy, QueueDiscipline, QueueSource, SchedulerKind,
    StealOrder,
};
use calu_trace::{SpanKind, TaskSpan, Timeline};

use crate::cache::{tile_key, TileCache};
use crate::cost::{
    dequeue_cost, kernel_eff, lu_nominal_flops, task_flops, task_tiles, task_written_tile,
    tile_bytes, total_flops,
};
use crate::machine::MachineConfig;
use crate::noise::NoiseProcess;
use crate::result::{CoreStats, SimResult};

/// Stride penalty of the column-major layout: a tile is spread over `m`-
/// long columns, so refills move more lines than the tile's payload.
const CM_BYTE_FACTOR: f64 = 1.4;

/// Coherence (dirty-line migration) cost relative to a remote refill,
/// charged when a tile's consecutive writers are different cores — "the
/// act of such dynamic migration of data has a significant cost" (§1).
const COHERENCE_FACTOR: f64 = 0.75;

/// One simulated experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine model.
    pub machine: MachineConfig,
    /// Data layout of the matrix (drives efficiency, homes and caching).
    pub layout: Layout,
    /// Scheduling policy.
    pub sched: SchedulerKind,
    /// Dynamic-section queue discipline (one shared queue vs. per-core
    /// shards with stealing); ignored by policies without a dynamic
    /// section.
    pub queue: QueueDiscipline,
    /// Thread grid for the block-cyclic distribution; its size must equal
    /// the machine's core count.
    pub grid: ProcessGrid,
    /// Maximum tiles grouped into one BLAS-3 call (3 for BCL as in §3).
    pub group_max: usize,
    /// Column-granular dynamic tasks: one dequeued unit updates a whole
    /// column (`for all I`, Algorithm 2 line 8) — the granularity of the
    /// paper's fully dynamic implementation, responsible for the early
    /// core drain of Figure 14.
    pub column_granular: bool,
    /// Record the full per-task timeline (memory-heavy for big runs).
    pub record_trace: bool,
    /// Direction of the lock-free discipline's tiered victim sweep —
    /// the adaptive controller's steal-order knob, modelled so the
    /// simulator sweeps victims in the same order the real executor
    /// would (steal *prices* still come from the victim's tier, so the
    /// order changes who is probed first, never what a steal costs).
    pub steal_order: StealOrder,
}

#[derive(Debug, PartialEq)]
struct HeapEv {
    t: f64,
    seq: u64,
    core: u32,
}

impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then(self.seq.cmp(&other.seq))
            .then(self.core.cmp(&other.core))
    }
}

struct Engine<'a> {
    g: &'a TaskGraph,
    cfg: &'a SimConfig,
    policy: Box<dyn Policy>,
    deps: Vec<u32>,
    caches: Vec<TileCache>,
    noise: Vec<NoiseProcess>,
    stats: Vec<CoreStats>,
    in_flight: Vec<Vec<TaskId>>,
    /// Last core that wrote each tile (`u32::MAX` = untouched).
    last_writer: Vec<u32>,
    idle: Vec<bool>,
    /// Cores retired by the injected loss: never dispatched again.
    dead: Vec<bool>,
    /// Tasks completed per core — the loss trigger's counter.
    done_tasks: Vec<u64>,
    heap: BinaryHeap<Reverse<HeapEv>>,
    seq: u64,
    timeline: Option<Timeline>,
    tile_buf: Vec<(usize, usize)>,
    noise_buf: Vec<(f64, f64)>,
}

impl<'a> Engine<'a> {
    fn new(g: &'a TaskGraph, cfg: &'a SimConfig) -> Self {
        let p = cfg.machine.cores();
        assert_eq!(
            cfg.grid.size(),
            p,
            "grid size must equal machine core count"
        );
        if let Some((lc, _)) = cfg.machine.lost_core {
            assert!(lc < p, "lost core {lc} outside the {p}-core machine");
            assert!(p > 1, "losing the only core leaves nothing to finish");
        }
        let cache_cap = if cfg.layout == Layout::ColumnMajor {
            cfg.machine.cache_tiles / 2
        } else {
            cfg.machine.cache_tiles
        };
        // the simulated machine's socket layout feeds the lock-free
        // discipline's tiered victim sweeps, so a simulated steal probes
        // same-socket victims before remote ones exactly like a real one
        let topo = CpuTopology::uniform(cfg.machine.sockets, cfg.machine.cores_per_socket);
        let policy = make_policy_ordered(cfg.sched, cfg.queue, cfg.steal_order, &topo, g, cfg.grid);
        Self {
            g,
            cfg,
            policy,
            deps: g.ids().map(|t| g.dep_count(t)).collect(),
            caches: (0..p).map(|_| TileCache::new(cache_cap)).collect(),
            noise: (0..p)
                .map(|c| NoiseProcess::new(&cfg.machine.noise, c))
                .collect(),
            stats: vec![CoreStats::default(); p],
            in_flight: vec![Vec::new(); p],
            last_writer: vec![u32::MAX; g.tile_rows() * g.tile_cols()],
            idle: vec![true; p],
            dead: vec![false; p],
            done_tasks: vec![0; p],
            heap: BinaryHeap::new(),
            seq: 0,
            timeline: cfg.record_trace.then(|| Timeline::new(p)),
            tile_buf: Vec::with_capacity(8),
            noise_buf: Vec::with_capacity(8),
        }
    }

    /// Home socket of a tile: the socket of its block-cyclic owner, or a
    /// page-interleaved pseudo-home for column-major storage.
    #[inline]
    fn home_socket(&self, ti: usize, tj: usize) -> usize {
        match self.cfg.layout {
            Layout::ColumnMajor => (ti + tj) % self.cfg.machine.sockets,
            _ => self.cfg.machine.socket_of(self.cfg.grid.owner(ti, tj)),
        }
    }

    /// Retire `core` after an injected loss: rescue its queued static
    /// tasks into the dynamic section (priced per task as scheduler
    /// overhead) and bar it from ever dispatching again. Returns how
    /// many tasks moved.
    fn retire(&mut self, core: usize) -> usize {
        self.dead[core] = true;
        self.idle[core] = false;
        let moved = self.policy.rescue(core);
        let st = &mut self.stats[core];
        st.lost = true;
        st.rescued = moved as u64;
        st.overhead += moved as f64 * self.cfg.machine.rescue_task_cost;
        moved
    }

    /// Try to hand `core` a batch at time `now`; returns true on success.
    fn dispatch(&mut self, core: usize, now: f64) -> bool {
        if self.dead[core] {
            return false;
        }
        let max = if self.cfg.column_granular {
            usize::MAX
        } else {
            self.cfg.group_max
        };
        let batch: Vec<_> = if max > 1 {
            self.policy.pop_batch(core, max)
        } else {
            self.policy.pop(core).into_iter().collect()
        };
        if batch.is_empty() {
            self.idle[core] = true;
            return false;
        }
        self.idle[core] = false;
        let m = &self.cfg.machine;

        // scheduler overhead: one dequeue per batch, priced per source
        // (and per steal locality) by the shared cost model
        let dq = dequeue_cost(m, batch[0].source, self.cfg.queue.is_lock_free());
        for popped in &batch {
            match popped.source {
                QueueSource::Local => self.stats[core].local_pops += 1,
                // shard pops are dynamic-section pops, same as global
                QueueSource::Global | QueueSource::Shard => self.stats[core].global_pops += 1,
                QueueSource::Stolen => self.stats[core].stolen_pops += 1,
                QueueSource::StolenRemote => {
                    self.stats[core].stolen_pops += 1;
                    self.stats[core].remote_stolen_pops += 1;
                }
            }
        }

        // memory: cache misses pay local/remote byte costs
        let socket = m.socket_of(core);
        let byte_factor = if self.cfg.layout == Layout::ColumnMajor {
            CM_BYTE_FACTOR
        } else {
            1.0
        };
        let mut mem = 0.0;
        let nt = self.g.tile_cols();
        for popped in &batch {
            let written = task_written_tile(self.g, popped.task);
            let mut tiles = std::mem::take(&mut self.tile_buf);
            task_tiles(self.g, popped.task, &mut tiles);
            for &(ti, tj) in &tiles {
                // dirty-line migration: the tile we are about to write was
                // last written by a different core -> coherence transfer,
                // regardless of what our own cache believes
                let migrated = written == Some((ti, tj)) && {
                    let lw = self.last_writer[ti * nt + tj];
                    lw != u32::MAX && lw != core as u32
                };
                let hit = self.caches[core].touch(tile_key(ti, tj)) && !migrated;
                if hit {
                    self.stats[core].cache_hits += 1;
                } else {
                    self.stats[core].cache_misses += 1;
                    let bytes = tile_bytes(self.g, ti, tj) * byte_factor;
                    if migrated {
                        mem += bytes * m.remote_byte_cost * COHERENCE_FACTOR;
                        self.stats[core].remote_bytes += bytes;
                    } else if self.home_socket(ti, tj) == socket {
                        mem += bytes * m.local_byte_cost;
                        self.stats[core].local_bytes += bytes;
                    } else {
                        mem += bytes * m.remote_byte_cost;
                        self.stats[core].remote_bytes += bytes;
                    }
                }
            }
            if let Some((ti, tj)) = written {
                self.last_writer[ti * nt + tj] = core as u32;
            }
            self.tile_buf = tiles;
        }

        // compute
        let flops: f64 = batch.iter().map(|pp| task_flops(self.g, pp.task)).sum();
        let first_kind = self.g.kind(batch[0].task);
        let eff = if self.g.variant() == calu_dag::DagVariant::GeppPanelSeq
            && matches!(first_kind, calu_dag::TaskKind::PanelFinish { .. })
        {
            // the vendor library's panel runs at its own calibrated rate
            m.gepp_panel_eff * m.eff_scale
        } else {
            kernel_eff(self.g, &first_kind, self.cfg.layout, batch.len()) * m.eff_scale
        };
        let compute = flops / (m.core_flops * m.core_speed(core) * eff);

        let busy = dq + mem + compute;
        let mut noise_spans = std::mem::take(&mut self.noise_buf);
        let end = self.noise[core].stretch(now, busy, &mut noise_spans);
        let noise_total: f64 = noise_spans.iter().map(|(_, d)| d).sum();

        let st = &mut self.stats[core];
        st.work += compute;
        st.memory += mem;
        st.overhead += dq;
        st.noise += noise_total;
        st.tasks += batch.len() as u64;
        st.batches += 1;

        if let Some(tl) = &mut self.timeline {
            let span_kind = match first_kind.paper_kind() {
                PaperKind::P => SpanKind::Panel,
                PaperKind::L => SpanKind::LFactor,
                PaperKind::U => SpanKind::UFactor,
                PaperKind::S => SpanKind::Update,
            };
            if dq > 0.0 {
                tl.push(TaskSpan {
                    core,
                    start: now,
                    end: now + dq,
                    kind: SpanKind::Overhead,
                });
            }
            // work interleaved with noise preemptions
            let mut cur = now + dq;
            for &(at, d) in &noise_spans {
                if at > cur {
                    tl.push(TaskSpan {
                        core,
                        start: cur,
                        end: at,
                        kind: span_kind,
                    });
                }
                tl.push(TaskSpan {
                    core,
                    start: at,
                    end: at + d,
                    kind: SpanKind::Noise,
                });
                cur = at + d;
            }
            if end > cur {
                tl.push(TaskSpan {
                    core,
                    start: cur,
                    end,
                    kind: span_kind,
                });
            }
        }
        noise_spans.clear();
        self.noise_buf = noise_spans;

        self.in_flight[core] = batch.into_iter().map(|pp| pp.task).collect();
        self.seq += 1;
        self.heap.push(Reverse(HeapEv {
            t: end,
            seq: self.seq,
            core: core as u32,
        }));
        true
    }

    fn run(mut self) -> SimResult {
        let total = self.g.len();
        let p = self.cfg.machine.cores();
        for t in self.g.initial_ready() {
            self.policy.on_ready(t, None);
        }
        // a loss "after 0 tasks" fires before the core ever runs
        if let Some((lc, 0)) = self.cfg.machine.lost_core {
            self.retire(lc);
        }
        for core in 0..p {
            self.dispatch(core, 0.0);
        }
        let mut completed = 0usize;
        let mut makespan = 0.0f64;
        while completed < total {
            let Some(Reverse(ev)) = self.heap.pop() else {
                panic!(
                    "simulator deadlock: {completed}/{total} tasks done, {} queued",
                    self.policy.queued()
                );
            };
            let now = ev.t;
            makespan = makespan.max(now);
            let core = ev.core as usize;
            let batch = std::mem::take(&mut self.in_flight[core]);
            let mut newly_ready = false;
            self.done_tasks[core] += batch.len() as u64;
            for t in batch {
                completed += 1;
                for &s in self.g.successors(t) {
                    self.deps[s.idx()] -= 1;
                    if self.deps[s.idx()] == 0 {
                        self.policy.on_ready(s, Some(core));
                        newly_ready = true;
                    }
                }
            }
            // the injected loss fires at this completion boundary, like
            // the real executor's worker retiring between tasks; rescued
            // tasks become servable by everyone else, so wake the idle
            if let Some((lc, after)) = self.cfg.machine.lost_core {
                if lc == core && !self.dead[core] && self.done_tasks[core] >= after {
                    self.retire(core);
                    newly_ready = true;
                }
            }
            self.dispatch(core, now);
            if newly_ready {
                for c in 0..p {
                    if self.idle[c] {
                        self.dispatch(c, now);
                    }
                }
            }
        }
        let nominal_flops = match self.g.variant() {
            calu_dag::DagVariant::TileCholesky => {
                crate::cost::cholesky_nominal_flops(self.g.rows())
            }
            _ => lu_nominal_flops(self.g.rows(), self.g.cols()),
        };
        SimResult {
            makespan,
            executed_flops: total_flops(self.g),
            nominal_flops,
            cores: self.stats,
            timeline: self.timeline,
            tasks: total,
        }
    }
}

/// Run one simulated factorization of `g` under `cfg`.
pub fn run(g: &TaskGraph, cfg: &SimConfig) -> SimResult {
    Engine::new(g, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NoiseConfig;
    use crate::result::tests::{cache_hit_rate, gflops, remote_bytes, utilization};
    use calu_dag::TaskGraph;

    /// Canonical configuration: near-square grid over all cores,
    /// grouping `k = 3` iff the layout supports it (§3: "with k = 3").
    pub(super) fn config(
        machine: MachineConfig,
        layout: Layout,
        sched: SchedulerKind,
    ) -> SimConfig {
        let grid = ProcessGrid::square_for(machine.cores()).expect("non-empty machine");
        let group_max = if layout.supports_grouping() { 3 } else { 1 };
        SimConfig {
            machine,
            layout,
            sched,
            queue: QueueDiscipline::Global,
            grid,
            group_max,
            column_granular: false,
            record_trace: false,
            steal_order: StealOrder::default(),
        }
    }

    fn intel(sched: SchedulerKind) -> SimConfig {
        config(
            MachineConfig::intel_xeon_16(NoiseConfig::off()),
            Layout::BlockCyclic,
            sched,
        )
    }

    #[test]
    fn executes_all_tasks() {
        let g = TaskGraph::build(1000, 1000, 100);
        for sched in [
            SchedulerKind::Static,
            SchedulerKind::Dynamic,
            SchedulerKind::Hybrid { dratio: 0.2 },
            SchedulerKind::WorkStealing { seed: 1 },
        ] {
            let r = run(&g, &intel(sched));
            let total: u64 = r.cores.iter().map(|c| c.tasks).sum();
            assert_eq!(total as usize, g.len(), "{sched:?}");
            assert!(r.makespan > 0.0);
            assert!(gflops(&r) > 0.0);
        }
    }

    /// The deletion of the separate static and dynamic policy types
    /// rests on this: the two classical schedulers are the hybrid
    /// policy's ends, bit for bit — under noise (so every stretch and
    /// pop order matters) and with grouping on (so `pop_batch` is
    /// exercised), on both machine presets.
    #[test]
    fn static_and_dynamic_are_the_hybrid_policys_two_ends() {
        let g = TaskGraph::build_calu(1200, 1200, 100, 4);
        for machine in [
            MachineConfig::intel_xeon_16(NoiseConfig::os_daemons(7)),
            MachineConfig::amd_opteron_48(NoiseConfig::os_daemons(7)),
        ] {
            let sim = |sched| {
                let mut cfg = config(machine.clone(), Layout::BlockCyclic, sched);
                assert!(cfg.group_max > 1, "BCL groups updates");
                cfg.record_trace = true;
                run(&g, &cfg)
            };
            for (end, dratio) in [(SchedulerKind::Static, 0.0), (SchedulerKind::Dynamic, 1.0)] {
                let (a, b) = (sim(end), sim(SchedulerKind::Hybrid { dratio }));
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{end:?}");
                assert_eq!(a.cores, b.cores, "{end:?}");
                assert_eq!(
                    a.timeline.unwrap().spans(),
                    b.timeline.unwrap().spans(),
                    "{end:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = TaskGraph::build(800, 800, 100);
        let cfg = intel(SchedulerKind::Hybrid { dratio: 0.1 });
        let a = run(&g, &cfg);
        let b = run(&g, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn sharded_discipline_executes_all_tasks_and_steals() {
        let g = TaskGraph::build(1500, 1500, 100);
        let cfg = SimConfig {
            queue: QueueDiscipline::Sharded { seed: 3 },
            ..intel(SchedulerKind::Hybrid { dratio: 0.5 })
        };
        let r = run(&g, &cfg);
        let total: u64 = r.cores.iter().map(|c| c.tasks).sum();
        assert_eq!(total as usize, g.len());
        let stolen: u64 = r.cores.iter().map(|c| c.stolen_pops).sum();
        assert!(stolen > 0, "a 16-core sharded run must steal at least once");
        // same DAG under the Global discipline never steals
        let rg = run(&g, &intel(SchedulerKind::Hybrid { dratio: 0.5 }));
        assert_eq!(rg.cores.iter().map(|c| c.stolen_pops).sum::<u64>(), 0);
    }

    #[test]
    fn lockfree_discipline_executes_all_tasks_and_classifies_steals() {
        let g = TaskGraph::build(1500, 1500, 100);
        let cfg = SimConfig {
            queue: QueueDiscipline::LockFree { seed: 3 },
            ..intel(SchedulerKind::Hybrid { dratio: 0.5 })
        };
        let r = run(&g, &cfg);
        let total: u64 = r.cores.iter().map(|c| c.tasks).sum();
        assert_eq!(total as usize, g.len());
        let stolen: u64 = r.cores.iter().map(|c| c.stolen_pops).sum();
        let remote: u64 = r.cores.iter().map(|c| c.remote_stolen_pops).sum();
        assert!(stolen > 0, "a 16-core lock-free run must steal");
        assert!(remote <= stolen, "remote steals are a subset");
        // determinism: same seed, same schedule
        let r2 = run(&g, &cfg);
        assert_eq!(r.makespan, r2.makespan);
        assert_eq!(r.cores, r2.cores);
        // the flat sharded sweep never classifies a steal as remote
        let sh = run(
            &g,
            &SimConfig {
                queue: QueueDiscipline::Sharded { seed: 3 },
                ..intel(SchedulerKind::Hybrid { dratio: 0.5 })
            },
        );
        assert_eq!(
            sh.cores.iter().map(|c| c.remote_stolen_pops).sum::<u64>(),
            0
        );
    }

    #[test]
    fn remote_steals_cost_more_on_numa_heavy_machines() {
        use crate::cost::dequeue_cost;
        let amd = MachineConfig::amd_opteron_48(NoiseConfig::off());
        let intel = MachineConfig::intel_xeon_16(NoiseConfig::off());
        for m in [&amd, &intel] {
            assert!(
                dequeue_cost(m, QueueSource::StolenRemote, true)
                    > dequeue_cost(m, QueueSource::Stolen, true)
            );
        }
        // the AMD interconnect premium dwarfs the Intel one in absolute terms
        let premium = |m: &MachineConfig| {
            dequeue_cost(m, QueueSource::StolenRemote, true)
                - dequeue_cost(m, QueueSource::Stolen, true)
        };
        assert!(premium(&amd) > premium(&intel));
    }

    #[test]
    fn makespan_at_least_ideal_time() {
        let g = TaskGraph::build(1200, 1200, 100);
        let cfg = intel(SchedulerKind::Hybrid { dratio: 0.1 });
        let r = run(&g, &cfg);
        // perfect machine bound: executed flops at peak with no overheads
        let ideal = r.executed_flops / cfg.machine.peak_flops();
        assert!(
            r.makespan > ideal,
            "makespan {} cannot beat ideal {}",
            r.makespan,
            ideal
        );
        // and utilization cannot exceed 1
        assert!(utilization(&r) <= 1.0);
    }

    #[test]
    fn more_cores_help() {
        let g = TaskGraph::build(2000, 2000, 100);
        let amd48 = config(
            MachineConfig::amd_opteron_48(NoiseConfig::off()),
            Layout::BlockCyclic,
            SchedulerKind::Hybrid { dratio: 0.1 },
        );
        let amd24 = config(
            MachineConfig::amd_opteron_with_cores(24, NoiseConfig::off()),
            Layout::BlockCyclic,
            SchedulerKind::Hybrid { dratio: 0.1 },
        );
        let r48 = run(&g, &amd48);
        let r24 = run(&g, &amd24);
        assert!(r48.makespan < r24.makespan, "48 cores must beat 24");
    }

    #[test]
    fn trace_recording_matches_makespan() {
        let g = TaskGraph::build(600, 600, 100);
        let cfg = SimConfig {
            record_trace: true,
            ..intel(SchedulerKind::Static)
        };
        let r = run(&g, &cfg);
        let tl = r.timeline.as_ref().expect("trace requested");
        assert!((tl.makespan() - r.makespan).abs() < 1e-9);
        assert!(tl.spans().len() >= g.len() / 3, "spans recorded per batch");
    }

    #[test]
    fn noise_slows_static_more_than_hybrid() {
        let g = TaskGraph::build_calu(4000, 4000, 100, 4);
        let noise = NoiseConfig {
            rate_hz: 50.0,
            mean_duration: 1e-3,
            seed: 11,
        };
        let mk = |sched| {
            config(
                MachineConfig::intel_xeon_16(noise),
                Layout::BlockCyclic,
                sched,
            )
        };
        let stat = run(&g, &mk(SchedulerKind::Static));
        let hyb = run(&g, &mk(SchedulerKind::Hybrid { dratio: 0.2 }));
        assert!(
            hyb.makespan < stat.makespan,
            "hybrid {} must absorb noise better than static {}",
            hyb.makespan,
            stat.makespan
        );
    }

    #[test]
    fn dynamic_migrates_more_data_than_static() {
        let g = TaskGraph::build(1600, 1600, 100);
        let stat = run(&g, &intel(SchedulerKind::Static));
        let dynamic = run(&g, &intel(SchedulerKind::Dynamic));
        assert!(
            remote_bytes(&dynamic) > remote_bytes(&stat),
            "dynamic scheduling must move more remote data"
        );
        assert!(cache_hit_rate(&dynamic) < cache_hit_rate(&stat));
    }

    #[test]
    #[should_panic(expected = "grid size")]
    fn grid_must_match_machine() {
        let g = TaskGraph::build(400, 400, 100);
        let mut cfg = intel(SchedulerKind::Static);
        cfg.grid = ProcessGrid::new(2, 2).unwrap();
        run(&g, &cfg);
    }
}

#[cfg(test)]
mod slow_core_tests {
    use super::tests::config;
    use super::*;
    use crate::machine::NoiseConfig;
    use calu_dag::TaskGraph;

    #[test]
    fn slow_core_hurts_static_more_than_hybrid() {
        // one core at 40% speed: the static schedule convoys behind it,
        // the hybrid re-routes around it through the dynamic queue
        let g = TaskGraph::build_calu(3000, 3000, 100, 4);
        let mut mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
        mach.slow_core = Some((5, 0.4));
        let mk = |sched| config(mach.clone(), Layout::BlockCyclic, sched);
        let stat = run(&g, &mk(SchedulerKind::Static));
        let hyb = run(&g, &mk(SchedulerKind::Hybrid { dratio: 0.2 }));
        let dynamic = run(&g, &mk(SchedulerKind::Dynamic));
        assert!(
            hyb.makespan < stat.makespan,
            "hybrid must absorb the slow core"
        );
        // and the slowdown vs the healthy machine is bounded for dynamic
        let healthy = run(
            &TaskGraph::build_calu(3000, 3000, 100, 4),
            &config(
                MachineConfig::intel_xeon_16(NoiseConfig::off()),
                Layout::BlockCyclic,
                SchedulerKind::Dynamic,
            ),
        );
        assert!(dynamic.makespan < healthy.makespan * 1.35);
    }

    #[test]
    fn lost_core_is_rescued_and_every_task_still_executes() {
        let g = TaskGraph::build_calu(2000, 2000, 100, 4);
        // fully static scheduling is the hybrid policy's `Nstatic = N`
        // end, so its lost core is rescued by the same code
        for sched in [SchedulerKind::Hybrid { dratio: 0.2 }, SchedulerKind::Static] {
            let mut mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
            // crawl first so ready static work piles up in the doomed
            // core's queue, then lose it: the rescue has something to move
            mach.slow_core = Some((3, 0.05));
            mach.lost_core = Some((3, 10));
            let cfg = config(mach, Layout::BlockCyclic, sched);
            let r = run(&g, &cfg);
            let total: u64 = r.cores.iter().map(|c| c.tasks).sum();
            assert_eq!(total as usize, g.len(), "no task left behind");
            assert!(r.cores[3].lost, "the lost core is flagged");
            assert!(
                r.cores[3].rescued > 0,
                "a backlogged loss leaves queued static tasks to rescue"
            );
            assert!(
                r.cores[3].overhead >= r.cores[3].rescued as f64 * cfg.machine.rescue_task_cost,
                "each rescued task is priced as overhead"
            );
            assert!(
                (10..10 + 3).contains(&r.cores[3].tasks),
                "the core stops at the first completion boundary past its \
                 threshold (its last batch may overshoot by up to group_max), \
                 got {} tasks",
                r.cores[3].tasks
            );
            assert!(r.cores.iter().enumerate().all(|(c, s)| s.lost == (c == 3)));
            // degraded but correct: slower than the healthy run, and
            // deterministic for replay
            let healthy = run(
                &g,
                &config(
                    MachineConfig::intel_xeon_16(NoiseConfig::off()),
                    Layout::BlockCyclic,
                    sched,
                ),
            );
            assert!(r.makespan > healthy.makespan, "15 cores cannot beat 16");
            let again = run(&g, &cfg);
            assert_eq!(r.makespan, again.makespan);
            assert_eq!(r.cores, again.cores);
        }
    }

    #[test]
    fn a_core_lost_before_its_first_task_never_runs() {
        let g = TaskGraph::build_calu(1200, 1200, 100, 4);
        for sched in [SchedulerKind::Hybrid { dratio: 0.2 }, SchedulerKind::Static] {
            let mut mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
            mach.lost_core = Some((0, 0));
            let r = run(&g, &config(mach, Layout::BlockCyclic, sched));
            assert_eq!(r.cores[0].tasks, 0, "{sched:?}");
            assert!(r.cores[0].lost);
            let total: u64 = r.cores.iter().map(|c| c.tasks).sum();
            assert_eq!(total as usize, g.len(), "{sched:?}");
        }
    }

    #[test]
    fn slow_core_speed_lookup() {
        let mut mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
        assert_eq!(mach.core_speed(3), 1.0);
        mach.slow_core = Some((3, 0.5));
        assert_eq!(mach.core_speed(3), 0.5);
        assert_eq!(mach.core_speed(4), 1.0);
    }
}
