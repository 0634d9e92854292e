//! Discrete-event multicore/NUMA machine simulator.
//!
//! The paper's evaluation ran on two real machines — a 16-core Intel Xeon
//! (4 sockets × 4 cores, 85.3 Gflop/s peak) and a 48-core AMD Opteron
//! NUMA box (8 sockets × 6 cores, 539.5 Gflop/s peak). This reproduction
//! runs on whatever host executes the tests, so the machines are rebuilt
//! as *models*: a deterministic discrete-event simulator that executes
//! the real task DAG under the real scheduling policies and prices each
//! task with
//!
//! ```text
//! t(task) = flops / (core_rate · eff(kind, layout, batch))   — compute
//!         + Σ_tiles miss(tile) · bytes · byte_cost(home, socket)  — memory
//!         + dequeue(queue source, contention)                 — scheduler
//!         + OS noise (Poisson excess work, §6's δ)            — noise
//! ```
//!
//! Locality is not hand-waved: every tile has a NUMA *home* (the socket
//! of its block-cyclic owner; page-interleaved for the CM layout), every
//! core has an LRU tile cache, and remote misses cost more than local
//! ones. Static scheduling therefore exhibits cache reuse and NUMA
//! affinity *emergently*, dynamic scheduling migrates data and pays for
//! it, and the hybrid splits the difference — the paper's entire
//! qualitative story falls out of the event loop.
//!
//! Everything is seeded and deterministic; the same
//! [`SimConfig`] always yields the same [`SimResult`].

mod cache;
pub mod cost;
mod engine;
mod machine;
mod noise;
mod result;

pub use engine::{run, SimConfig};
pub use machine::{machine_topology, MachineConfig, NoiseConfig};
pub use result::SimResult;
