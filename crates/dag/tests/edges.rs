//! Edge goldens: every builder's graph, hashed.
//!
//! For each variant and shape the hash covers the task count, every
//! task's `dep_count` and the successor CSR (each task's successor list,
//! in order). The values were computed from the hand-written predecessor
//! lists the builders had before the edges were inferred from the access
//! table, so a pass here means the inferred DAG is the same graph with
//! the same successor order, and the simulator's release order with it.

use calu_dag::TaskGraph;

/// FNV-1a over the graph's structure.
fn edge_hash(g: &TaskGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(g.len() as u64);
    for t in g.ids() {
        eat(u64::from(g.dep_count(t)));
    }
    for t in g.ids() {
        let succ = g.successors(t);
        eat(succ.len() as u64);
        for s in succ {
            eat(u64::from(s.0));
        }
    }
    h
}

/// `(m, n, b)`: the Fig. 3 case, tall, wide, ragged and narrow-ragged
/// grids, then the workload shapes (`lu_fine`, `lu_large`, `lu_tall`,
/// `lu_degraded`, `chol_large`).
const SHAPES: [(usize, usize, usize); 10] = [
    (400, 400, 100),
    (1000, 300, 100),
    (300, 1000, 100),
    (250, 430, 100),
    (999, 70, 32),
    (1024, 1024, 16),
    (2000, 2000, 100),
    (16384, 256, 64),
    (1536, 1536, 64),
    (2048, 2048, 64),
];

/// Cholesky's `(n, b)`: the leading square of each shape above.
const CHOLESKY: [(usize, usize); 9] = [
    (400, 100),
    (300, 100),
    (250, 100),
    (70, 32),
    (1024, 16),
    (2000, 100),
    (256, 64),
    (1536, 64),
    (2048, 64),
];

/// Every graph of the sweep with its label: CALU at leaf strides
/// 1, 2, 3, 4 and `mt` (one leaf per tile row), GEPP and incpiv on each
/// shape, and Cholesky.
fn sweep() -> Vec<(String, TaskGraph)> {
    let mut out = Vec::new();
    for (m, n, b) in SHAPES {
        let mut strides = vec![1, 2, 3, 4, m.div_ceil(b)];
        strides.sort_unstable();
        strides.dedup();
        for stride in strides {
            out.push((
                format!("calu {m}x{n}/{b} stride {stride}"),
                TaskGraph::build_calu(m, n, b, stride),
            ));
        }
        out.push((format!("gepp {m}x{n}/{b}"), TaskGraph::build_gepp(m, n, b)));
        out.push((
            format!("incpiv {m}x{n}/{b}"),
            TaskGraph::build_incpiv(m, n, b),
        ));
    }
    for (n, b) in CHOLESKY {
        out.push((format!("cholesky {n}/{b}"), TaskGraph::build_cholesky(n, b)));
    }
    out
}

/// FNV-1a of each graph of [`sweep`], from the hand-written builders.
const GOLDEN: &[(&str, u64)] = &[
    ("calu 400x400/100 stride 1", 0x6dd1f8b9fd75a3ba),
    ("calu 400x400/100 stride 2", 0xe3b2ae06a0facb3e),
    ("calu 400x400/100 stride 3", 0xa13f69a171d26156),
    ("calu 400x400/100 stride 4", 0xe5fd97c92160d312),
    ("gepp 400x400/100", 0xc6f77b66afe83016),
    ("incpiv 400x400/100", 0x12424973846da95b),
    ("calu 1000x300/100 stride 1", 0x739ae4b2319b9310),
    ("calu 1000x300/100 stride 2", 0x5af4fd525802bb62),
    ("calu 1000x300/100 stride 3", 0x2e2c659fd71ef590),
    ("calu 1000x300/100 stride 4", 0x6a1a41d0f217c44a),
    ("calu 1000x300/100 stride 10", 0x088ed92e6bc3f16c),
    ("gepp 1000x300/100", 0x359dd072b7ef794c),
    ("incpiv 1000x300/100", 0xbea087a42c8c91ce),
    ("calu 300x1000/100 stride 1", 0x3573a072b4543c74),
    ("calu 300x1000/100 stride 2", 0xcecffa6ab776c071),
    ("calu 300x1000/100 stride 3", 0x4dcad4d0da16e971),
    ("calu 300x1000/100 stride 4", 0x4dcad4d0da16e971),
    ("gepp 300x1000/100", 0xa633b6f01c6fa4e9),
    ("incpiv 300x1000/100", 0x392d2248d25ccd17),
    ("calu 250x430/100 stride 1", 0x6a7a944117ab958d),
    ("calu 250x430/100 stride 2", 0xd83c52f804c98b5c),
    ("calu 250x430/100 stride 3", 0xdecd1bf0e36c18f0),
    ("calu 250x430/100 stride 4", 0xdecd1bf0e36c18f0),
    ("gepp 250x430/100", 0x97ba511a2ed9494f),
    ("incpiv 250x430/100", 0xb23980d4a8120f16),
    ("calu 999x70/32 stride 1", 0xa8ce75fc00cecedb),
    ("calu 999x70/32 stride 2", 0x821438bc9fedd121),
    ("calu 999x70/32 stride 3", 0x7c439e2f07df349b),
    ("calu 999x70/32 stride 4", 0x1726621f205cd4e3),
    ("calu 999x70/32 stride 32", 0xbf475b0b248e4b70),
    ("gepp 999x70/32", 0xa622b81b3b3d8959),
    ("incpiv 999x70/32", 0xd7bfc11c8e4f1bc4),
    ("calu 1024x1024/16 stride 1", 0xcf481767e0daf113),
    ("calu 1024x1024/16 stride 2", 0xe316483966d95244),
    ("calu 1024x1024/16 stride 3", 0x8ce946d268bef91f),
    ("calu 1024x1024/16 stride 4", 0xd650859557036214),
    ("calu 1024x1024/16 stride 64", 0xef8cfd59f3db9c73),
    ("gepp 1024x1024/16", 0x5c3e4b5c075228b6),
    ("incpiv 1024x1024/16", 0x6e6d603e72da486c),
    ("calu 2000x2000/100 stride 1", 0x52c3335e17e45943),
    ("calu 2000x2000/100 stride 2", 0xd6223c26629c1aca),
    ("calu 2000x2000/100 stride 3", 0xeef7b85ba918de17),
    ("calu 2000x2000/100 stride 4", 0x79a3d37039db76a7),
    ("calu 2000x2000/100 stride 20", 0x53a795dcbed5e481),
    ("gepp 2000x2000/100", 0x8c960b8bbdfaed09),
    ("incpiv 2000x2000/100", 0xd1058c0ff6924300),
    ("calu 16384x256/64 stride 1", 0xaadd4483de5749e8),
    ("calu 16384x256/64 stride 2", 0x4e20b2a45c03e8c6),
    ("calu 16384x256/64 stride 3", 0xb36654470c61fb2e),
    ("calu 16384x256/64 stride 4", 0x330208cf7a8b4ab2),
    ("calu 16384x256/64 stride 256", 0x5b45460e2e5dbd25),
    ("gepp 16384x256/64", 0xbf037e7c0553e32a),
    ("incpiv 16384x256/64", 0xc862c315b3ceeb83),
    ("calu 1536x1536/64 stride 1", 0x14e76a42afbfca67),
    ("calu 1536x1536/64 stride 2", 0x6d9443f4c1a3ecca),
    ("calu 1536x1536/64 stride 3", 0x0546f603c57f4e95),
    ("calu 1536x1536/64 stride 4", 0xc07a3b19dc0a2bbb),
    ("calu 1536x1536/64 stride 24", 0x60e16f3f97125b21),
    ("gepp 1536x1536/64", 0x4278131de4dc5289),
    ("incpiv 1536x1536/64", 0xd1f2f55de02bdd1a),
    ("calu 2048x2048/64 stride 1", 0xa28613c8db2f62e7),
    ("calu 2048x2048/64 stride 2", 0xfbe68c479dedee91),
    ("calu 2048x2048/64 stride 3", 0x3884f9ffa27a1f52),
    ("calu 2048x2048/64 stride 4", 0xeaffd359f566906a),
    ("calu 2048x2048/64 stride 32", 0xa25ee3c48c02e6bd),
    ("gepp 2048x2048/64", 0xd2066bbeba5d2f18),
    ("incpiv 2048x2048/64", 0x3b1b5ece51074a64),
    ("cholesky 400/100", 0xc476c8f52603a7df),
    ("cholesky 300/100", 0xb011bf30cf493125),
    ("cholesky 250/100", 0xb011bf30cf493125),
    ("cholesky 70/32", 0xb011bf30cf493125),
    ("cholesky 1024/16", 0x56a6a88ad30252f5),
    ("cholesky 2000/100", 0x067c102cfb297c92),
    ("cholesky 256/64", 0xc476c8f52603a7df),
    ("cholesky 1536/64", 0x5b8747b6b5643841),
    ("cholesky 2048/64", 0x6da33b53c8358fc2),
];

#[test]
fn edges_match_the_hand_builders() {
    let graphs = sweep();
    assert_eq!(graphs.len(), GOLDEN.len());
    let wrong: Vec<&str> = graphs
        .iter()
        .zip(GOLDEN)
        .filter(|((name, g), &(want_name, want))| {
            assert_eq!(name, want_name);
            edge_hash(g) != want
        })
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(wrong.is_empty(), "edges moved: {wrong:?}");
}
