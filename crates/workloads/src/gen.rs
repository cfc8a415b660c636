//! Deterministic trace generation from a [`WorkloadSpec`].
//!
//! One [`TraceGen`] produces an interleaved multicore access stream:
//! per batch, every node issues one instruction-fetch event (representing a
//! handful of instructions) plus the corresponding data accesses. All
//! randomness comes from per-node [`SimRng`] streams derived from the master
//! seed, so a `(spec, nodes, seed)` triple always yields the identical trace.
//!
//! See [`crate::spec`] for the hot/warm/cold mixture model the generator
//! implements.

use d2m_common::addr::{Asid, NodeId, VAddr, LINE_SHIFT};
use d2m_common::rng::{SimRng, Zipf};

use crate::spec::{Sharing, WorkloadSpec};

/// Kind of memory access issued by a core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Instruction fetch (L1-I side).
    IFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// True for instruction fetches.
    pub fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::IFetch)
    }

    /// True for stores.
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// One memory access of the interleaved trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Issuing node.
    pub node: NodeId,
    /// Address space of the access.
    pub asid: Asid,
    /// Fetch / load / store.
    pub kind: AccessKind,
    /// Virtual address.
    pub vaddr: VAddr,
}

/// Virtual segment bases. Segments are far apart so footprints never overlap.
const CODE_BASE: u64 = 0x0010_0000;
const SHARED_BASE: u64 = 0x4000_0000;
const PRIVATE_BASE: u64 = 0x1_0000_0000;
const PRIVATE_STRIDE: u64 = 0x4000_0000;
/// Lines per migratory/producer-consumer chunk (4 regions).
const CHUNK_LINES: u64 = 64;
/// Lines per metadata region.
const REGION_LINES: u64 = 16;

#[derive(Clone, Debug)]
struct NodeGen {
    rng: SimRng,
    pc: u64,
    scan_pos: u64,
    scan_dwell: u8,
    cold_region: u64,
}

/// The Zipf samplers a spec draws from, one per `(n, s)` pair, built once
/// per generator so no draw recomputes a normalizer.
#[derive(Clone, Debug)]
struct Samplers {
    /// Hot code lines.
    hot_code: Zipf,
    /// Cold code regions.
    code_regions: Zipf,
    /// Hot private data lines.
    hot_data: Zipf,
    /// Warm private data regions.
    warm_regions: Zipf,
    /// Shared region (read-shared) or per-node chunk rank (migratory,
    /// producer-consumer).
    shared_rank: Zipf,
    /// Line within the shared region or chunk.
    shared_line: Zipf,
}

impl Samplers {
    fn new(spec: &WorkloadSpec, node_count: usize) -> Self {
        let (ranks, lines) = match spec.sharing {
            Sharing::Migratory | Sharing::ProducerConsumer => {
                let nodes = node_count as u64;
                let chunks = (spec.shared_lines / CHUNK_LINES).max(nodes);
                ((chunks / nodes).max(1), CHUNK_LINES)
            }
            Sharing::None | Sharing::ReadShared => {
                ((spec.shared_lines / REGION_LINES).max(1), REGION_LINES)
            }
        };
        Self {
            hot_code: Zipf::new(spec.hot_code_lines, 1.0),
            code_regions: Zipf::new((spec.code_lines / REGION_LINES).max(1), 1.15),
            hot_data: Zipf::new(spec.hot_lines, 0.6),
            // `validate` allows an empty warm set only when it is never drawn.
            warm_regions: Zipf::new(spec.warm_regions.max(1), 0.45),
            shared_rank: Zipf::new(ranks, spec.data_zipf + 0.3),
            shared_line: Zipf::new(lines, 1.5),
        }
    }
}

/// Deterministic interleaved trace generator (see module docs).
#[derive(Clone, Debug)]
pub struct TraceGen {
    spec: WorkloadSpec,
    zipf: Samplers,
    nodes: Vec<NodeGen>,
    batches: u64,
}

impl TraceGen {
    /// Creates a generator for `spec` over `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] or `node_count`
    /// is zero or exceeds 8.
    pub fn new(spec: &WorkloadSpec, node_count: usize, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        assert!((1..=8).contains(&node_count));
        let nodes = (0..node_count)
            .map(|n| {
                let mut rng =
                    SimRng::from_label(seed, &format!("workload/{}/node{}", spec.name, n));
                let pc = rng.below(spec.hot_code_lines);
                let scan_pos = rng.below(spec.private_lines);
                let cold_region = rng.below((spec.private_lines / REGION_LINES).max(1));
                NodeGen {
                    rng,
                    pc,
                    scan_pos,
                    scan_dwell: 0,
                    cold_region,
                }
            })
            .collect();
        Self {
            spec: spec.clone(),
            zipf: Samplers::new(spec, node_count),
            nodes,
            batches: 0,
        }
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Current migratory epoch (advances every `migratory_epoch` batches).
    fn epoch(&self) -> u64 {
        self.batches / self.spec.migratory_epoch.max(1)
    }

    /// Generates one batch: every node issues one fetch event plus its data
    /// accesses. Appends to `out` and returns the number of instructions the
    /// batch represents.
    pub fn next_batch(&mut self, out: &mut Vec<Access>) -> u64 {
        let epoch = self.epoch();
        let spec = &self.spec;
        let zipf = &self.zipf;
        let node_count = self.nodes.len();
        let mut insts_total = 0u64;
        for (n, st) in self.nodes.iter_mut().enumerate() {
            let node = NodeId::new(n as u8);
            let asid = if spec.multiprogrammed {
                Asid(n as u16 + 1)
            } else {
                Asid(0)
            };

            // --- instruction fetch ---
            let base_insts = spec.insts_per_fetch.floor() as u64;
            let frac = spec.insts_per_fetch - base_insts as f64;
            let insts = base_insts + u64::from(st.rng.chance(frac));
            insts_total += insts;
            if st.rng.chance(spec.jump_prob) {
                st.pc = if st.rng.chance(spec.p_hot_code) {
                    zipf.hot_code.sample(&mut st.rng)
                } else {
                    // Cold code: region-granular pick keeps basic blocks
                    // spatially clustered.
                    let r = zipf.code_regions.sample(&mut st.rng);
                    (r * REGION_LINES + st.rng.below(REGION_LINES)) % spec.code_lines
                };
            } else {
                st.pc = (st.pc + 1) % spec.code_lines;
            }
            out.push(Access {
                node,
                asid,
                kind: AccessKind::IFetch,
                vaddr: VAddr::new(CODE_BASE + (st.pc << LINE_SHIFT)),
            });

            // --- data accesses ---
            let expect = insts as f64 * spec.mem_op_frac;
            let mut n_mem = expect.floor() as u64;
            if st.rng.chance(expect - n_mem as f64) {
                n_mem += 1;
            }
            for _ in 0..n_mem {
                let access = if spec.shared_frac > 0.0 && st.rng.chance(spec.shared_frac) {
                    Self::shared_access(spec, zipf, st, node, asid, epoch, node_count)
                } else {
                    Self::private_access(spec, zipf, st, node, asid, n)
                };
                out.push(access);
            }
        }
        self.batches += 1;
        insts_total
    }

    /// Hot/warm/cold mixture with optional strided scans (see module docs).
    fn private_access(
        spec: &WorkloadSpec,
        zipf: &Samplers,
        st: &mut NodeGen,
        node: NodeId,
        asid: Asid,
        n: usize,
    ) -> Access {
        let line = if spec.stride_frac > 0.0 && st.rng.chance(spec.stride_frac) {
            // Streaming kernels touch several elements per 64 B line before
            // the scan advances (dwell ≈ 6 accesses/line).
            if st.scan_dwell == 0 {
                st.scan_pos = (st.scan_pos + spec.stride_lines) % spec.private_lines;
                st.scan_dwell = 5;
            } else {
                st.scan_dwell -= 1;
            }
            st.scan_pos
        } else if st.rng.chance(spec.p_hot) {
            zipf.hot_data.sample(&mut st.rng)
        } else if st.rng.chance(spec.p_warm / (1.0 - spec.p_hot).max(1e-9)) {
            // Warm: region-granular (spatial locality inside 1 KB regions).
            let region = zipf.warm_regions.sample(&mut st.rng);
            let line = spec.hot_lines + region * REGION_LINES + st.rng.below(REGION_LINES);
            line % spec.private_lines
        } else {
            // Cold: uniform over the whole footprint, in short region bursts
            // (page-level spatial locality survives even in cold tails).
            if st.rng.chance(0.25) {
                st.cold_region = st.rng.below((spec.private_lines / REGION_LINES).max(1));
            }
            (st.cold_region * REGION_LINES + st.rng.below(REGION_LINES)) % spec.private_lines
        };
        let base = PRIVATE_BASE + n as u64 * PRIVATE_STRIDE;
        let kind = if st.rng.chance(spec.write_frac) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        Access {
            node,
            asid,
            kind,
            vaddr: VAddr::new(base + (line << LINE_SHIFT)),
        }
    }

    fn shared_access(
        spec: &WorkloadSpec,
        zipf: &Samplers,
        st: &mut NodeGen,
        node: NodeId,
        asid: Asid,
        epoch: u64,
        node_count: usize,
    ) -> Access {
        let n = node.index() as u64;
        let nodes = node_count as u64;
        let (line, kind) = match spec.sharing {
            Sharing::None => unreachable!("shared access with Sharing::None"),
            Sharing::ReadShared => {
                // Region-granular reuse of mostly-read shared data.
                let region = zipf.shared_rank.sample(&mut st.rng);
                let line = (region * REGION_LINES + zipf.shared_line.sample(&mut st.rng))
                    % spec.shared_lines;
                let kind = if st.rng.chance(spec.write_frac * 0.1) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                (line, kind)
            }
            Sharing::Migratory => {
                // Each chunk is owned by one node per epoch; ownership
                // rotates so dirty lines migrate between private caches.
                let chunks = (spec.shared_lines / CHUNK_LINES).max(nodes);
                let rank = zipf.shared_rank.sample(&mut st.rng);
                let chunk = (rank * nodes + ((n + epoch) % nodes)) % chunks;
                let line = (chunk * CHUNK_LINES + zipf.shared_line.sample(&mut st.rng))
                    % spec.shared_lines;
                let kind = if st.rng.chance(spec.write_frac) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                (line, kind)
            }
            Sharing::ProducerConsumer => {
                // Even nodes write their own chunks; odd nodes read their
                // producer neighbour's chunks.
                let producer = n & !1;
                let chunks = (spec.shared_lines / CHUNK_LINES).max(nodes);
                let rank = zipf.shared_rank.sample(&mut st.rng);
                let chunk = (rank * nodes + producer) % chunks;
                let line = (chunk * CHUNK_LINES + zipf.shared_line.sample(&mut st.rng))
                    % spec.shared_lines;
                let kind = if n.is_multiple_of(2) && st.rng.chance(spec.write_frac) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                (line, kind)
            }
        };
        Access {
            node,
            asid,
            kind,
            vaddr: VAddr::new(SHARED_BASE + (line << LINE_SHIFT)),
        }
    }
}

/// One run's whole access stream, generated once so that several systems
/// can replay it.
///
/// Recorded with the loop a streaming run drives: each phase takes whole
/// [`TraceGen::next_batch`] batches until it reaches its instruction target,
/// and the measured phase starts at the batch after the warmup's last. Phase
/// boundaries and instruction totals are therefore exactly what a run that
/// generates batch by batch sees. Each access takes 16 B.
#[derive(Clone, Debug)]
pub struct Trace {
    accesses: Vec<Access>,
    warmup_len: usize,
    warmup_insts: u64,
    measured_insts: u64,
}

impl Trace {
    /// Records the warmup and measured phases of `spec` on `node_count`
    /// nodes from `seed`.
    ///
    /// # Panics
    ///
    /// As [`TraceGen::new`].
    pub fn record(
        spec: &WorkloadSpec,
        node_count: usize,
        seed: u64,
        warmup_instructions: u64,
        instructions: u64,
    ) -> Self {
        let mut gen = TraceGen::new(spec, node_count, seed);
        let mut accesses = Vec::new();
        let mut phase = |target: u64, out: &mut Vec<Access>| {
            let mut insts = 0;
            while insts < target {
                insts += gen.next_batch(out);
            }
            insts
        };
        let warmup_insts = phase(warmup_instructions, &mut accesses);
        let warmup_len = accesses.len();
        let measured_insts = phase(instructions, &mut accesses);
        Self {
            accesses,
            warmup_len,
            warmup_insts,
            measured_insts,
        }
    }

    /// The warmup phase's accesses.
    pub fn warmup(&self) -> &[Access] {
        &self.accesses[..self.warmup_len]
    }

    /// The measured phase's accesses.
    pub fn measured(&self) -> &[Access] {
        &self.accesses[self.warmup_len..]
    }

    /// Instructions the warmup phase represents.
    pub fn warmup_insts(&self) -> u64 {
        self.warmup_insts
    }

    /// Instructions the measured phase represents.
    pub fn measured_insts(&self) -> u64 {
        self.measured_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Category, WorkloadSpec};

    fn gen_for(cat: Category) -> TraceGen {
        TraceGen::new(&WorkloadSpec::base(cat, "t"), 8, 1)
    }

    fn collect(gen: &mut TraceGen, batches: usize) -> (Vec<Access>, u64) {
        let mut v = Vec::new();
        let mut insts = 0;
        for _ in 0..batches {
            insts += gen.next_batch(&mut v);
        }
        (v, insts)
    }

    #[test]
    fn recorded_trace_matches_the_streaming_loop() {
        let spec = WorkloadSpec::base(Category::Mobile, "t");
        let (warmup, measured) = (3_000, 7_000);
        let trace = Trace::record(&spec, 8, 5, warmup, measured);
        // A streaming run: one batch at a time, each phase stopping at the
        // first batch that reaches its target.
        let mut gen = TraceGen::new(&spec, 8, 5);
        let mut batch = Vec::new();
        let mut phase = |target: u64| {
            let (mut insts, mut seen) = (0, Vec::new());
            while insts < target {
                batch.clear();
                insts += gen.next_batch(&mut batch);
                seen.extend_from_slice(&batch);
            }
            (insts, seen)
        };
        let (warm_insts, warm) = phase(warmup);
        let (meas_insts, meas) = phase(measured);
        assert_eq!(trace.warmup_insts(), warm_insts);
        assert_eq!(trace.measured_insts(), meas_insts);
        assert!(warm_insts >= warmup && meas_insts >= measured);
        assert_eq!(trace.warmup(), &warm[..]);
        assert_eq!(trace.measured(), &meas[..]);
        assert_eq!(std::mem::size_of::<Access>(), 16);
    }

    /// Every `(n, s)` pair the catalog's generators draw from at 8 nodes, in
    /// first-use order over the catalog.
    const CATALOG_ZIPF_PAIRS: [(u64, f64); 44] = [
        (380, 1.0),
        (125, 1.15),
        (320, 0.6),
        (70, 0.45),
        (1024, 1.2),
        (16, 1.5),
        (100, 0.45),
        (3000, 0.45),
        (65536, 0.6),
        (80, 0.45),
        (32, 1.2),
        (64, 1.5),
        (130, 0.45),
        (250, 1.15),
        (120, 0.45),
        (110, 0.45),
        (400, 0.45),
        (8192, 1.1),
        (312, 1.15),
        (300, 1.0),
        (128, 1.2),
        (128, 1.25),
        (8192, 1.2),
        (187, 1.15),
        (420, 1.0),
        (1750, 1.15),
        (95, 0.45),
        (1375, 1.15),
        (1875, 1.15),
        (2125, 1.15),
        (600, 0.45),
        (1625, 1.15),
        (2000, 1.15),
        (1000, 1.15),
        (1500, 1.15),
        (1250, 1.15),
        (875, 1.15),
        (75, 0.45),
        (375, 1.15),
        (180, 0.45),
        (625, 1.15),
        (450, 1.0),
        (7500, 1.15),
        (256, 1.2),
    ];

    #[test]
    fn catalog_samplers_use_the_pinned_pairs() {
        let pinned = CATALOG_ZIPF_PAIRS.map(|(n, s)| Zipf::new(n, s));
        for spec in crate::catalog::all().expect("catalog") {
            let z = TraceGen::new(&spec, 8, 0).zipf;
            let mut drawn = vec![
                ("hot_code", z.hot_code),
                ("code_regions", z.code_regions),
                ("hot_data", z.hot_data),
                ("warm_regions", z.warm_regions),
            ];
            if spec.shared_frac > 0.0 && spec.sharing != Sharing::None {
                drawn.push(("shared_rank", z.shared_rank));
                drawn.push(("shared_line", z.shared_line));
            }
            for (field, sampler) in drawn {
                assert!(
                    pinned.contains(&sampler),
                    "{}: {field} sampler {sampler:?} is not pinned",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn zipf_samples_match_pinned_values() {
        // Values captured from the per-draw `SimRng::zipf` path this
        // replaced: 64 draws per catalog pair, pairs in order, one stream.
        for (seed, label, want) in [
            (1, "pin/a", 0x837b_eb13_3364_f763),
            (2, "pin/b", 0xc2b4_3df8_2b31_886b),
        ] {
            let mut rng = SimRng::from_label(seed, label);
            let mut bytes = Vec::new();
            for (n, s) in CATALOG_ZIPF_PAIRS {
                let zipf = Zipf::new(n, s);
                for _ in 0..64 {
                    bytes.extend(zipf.sample(&mut rng).to_le_bytes());
                }
            }
            assert_eq!(d2m_common::fnv1a_64(&bytes), want, "{label}");
        }
    }

    #[test]
    fn zipf_table_slots_match_the_exact_formula() {
        // A direct slot must hold the rank the inverse CDF gives at both
        // ends of its 53-bit grid range.
        for (n, s) in CATALOG_ZIPF_PAIRS.into_iter().filter(|&(n, _)| n <= 4096) {
            let zipf = Zipf::new(n, s);
            let mut direct = 0;
            for (first, last, rank) in zipf.direct_slots() {
                for bits in [first, last] {
                    assert_eq!(
                        zipf.exact_rank(bits),
                        rank,
                        "(n={n}, s={s}): slot {} at {bits:#x}",
                        first >> 41
                    );
                }
                direct += 1;
            }
            assert!(direct > 0, "(n={n}, s={s}): no direct slot");
        }
    }

    #[test]
    fn large_zipf_pairs_take_the_exact_path() {
        // canneal's 65536 shared ranks, tpc-c's 7500 code regions, ...
        let large: Vec<_> = CATALOG_ZIPF_PAIRS
            .into_iter()
            .filter(|&(n, _)| n > 4096)
            .collect();
        assert!(large.contains(&(65536, 0.6)) && large.contains(&(7500, 1.15)));
        for (n, s) in large {
            assert_eq!(Zipf::new(n, s).direct_slots().count(), 0, "(n={n}, s={s})");
        }
    }

    #[test]
    fn zipf_table_draws_match_the_table_free_path() {
        // A million draws per catalog pair against `SimRng::zipf`, which
        // never builds a table, on a cloned stream.
        for (i, (n, s)) in CATALOG_ZIPF_PAIRS.into_iter().enumerate() {
            let zipf = Zipf::new(n, s);
            let mut rng = SimRng::from_label(i as u64, "zipf-table");
            let mut twin = rng.clone();
            for draw in 0..1_000_000 {
                let got = zipf.sample(&mut rng);
                assert_eq!(got, twin.zipf(n, s), "(n={n}, s={s}) draw {draw}");
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = gen_for(Category::Parallel);
        let mut b = gen_for(Category::Parallel);
        let (va, ia) = collect(&mut a, 50);
        let (vb, ib) = collect(&mut b, 50);
        assert_eq!(ia, ib);
        assert_eq!(va, vb);
    }

    #[test]
    fn every_node_fetches_each_batch() {
        let mut g = gen_for(Category::Hpc);
        let mut v = Vec::new();
        g.next_batch(&mut v);
        let fetches: Vec<_> = v.iter().filter(|a| a.kind.is_ifetch()).collect();
        assert_eq!(fetches.len(), 8);
        let nodes: std::collections::HashSet<_> = fetches.iter().map(|a| a.node.index()).collect();
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn instruction_count_tracks_insts_per_fetch() {
        let mut g = gen_for(Category::Parallel);
        let (_, insts) = collect(&mut g, 1000);
        let per_batch = insts as f64 / 1000.0;
        // 8 nodes × ~6 insts/fetch.
        assert!((per_batch - 48.0).abs() < 3.0, "got {per_batch}");
    }

    #[test]
    fn mem_op_fraction_is_respected() {
        let mut g = gen_for(Category::Parallel);
        let (v, insts) = collect(&mut g, 2000);
        let data = v.iter().filter(|a| !a.kind.is_ifetch()).count() as f64;
        let frac = data / insts as f64;
        assert!((frac - 0.33).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn hot_set_dominates_private_accesses() {
        let mut g = gen_for(Category::Parallel);
        let spec = g.spec().clone();
        let (v, _) = collect(&mut g, 3000);
        let priv_accesses: Vec<u64> = v
            .iter()
            .filter(|a| a.vaddr.raw() >= PRIVATE_BASE && !a.kind.is_ifetch())
            .map(|a| ((a.vaddr.raw() - PRIVATE_BASE) % PRIVATE_STRIDE) >> LINE_SHIFT)
            .collect();
        let hot = priv_accesses
            .iter()
            .filter(|l| **l < spec.hot_lines)
            .count() as f64;
        let frac = hot / priv_accesses.len() as f64;
        assert!(
            (frac - spec.p_hot).abs() < 0.05,
            "hot fraction {frac} vs p_hot {}",
            spec.p_hot
        );
    }

    #[test]
    fn jumps_stay_mostly_in_hot_code() {
        let mut g = gen_for(Category::Mobile);
        let spec = g.spec().clone();
        let (v, _) = collect(&mut g, 4000);
        let fetch_lines: Vec<u64> = v
            .iter()
            .filter(|a| a.kind.is_ifetch())
            .map(|a| (a.vaddr.raw() - CODE_BASE) >> LINE_SHIFT)
            .collect();
        let hot = fetch_lines
            .iter()
            .filter(|l| **l < spec.hot_code_lines)
            .count() as f64;
        let frac = hot / fetch_lines.len() as f64;
        // Sequential runs leak out of the hot set, so the resident fraction
        // is below p_hot_code but must still dominate.
        assert!(frac > 0.5, "hot-code fraction {frac}");
    }

    #[test]
    fn server_never_touches_shared_segment_and_uses_distinct_asids() {
        let mut g = gen_for(Category::Server);
        let (v, _) = collect(&mut g, 200);
        for a in &v {
            assert!(
                a.vaddr.raw() < SHARED_BASE || a.vaddr.raw() >= PRIVATE_BASE,
                "server access in shared segment: {a:?}"
            );
            assert_eq!(a.asid.0, a.node.index() as u16 + 1);
        }
    }

    #[test]
    fn shared_workloads_use_one_asid() {
        let mut g = gen_for(Category::Database);
        let (v, _) = collect(&mut g, 50);
        assert!(v.iter().all(|a| a.asid.0 == 0));
        assert!(v
            .iter()
            .any(|a| (SHARED_BASE..PRIVATE_BASE).contains(&a.vaddr.raw())));
    }

    #[test]
    fn private_segments_are_node_disjoint() {
        let mut g = gen_for(Category::Parallel);
        let (v, _) = collect(&mut g, 500);
        for a in v.iter().filter(|a| a.vaddr.raw() >= PRIVATE_BASE) {
            let owner = (a.vaddr.raw() - PRIVATE_BASE) / PRIVATE_STRIDE;
            assert_eq!(owner, a.node.index() as u64, "{a:?}");
        }
    }

    #[test]
    fn producer_consumer_writes_only_from_even_nodes() {
        let mut spec = WorkloadSpec::base(Category::Parallel, "pc");
        spec.sharing = crate::spec::Sharing::ProducerConsumer;
        let mut g = TraceGen::new(&spec, 8, 3);
        let (v, _) = collect(&mut g, 500);
        for a in v
            .iter()
            .filter(|a| a.kind.is_store() && (SHARED_BASE..PRIVATE_BASE).contains(&a.vaddr.raw()))
        {
            assert_eq!(a.node.index() % 2, 0, "odd node wrote shared data: {a:?}");
        }
    }

    #[test]
    fn stride_scan_produces_strided_lines() {
        let mut spec = WorkloadSpec::base(Category::Hpc, "lu");
        spec.stride_frac = 1.0;
        spec.stride_lines = 128;
        spec.shared_frac = 0.0;
        spec.sharing = crate::spec::Sharing::ReadShared;
        let mut g = TraceGen::new(&spec, 1, 5);
        let (v, _) = collect(&mut g, 100);
        let lines: Vec<u64> = v
            .iter()
            .filter(|a| a.vaddr.raw() >= PRIVATE_BASE)
            .map(|a| (a.vaddr.raw() - PRIVATE_BASE) >> LINE_SHIFT)
            .collect();
        assert!(lines.len() > 10);
        // The scan dwells ~6 accesses per line; consecutive distinct lines
        // must be exactly one stride apart.
        let mut distinct: Vec<u64> = lines.clone();
        distinct.dedup();
        let strided = distinct
            .windows(2)
            .filter(|w| (w[1] + spec.private_lines - w[0]) % spec.private_lines == 128)
            .count();
        assert!(
            strided as f64 > distinct.len() as f64 * 0.9,
            "{strided}/{}",
            distinct.len()
        );
    }

    #[test]
    fn migratory_epoch_rotates_chunk_ownership() {
        let mut spec = WorkloadSpec::base(Category::Hpc, "mig");
        spec.shared_frac = 1.0;
        spec.write_frac = 1.0;
        spec.migratory_epoch = 10;
        let mut g = TraceGen::new(&spec, 2, 7);
        // Epoch 0: record which chunks node 0 writes.
        let (v0, _) = collect(&mut g, 9);
        let chunks0: std::collections::HashSet<u64> = v0
            .iter()
            .filter(|a| a.node.index() == 0 && !a.kind.is_ifetch())
            .map(|a| (a.vaddr.raw() - SHARED_BASE) >> LINE_SHIFT >> 6)
            .collect();
        // Skip to a later epoch.
        let (_, _) = collect(&mut g, 10);
        let (v2, _) = collect(&mut g, 9);
        let chunks2: std::collections::HashSet<u64> = v2
            .iter()
            .filter(|a| a.node.index() == 0 && !a.kind.is_ifetch())
            .map(|a| (a.vaddr.raw() - SHARED_BASE) >> LINE_SHIFT >> 6)
            .collect();
        assert!(
            chunks0.intersection(&chunks2).count() < chunks0.len(),
            "ownership never rotated"
        );
    }
}
