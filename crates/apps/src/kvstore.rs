//! KV — a sharded in-memory key-value store serving request traffic.
//!
//! The ROADMAP's north star is "heavy traffic from millions of users"; this
//! is the suite's server-shaped member. A closed-loop stream of
//! Zipf-distributed get/put requests (configurable key count, skew and
//! read/write mix) is dealt into per-processor request queues; each request
//! locks its hash bucket, reads or updates the value slot, and bumps the
//! bucket's statistics header — so even a read-mostly mix writes shared
//! metadata, the classic server false-sharing story. Puts are commutative
//! (wrapping adds), which makes the final table state order-independent and
//! exactly checkable against a sequential reference on every platform.
//!
//! ## Versions (the paper's §6 methodology applied to a server)
//!
//! * [`KvVersion::Dense`] (Orig) — dense bucket-header and value arrays,
//!   round-robin pages: dozens of headers per coherence grain, so every
//!   request invalidates state other processors are about to touch.
//! * [`KvVersion::Padded`] (P/A) — each bucket record (header + slots)
//!   padded and aligned to the platform's coherence grain (page on SVM,
//!   cache line on the hardware-coherent machines): false sharing gone,
//!   communication and load imbalance remain.
//! * [`KvVersion::Sharded`] (DS) — the table is split into per-processor
//!   shards, each a contiguous page-aligned region homed on its owner, and
//!   requests are routed to the shard owner (affinity dispatch): value and
//!   header traffic becomes node-local, but the Zipf skew now lands entire
//!   hot shards on one processor.
//! * [`KvVersion::Stealing`] (Alg) — the algorithmic change: per-processor
//!   request queues with batched work stealing. Idle processors pull request
//!   batches from busy queues, absorbing the skew the DS step exposed, at
//!   the price of remote accesses for stolen requests.

use crate::common::{share_evenly, AppResult, Bcast, Platform, Scale};
use crate::OptClass;
use sim_core::util::XorShift64;
use sim_core::{run as sim_run, Placement, Proc, RunConfig, PAGE_SIZE};

/// Application phases, named for figures and traces.
pub mod phase {
    /// Serving requests from the processor's own queue.
    pub const SERVE: usize = 0;
    /// Serving requests stolen from another processor's queue.
    pub const STEAL: usize = 1;
    /// Names, indexed by phase id.
    pub const NAMES: [&str; 2] = ["serve", "steal"];
}

/// Value slots per hash bucket (keys are interleaved across buckets, so
/// bucket `b` holds keys `{b, b + nbuckets, ...}`).
pub const KEYS_PER_BUCKET: usize = 16;

/// Requests an owner takes from its own queue per pop. Large enough that
/// the owner's head updates are a negligible fraction of its queue traffic
/// even when thieves keep invalidating the head/tail line.
const OWN_BATCH: u32 = 64;
/// Upper bound on one steal (thieves take half the victim's remainder, so
/// steals shrink geometrically near the end; the cap stops the first thief
/// from walking off with half of a hot owner's whole backlog).
const STEAL_CAP: u32 = 256;
/// Per-request service compute (parse, dispatch, format the response).
const SERVICE_WORK: u64 = 150;

/// Lock id of a bucket (queue locks sit above the bucket range).
fn bucket_lock(b: usize) -> u32 {
    b as u32
}

/// Lock id of a request queue.
fn queue_lock(nbuckets: usize, q: usize) -> u32 {
    (nbuckets + q) as u32
}

/// KV workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct KvParams {
    /// Key-space size (dense key ids `0..keys`; key 0 is the hottest).
    pub keys: usize,
    /// Closed-loop requests issued per processor.
    pub reqs_per_proc: usize,
    /// Zipf skew exponent (0 = uniform; web caches are typically ~1).
    pub theta: f64,
    /// Percentage of requests that are gets (the rest are puts).
    pub read_pct: u32,
    /// Workload seed.
    pub seed: u64,
    /// Seeded racy twin for race-detector tests: bump the bucket header
    /// *outside* the bucket lock. Header counts are then unverifiable
    /// (lost updates), but values stay lock-protected and exact.
    pub racy_headers: bool,
}

impl KvParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                keys: 512,
                reqs_per_proc: 160,
                theta: 0.9,
                read_pct: 70,
                seed: 7,
                racy_headers: false,
            },
            Scale::Default => Self {
                keys: 4096,
                reqs_per_proc: 2048,
                theta: 0.99,
                read_pct: 70,
                seed: 7,
                racy_headers: false,
            },
            Scale::Paper => Self {
                keys: 16384,
                reqs_per_proc: 8192,
                theta: 0.99,
                read_pct: 70,
                seed: 7,
                racy_headers: false,
            },
        }
    }

    /// Number of hash buckets (16 interleaved keys per bucket).
    pub fn nbuckets(&self) -> usize {
        assert_eq!(
            self.keys % KEYS_PER_BUCKET,
            0,
            "key count must be a multiple of {KEYS_PER_BUCKET}"
        );
        self.keys / KEYS_PER_BUCKET
    }
}

/// The restructured versions of the KV store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvVersion {
    /// Dense header/value arrays, round-robin pages, round-robin dispatch.
    Dense,
    /// Bucket records padded/aligned to the coherence grain.
    Padded,
    /// Padded + table sharded into owner-homed regions + affinity dispatch.
    Sharded,
    /// Sharded + batched request stealing between per-processor queues.
    Stealing,
}

/// Map the paper's optimization class to a KV version.
pub fn version_for(class: OptClass) -> KvVersion {
    match class {
        OptClass::Orig => KvVersion::Dense,
        OptClass::PadAlign => KvVersion::Padded,
        OptClass::DataStruct => KvVersion::Sharded,
        OptClass::Algorithm => KvVersion::Stealing,
    }
}

/// Request word: bit 31 = put, bits 24..30 feed the put delta, bits 0..24
/// the key id.
const KEY_BITS: u32 = 24;
const KEY_MASK: u32 = (1 << KEY_BITS) - 1;

/// Decode a request word into `(key, is_put, delta)`.
#[inline]
pub fn decode(req: u32) -> (usize, bool, u32) {
    let key = (req & KEY_MASK) as usize;
    let is_put = req >> 31 == 1;
    let delta = 1 + ((req >> KEY_BITS) & 0x3F);
    (key, is_put, delta)
}

/// Bucket of a key (interleaved: hot low keys land in distinct buckets).
#[inline]
pub fn bucket_of(key: usize, nbuckets: usize) -> usize {
    key % nbuckets
}

/// Owning processor of a bucket (contiguous bucket ranges per owner).
#[inline]
pub fn owner_of(bucket: usize, nbuckets: usize, nprocs: usize) -> usize {
    bucket * nprocs / nbuckets
}

/// Initial ("pre-warmed server") value of a key.
#[inline]
fn init_val(key: usize) -> u32 {
    (key as u32).wrapping_mul(0x9E37_79B9) >> 8
}

/// Cumulative Zipf(θ) distribution over the key space: key `k` has weight
/// `(k+1)^-θ` (key 0 is the hottest).
pub fn zipf_cdf(keys: usize, theta: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(keys);
    let mut acc = 0.0f64;
    for k in 0..keys {
        acc += ((k + 1) as f64).powf(-theta);
        cum.push(acc);
    }
    let total = acc;
    for c in &mut cum {
        *c /= total;
    }
    cum
}

/// The deterministic global request stream (`nprocs * reqs_per_proc` words,
/// in arrival order).
pub fn generate_requests(params: &KvParams, nprocs: usize) -> Vec<u32> {
    assert!(
        params.keys <= KEY_MASK as usize + 1,
        "key space exceeds the {KEY_BITS}-bit request encoding"
    );
    let cdf = zipf_cdf(params.keys, params.theta);
    let mut rng = XorShift64::new(params.seed);
    (0..nprocs * params.reqs_per_proc)
        .map(|_| {
            let u = rng.f64();
            let key = cdf.partition_point(|&c| c < u).min(params.keys - 1) as u32;
            let is_put = rng.below(100) >= params.read_pct as u64;
            let noise = (rng.below(64) as u32) << KEY_BITS;
            key | noise | ((is_put as u32) << 31)
        })
        .collect()
}

/// Deal the request stream into per-processor queues. `Dense`/`Padded`
/// round-robin requests across processors (front-end load balancing);
/// `Sharded`/`Stealing` route each request to its bucket's owner (affinity
/// dispatch), which is where the Zipf skew turns into queue imbalance.
///
/// `Stealing` additionally orders each queue bucket-major, hottest bucket
/// first (the key id *is* the popularity rank and bucket `b`'s hottest
/// resident is key `b`, so the front end can do this without measurement):
/// owners drain from the front, thieves steal batches from the back. Stolen
/// work is therefore always the *cold tail* — hot buckets never migrate
/// away from their home — and a stolen batch is a contiguous run of
/// same-bucket requests, so it touches one or two remote pages instead of
/// one per request. The sort is stable, preserving arrival order per key.
pub fn route_queues(params: &KvParams, nprocs: usize, version: KvVersion) -> Vec<Vec<u32>> {
    let reqs = generate_requests(params, nprocs);
    let nbuckets = params.nbuckets();
    let mut queues = vec![Vec::new(); nprocs];
    for (r, &req) in reqs.iter().enumerate() {
        let q = match version {
            KvVersion::Dense | KvVersion::Padded => r % nprocs,
            KvVersion::Sharded | KvVersion::Stealing => {
                let (key, _, _) = decode(req);
                owner_of(bucket_of(key, nbuckets), nbuckets, nprocs)
            }
        };
        queues[q].push(req);
    }
    if version == KvVersion::Stealing {
        for q in &mut queues {
            q.sort_by_key(|&req| {
                let key = decode(req).0;
                (bucket_of(key, nbuckets), key)
            });
        }
    }
    queues
}

/// Sequential reference: final per-key values and per-bucket operation
/// counts. Puts are wrapping adds and counts are increments — both
/// commutative — so the reference is independent of request interleaving.
pub fn reference(params: &KvParams, nprocs: usize) -> (Vec<u32>, Vec<u32>) {
    let nbuckets = params.nbuckets();
    let mut values: Vec<u32> = (0..params.keys).map(init_val).collect();
    let mut counts = vec![0u32; nbuckets];
    for &req in &generate_requests(params, nprocs) {
        let (key, is_put, delta) = decode(req);
        counts[bucket_of(key, nbuckets)] += 1;
        if is_put {
            values[key] = values[key].wrapping_add(delta);
        }
    }
    (values, counts)
}

/// Shared-memory layout of the table for one version: resolves a bucket to
/// its header address and a slot to its value address.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Dense: separate header and value arrays (bucket-major values).
    Dense { headers: u64, values: u64 },
    /// Padded bucket records of `stride` bytes (header, then slots).
    Padded { table: u64, stride: u64 },
    /// Padded records grouped into per-owner page-aligned shard regions.
    Sharded {
        table: u64,
        stride: u64,
        shard_bytes: u64,
        buckets_per_owner: usize,
    },
}

impl Layout {
    fn header_addr(&self, b: usize) -> u64 {
        match *self {
            Layout::Dense { headers, .. } => headers + (b as u64) * 4,
            Layout::Padded { table, stride } => table + (b as u64) * stride,
            Layout::Sharded {
                table,
                stride,
                shard_bytes,
                buckets_per_owner,
            } => {
                let (shard, local) = (b / buckets_per_owner, b % buckets_per_owner);
                table + (shard as u64) * shard_bytes + (local as u64) * stride
            }
        }
    }

    fn value_addr(&self, b: usize, slot: usize) -> u64 {
        match *self {
            Layout::Dense { values, .. } => values + ((b * KEYS_PER_BUCKET + slot) as u64) * 4,
            _ => self.header_addr(b) + 4 + (slot as u64) * 4,
        }
    }
}

/// Bucket-record stride for the padded layouts: header + slots, rounded up
/// to the platform's coherence grain.
fn padded_stride(grain: u64) -> u64 {
    ((4 + KEYS_PER_BUCKET * 4) as u64).div_ceil(grain) * grain
}

/// Serve a batch of requests against the table, one lock acquisition per
/// maximal run of same-bucket requests. Unsorted queues (`Dense`/`Padded`/
/// `Sharded`) produce runs of length ~1, so this degenerates to per-request
/// locking; the `Stealing` version's bucket-major queues produce long runs,
/// amortizing lock traffic and write-notice consumption — the second half
/// of its algorithmic change. Values and the combined header bump are
/// lock-protected; `racy` (the seeded detector twin) moves the header
/// update outside the lock.
fn serve_batch(
    p: &mut Proc,
    reqs: &[u32],
    lay: &Layout,
    nbuckets: usize,
    racy: bool,
    sink: &mut u32,
) {
    let mut i = 0;
    while i < reqs.len() {
        let b = bucket_of(decode(reqs[i]).0, nbuckets);
        let mut j = i + 1;
        while j < reqs.len() && bucket_of(decode(reqs[j]).0, nbuckets) == b {
            j += 1;
        }
        let run = (j - i) as u32;
        let haddr = lay.header_addr(b);
        p.lock(bucket_lock(b));
        for &req in &reqs[i..j] {
            let (key, is_put, delta) = decode(req);
            let vaddr = lay.value_addr(b, key / nbuckets);
            let v = p.read_u32(vaddr);
            if is_put {
                p.write_u32(vaddr, v.wrapping_add(delta));
            } else {
                *sink ^= v;
            }
        }
        if !racy {
            let c = p.read_u32(haddr);
            p.write_u32(haddr, c + run);
        }
        p.unlock(bucket_lock(b));
        if racy {
            let c = p.read_u32(haddr);
            p.write_u32(haddr, c + run);
        }
        p.work(SERVICE_WORK * run as u64);
        p.metric_add("kv_requests", run as u64);
        i = j;
    }
}

/// Run the KV store on a platform; panics unless the final table state
/// matches the sequential reference exactly.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &KvParams,
    version: KvVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, diagnostics, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &KvParams,
    version: KvVersion,
    cfg: RunConfig,
) -> AppResult {
    let cfg = if cfg.phase_names.is_empty() {
        cfg.with_phase_names(phase::NAMES)
    } else {
        cfg
    };
    let nbuckets = params.nbuckets();
    share_evenly(nbuckets, "buckets", nprocs).unwrap_or_else(|e| panic!("KV: {e}"));
    let grain = platform.grain();
    let racy = params.racy_headers;
    let queues = route_queues(params, nprocs, version);
    let qlens: Vec<u32> = queues.iter().map(|q| q.len() as u32).collect();
    // One queue block per processor, page-aligned so affinity placement can
    // home each queue on its owner.
    let qcap = qlens.iter().copied().max().unwrap_or(0).max(1) as u64;
    let qblock = (qcap * 4).div_ceil(PAGE_SIZE) * PAGE_SIZE;

    let layout_bc: Bcast<(Layout, u64, u64)> = Bcast::new();
    let outcome = std::sync::Mutex::new((Vec::new(), Vec::new()));

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        if me == 0 {
            let lay = match version {
                KvVersion::Dense => Layout::Dense {
                    headers: p.alloc_shared_labeled(
                        "kv_headers",
                        (nbuckets * 4) as u64,
                        PAGE_SIZE,
                        Placement::RoundRobin,
                    ),
                    values: p.alloc_shared_labeled(
                        "kv_values",
                        (params.keys * 4) as u64,
                        PAGE_SIZE,
                        Placement::RoundRobin,
                    ),
                },
                KvVersion::Padded => {
                    let stride = padded_stride(grain);
                    Layout::Padded {
                        table: p.alloc_shared_labeled(
                            "kv_table",
                            nbuckets as u64 * stride,
                            PAGE_SIZE,
                            Placement::RoundRobin,
                        ),
                        stride,
                    }
                }
                KvVersion::Sharded | KvVersion::Stealing => {
                    let stride = padded_stride(grain);
                    let bpo = nbuckets / np;
                    let shard_bytes = (bpo as u64 * stride).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                    Layout::Sharded {
                        table: p.alloc_shared_labeled(
                            "kv_table",
                            shard_bytes * np as u64,
                            PAGE_SIZE,
                            Placement::Blocked {
                                chunk_pages: shard_bytes / PAGE_SIZE,
                            },
                        ),
                        stride,
                        shard_bytes,
                        buckets_per_owner: bpo,
                    }
                }
            };
            let qbase = p.alloc_shared_labeled(
                "kv_queues",
                qblock * np as u64,
                PAGE_SIZE,
                Placement::Blocked {
                    chunk_pages: qblock / PAGE_SIZE,
                },
            );
            // Queue head/tail indices, one pair per processor at grain
            // stride (only the Stealing version reads them, but the
            // allocation is version-independent to keep the address map
            // comparable).
            let hbase = p.alloc_shared_labeled(
                "kv_qheads",
                grain * np as u64,
                grain.max(8),
                Placement::Blocked { chunk_pages: 1 },
            );
            layout_bc.put((lay, qbase, hbase));
        }
        p.barrier(100);
        let (lay, qbase, hbase) = layout_bc.get();
        let qentry = |q: usize, i: u64| qbase + (q as u64) * qblock + i * 4;
        let qhead = |q: usize| hbase + (q as u64) * grain;
        let qtail = |q: usize| hbase + (q as u64) * grain + 4;

        // Untimed warm-up: every processor memsets and initializes the
        // buckets it owns (cold-start of a pre-warmed server), and loads its
        // own request queue — the analogue of accepting connections.
        let bpo = nbuckets / np;
        for b in me * bpo..(me + 1) * bpo {
            p.fill(lay.header_addr(b), 4, 1, 0);
            let vals: Vec<u32> = (0..KEYS_PER_BUCKET)
                .map(|s| init_val(s * nbuckets + b))
                .collect();
            p.write_u32_slice(lay.value_addr(b, 0), 4, &vals);
        }
        if !queues[me].is_empty() {
            p.write_u32_slice(qentry(me, 0), 4, &queues[me]);
        }
        p.write_u32(qhead(me), 0);
        p.write_u32(qtail(me), qlens[me]);
        p.barrier(101);
        p.start_timing();
        p.set_phase(phase::SERVE);

        let mut sink = 0u32;
        let mut buf = vec![0u32; OWN_BATCH.max(STEAL_CAP) as usize];
        match version {
            KvVersion::Dense | KvVersion::Padded | KvVersion::Sharded => {
                // Each processor drains its own queue in batches.
                let len = qlens[me];
                let mut h = 0u32;
                while h < len {
                    let take = OWN_BATCH.min(len - h) as usize;
                    p.read_u32_slice(qentry(me, h as u64), 4, &mut buf[..take]);
                    serve_batch(p, &buf[..take], &lay, nbuckets, racy, &mut sink);
                    h += take as u32;
                }
            }
            KvVersion::Stealing => {
                // Deque discipline on popularity-sorted queues: the owner
                // drains hot requests from the front, thieves steal batches
                // of cold-tail requests from the back — so hot buckets are
                // always served by their home processor and never ping-pong.
                // Requests are never re-queued, so a full cycle of empty
                // probes means global completion.
                let mut victim = me;
                loop {
                    p.lock(queue_lock(nbuckets, victim));
                    let h = p.read_u32(qhead(victim));
                    let t = p.read_u32(qtail(victim));
                    let (start, take) = if victim == me {
                        let take = OWN_BATCH.min(t - h);
                        if take > 0 {
                            p.write_u32(qhead(victim), h + take);
                        }
                        (h, take)
                    } else {
                        let take = (t - h).div_ceil(2).min(STEAL_CAP);
                        if take > 0 {
                            p.write_u32(qtail(victim), t - take);
                        }
                        (t - take, take)
                    };
                    p.unlock(queue_lock(nbuckets, victim));
                    if take > 0 {
                        p.set_phase(if victim == me {
                            phase::SERVE
                        } else {
                            phase::STEAL
                        });
                        p.read_u32_slice(
                            qentry(victim, start as u64),
                            4,
                            &mut buf[..take as usize],
                        );
                        serve_batch(p, &buf[..take as usize], &lay, nbuckets, racy, &mut sink);
                        victim = me;
                    } else {
                        victim = (victim + 1) % np;
                        if victim == me {
                            break;
                        }
                    }
                }
                p.set_phase(phase::SERVE);
            }
        }
        p.barrier(0);
        p.stop_timing();

        if me == 0 {
            let mut values = vec![0u32; params.keys];
            crate::common::read_u32_runs(p, &mut values, |k| {
                let key = k; // global slot index == key id under the
                             // bucket-interleaved slot map below
                let b = bucket_of(key, nbuckets);
                lay.value_addr(b, key / nbuckets)
            });
            let mut counts = vec![0u32; nbuckets];
            crate::common::read_u32_runs(p, &mut counts, |b| lay.header_addr(b));
            *outcome.lock().unwrap() = (values, counts);
        }
    });

    let (values, counts) = outcome.into_inner().unwrap();
    let (want_values, want_counts) = reference(params, nprocs);
    assert_eq!(
        values, want_values,
        "KV table state diverged from reference"
    );
    if !racy {
        assert_eq!(
            counts, want_counts,
            "KV bucket operation counts diverged from reference"
        );
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in values.iter().chain(counts.iter()) {
        h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3);
    }
    AppResult { stats, checksum: h }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KvParams {
        KvParams {
            keys: 128,
            reqs_per_proc: 48,
            theta: 0.9,
            read_pct: 70,
            seed: 11,
            racy_headers: false,
        }
    }

    #[test]
    fn zipf_cdf_is_monotonic_and_skewed() {
        let cdf = zipf_cdf(256, 0.99);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // The hottest 10% of keys draw well over 10% of the mass.
        assert!(cdf[25] > 0.4, "cdf[25] = {}", cdf[25]);
    }

    #[test]
    fn request_stream_respects_the_mix() {
        let params = KvParams {
            keys: 512,
            reqs_per_proc: 4096,
            theta: 0.9,
            read_pct: 70,
            seed: 3,
            racy_headers: false,
        };
        let reqs = generate_requests(&params, 2);
        let puts = reqs.iter().filter(|&&r| r >> 31 == 1).count();
        let frac = puts as f64 / reqs.len() as f64;
        assert!((0.25..0.35).contains(&frac), "put fraction {frac}");
        for &r in &reqs {
            let (key, _, delta) = decode(r);
            assert!(key < params.keys);
            assert!((1..=64).contains(&delta));
        }
    }

    #[test]
    fn routing_conserves_requests_and_skews_affinity_queues() {
        let params = KvParams::at(Scale::Default);
        let np = 8;
        let total = np * params.reqs_per_proc;
        let rr = route_queues(&params, np, KvVersion::Dense);
        assert!(rr.iter().all(|q| q.len() == params.reqs_per_proc));
        let aff = route_queues(&params, np, KvVersion::Stealing);
        assert_eq!(aff.iter().map(Vec::len).sum::<usize>(), total);
        let longest = aff.iter().map(Vec::len).max().unwrap();
        // Zipf skew concentrates traffic on the hot shard's owner.
        assert!(
            longest as f64 > 1.5 * params.reqs_per_proc as f64,
            "expected affinity imbalance, longest queue = {longest}"
        );
    }

    #[test]
    fn all_versions_verify_on_svm() {
        for v in [
            KvVersion::Dense,
            KvVersion::Padded,
            KvVersion::Sharded,
            KvVersion::Stealing,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), v);
            assert!(r.stats.total_cycles() > 0, "{v:?}");
        }
    }

    #[test]
    fn checksums_agree_across_hardware_platforms() {
        let a = run_params(Platform::Dsm, 2, &tiny(), KvVersion::Stealing);
        let b = run_params(Platform::Smp, 2, &tiny(), KvVersion::Dense);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn uniprocessor_serves() {
        let r = run_params(Platform::Smp, 1, &tiny(), KvVersion::Stealing);
        assert!(r.stats.total_cycles() > 0);
    }
}
