//! Property tests: every batch kernel is **bit-identical** to its scalar
//! reference.
//!
//! The detector's determinism / checkpoint / codec gates all assume the
//! batch kernels introduced for the window stage produce exactly the same
//! sketches and sorted columns as the scalar code they replaced.  These
//! tests drive that contract directly with ChaCha8-generated streams:
//! random id streams across the full sketch-size range, duplicate-heavy
//! streams (the realistic shape — few hot users repeated), and
//! adversarial strictly-descending streams (every insert displaces the
//! current maximum, the worst case for the threshold filter).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_minhash::kernel::{self, SketchLanes};
use dengraph_minhash::{MinHashSketch, UserHasher};

/// Sketch sizes under test: the full range the detector can configure
/// (p = min(sigma/2, 1/tau) is small, but the kernel contract covers the
/// whole documented range).
const SKETCH_SIZES: [usize; 8] = [4, 7, 8, 16, 63, 128, 257, 512];

/// Scalar reference: one `insert` per id, in stream order.
fn scalar_sketch(p: usize, hasher: &UserHasher, ids: &[u64]) -> MinHashSketch {
    let mut sketch = MinHashSketch::new(p);
    for &id in ids {
        sketch.insert(hasher, id);
    }
    sketch
}

/// Batched path: the id stream in chunks of varying size through
/// `insert_batch`, reusing one lane set (the hot-path shape).
fn batched_sketch(
    p: usize,
    hasher: &UserHasher,
    ids: &[u64],
    chunk: usize,
    lanes: &mut SketchLanes,
) -> MinHashSketch {
    let mut sketch = MinHashSketch::new(p);
    for run in ids.chunks(chunk.max(1)) {
        sketch.insert_batch(hasher, run, |id| id, lanes);
    }
    sketch
}

fn assert_batched_matches_scalar(seed: u64, ids: &[u64]) {
    let hasher = UserHasher::new(seed);
    let mut lanes = SketchLanes::new();
    for p in SKETCH_SIZES {
        let reference = scalar_sketch(p, &hasher, ids);
        // Chunk sizes around the 8-lane width, plus one-shot.
        for chunk in [1, 3, 7, 8, 9, 64, ids.len().max(1)] {
            let batched = batched_sketch(p, &hasher, ids, chunk, &mut lanes);
            assert_eq!(
                batched, reference,
                "batched sketch diverged (seed {seed}, p {p}, chunk {chunk})"
            );
        }
    }
}

#[test]
fn batched_matches_scalar_on_random_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA7C);
    for round in 0..20 {
        let len = rng.gen_range(0usize..3000);
        let ids: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
        assert_batched_matches_scalar(round, &ids);
    }
}

#[test]
fn batched_matches_scalar_on_duplicate_heavy_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0B1);
    for round in 0..20 {
        let len = rng.gen_range(0usize..3000);
        // A handful of hot ids, each repeated many times — the realistic
        // window shape, and the case the threshold filter must reject
        // without ever dropping a new distinct minimum.
        let hot = rng.gen_range(1u64..32);
        let ids: Vec<u64> = (0..len).map(|_| rng.gen_range(0..hot)).collect();
        assert_batched_matches_scalar(0x1000 + round, &ids);
    }
}

#[test]
fn batched_matches_scalar_on_adversarial_descending_streams() {
    // Ids chosen so their *hashes* arrive strictly descending: every
    // scalar insert displaces the current maximum, and every batch fold
    // sees all lanes below the threshold.  (Sorting ids by hash gives us
    // the hash-ordered stream without inverting splitmix64.)
    let hasher = UserHasher::new(0xAD5E);
    let mut ids: Vec<u64> = (0..2048u64).map(|i| i.wrapping_mul(0x2545_F491)).collect();
    ids.sort_unstable_by_key(|&id| std::cmp::Reverse(hasher.hash(id)));
    let mut lanes = SketchLanes::new();
    for p in SKETCH_SIZES {
        let reference = scalar_sketch(p, &hasher, &ids);
        for chunk in [1, 8, 9, 1024] {
            let batched = batched_sketch(p, &hasher, &ids, chunk, &mut lanes);
            assert_eq!(batched, reference, "descending stream diverged (p {p})");
        }
    }
}

#[test]
fn merge_matches_scalar_union_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3E6E);
    let hasher = UserHasher::new(0x3E6E);
    for _ in 0..30 {
        let p_a = SKETCH_SIZES[rng.gen_range(0usize..SKETCH_SIZES.len())];
        let len_a = rng.gen_range(0usize..600);
        let len_b = rng.gen_range(0usize..600);
        // Overlapping domains so merged minima interleave and collide.
        let a_ids: Vec<u64> = (0..len_a).map(|_| rng.gen_range(0u64..1000)).collect();
        let b_ids: Vec<u64> = (0..len_b).map(|_| rng.gen_range(0u64..1000)).collect();
        let mut merged = scalar_sketch(p_a, &hasher, &a_ids);
        let other = scalar_sketch(p_a, &hasher, &b_ids);
        merged.merge(&other);
        // Reference: sketching the concatenated stream directly (p-minima
        // union is exactly the sketch of the union stream).
        let mut union_ids = a_ids.clone();
        union_ids.extend_from_slice(&b_ids);
        let reference = scalar_sketch(p_a, &hasher, &union_ids);
        assert_eq!(merged, reference, "merge != union-stream sketch (p {p_a})");
    }
}

#[test]
fn merge_walk_overlap_matches_naive_intersection() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0E71);
    for _ in 0..50 {
        let len_a = rng.gen_range(0usize..64);
        let len_b = rng.gen_range(0usize..64);
        let sorted_dedup = |rng: &mut ChaCha8Rng, len: usize| -> Vec<u64> {
            let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..128)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = sorted_dedup(&mut rng, len_a);
        let b = sorted_dedup(&mut rng, len_b);
        let naive = a.iter().filter(|x| b.contains(x)).count();
        let (_, in_both) = kernel::merge_walk(&a, &b, usize::MAX);
        assert_eq!(in_both, naive);
        // Capped walk never reports more shared values than the uncapped
        // one and visits exactly min(cap, |union|) values.
        let cap = rng.gen_range(1usize..16);
        let (taken, capped_both) = kernel::merge_walk(&a, &b, cap);
        let union_len = a.len() + b.len() - naive;
        assert_eq!(taken, cap.min(union_len));
        assert!(capped_both <= naive);
    }
}

#[test]
fn radix_sort_matches_comparison_sort() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5047);
    let mut tmp = Vec::new();
    for round in 0..40 {
        let len = rng.gen_range(0usize..5000);
        let mut keys: Vec<u64> = match round % 4 {
            // Full-width random.
            0 => (0..len).map(|_| rng.gen()).collect(),
            // Narrow keys: most digit passes are skipped.
            1 => (0..len).map(|_| rng.gen_range(0u64..100_000)).collect(),
            // Duplicate-heavy packed pairs (keyword << 32 | user).
            2 => (0..len)
                .map(|_| (rng.gen_range(0u64..50) << 32) | rng.gen_range(0u64..200))
                .collect(),
            // Descending (already-sorted-backwards worst case).
            _ => (0..len as u64).rev().map(|i| i << 17).collect(),
        };
        let mut reference = keys.clone();
        reference.sort_unstable();
        kernel::radix_sort_u64(&mut keys, &mut tmp);
        assert_eq!(keys, reference, "radix sort diverged (round {round})");
    }
}

/// The Cartesian reference the shared-minimum join replaces: every pair
/// `i < j` in lexicographic order, kept iff the sketches share a minimum.
fn cartesian_sharing_pairs(sketches: &[MinHashSketch]) -> Vec<u64> {
    let mut pairs = Vec::new();
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            if sketches[i].shares_minimum(&sketches[j]) {
                pairs.push(((i as u64) << 32) | j as u64);
            }
        }
    }
    pairs
}

fn assert_join_matches_cartesian(
    sketches: &[MinHashSketch],
    scratch: &mut kernel::JoinScratch,
    label: &str,
) {
    let mut joined = Vec::new();
    kernel::shared_minimum_pairs(sketches.iter().map(|s| s.minima()), scratch, &mut joined);
    assert_eq!(joined, cartesian_sharing_pairs(sketches), "{label}");
}

#[test]
fn shared_minimum_join_matches_filtered_cartesian_product() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A4E_D301);
    let mut scratch = kernel::JoinScratch::default();
    for case in 0..300 {
        let n = rng.gen_range(0..60usize);
        let p = [1usize, 2, 4, 16][case % 4];
        // Small universes make shared minima common; large ones rare.
        let universe = [4u64, 32, 1 << 20][case % 3];
        let common = case % 5 == 0;
        let sketches: Vec<MinHashSketch> = (0..n)
            .map(|_| {
                let mut sketch = MinHashSketch::new(p);
                // Roughly one sketch in six stays empty.
                let len = if rng.gen_range(0..6u32) == 0 {
                    0
                } else {
                    rng.gen_range(1..24usize)
                };
                for _ in 0..len {
                    sketch.insert_hash(rng.gen_range(0..universe) + 1);
                }
                if common && !sketch.is_empty() {
                    // One minimum every non-empty sketch shares.
                    sketch.insert_hash(0);
                }
                sketch
            })
            .collect();
        assert_join_matches_cartesian(
            &sketches,
            &mut scratch,
            &format!("case {case} (n {n}, p {p}, universe {universe})"),
        );
    }
}

#[test]
fn shared_minimum_join_handles_degenerate_sketch_sets() {
    let mut scratch = kernel::JoinScratch::default();
    // p = 1 with one minimum shared by every keyword: the join is the
    // full product.
    let all_share: Vec<MinHashSketch> = (0..40)
        .map(|i| {
            let mut s = MinHashSketch::new(1);
            s.insert_hash(7);
            s.insert_hash(100 + i);
            s
        })
        .collect();
    assert_join_matches_cartesian(&all_share, &mut scratch, "one shared minimum");
    let mut joined = Vec::new();
    kernel::shared_minimum_pairs(
        all_share.iter().map(|s| s.minima()),
        &mut scratch,
        &mut joined,
    );
    assert_eq!(joined.len(), 40 * 39 / 2);
    // Only empty sketches: nothing shares anything.
    let empty: Vec<MinHashSketch> = (0..10).map(|_| MinHashSketch::new(4)).collect();
    assert_join_matches_cartesian(&empty, &mut scratch, "all empty");
    // p = 1, pairwise distinct minima: no pair.
    let distinct: Vec<MinHashSketch> = (0..10)
        .map(|i| {
            let mut s = MinHashSketch::new(1);
            s.insert_hash(i);
            s
        })
        .collect();
    assert_join_matches_cartesian(&distinct, &mut scratch, "p = 1, distinct minima");
    assert_join_matches_cartesian(&[], &mut scratch, "no sketches");
}
