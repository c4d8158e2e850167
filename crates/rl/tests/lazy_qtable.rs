//! Lazy random Q-tables against the eager fill they replace.
//!
//! `QTable::new_random` fills each 64-row chunk on first touch, after
//! jumping the generator to the chunk's first draw with
//! `StdRng::advance`. These tests pin that the result is the eager
//! state-major fill bit for bit: through every read API, serde,
//! equality, clones and transfers, for odd table shapes, and against
//! golden digests of paper-scale tables.

use autoscale_rl::{QTable, CHUNK_ROWS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The eager oracle: every value of a `new_random(states, actions,
/// seed)` table, row-major, drawn by the original fill loop
/// (state-major, action-minor, one `gen_range` per cell).
fn eager_values(states: usize, actions: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..states * actions)
        .map(|_| rng.gen_range(-0.01..0.01))
        .collect()
}

/// An eagerly built table holding `values` (every chunk filled at load).
fn eager_table(states: usize, actions: usize, values: &[f64]) -> QTable {
    let values = serde_json::to_string(values).expect("finite values");
    let json = format!(r#"{{"states":{states},"actions":{actions},"values":{values}}}"#);
    serde_json::from_str(&json).expect("well-formed table")
}

/// The lowest-index allowed maximizer of one oracle row.
fn oracle_best(row: &[f64], mask: &[bool]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (a, (&v, &allowed)) in row.iter().zip(mask).enumerate() {
        if allowed && best.is_none_or(|(_, bv)| v > bv) {
            best = Some((a, v));
        }
    }
    best
}

/// FNV-1a over the values' bits — `QTable::value_digest`'s definition.
fn oracle_digest(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Reads `q` at the probes' states in the given order, through `get`,
/// `best_action` and `max_value`, and checks each answer against the
/// oracle values.
fn check_reads(
    q: &QTable,
    values: &[f64],
    actions: usize,
    probes: &[(usize, u64)],
) -> Result<(), TestCaseError> {
    let states = values.len() / actions;
    for &(state, bits) in probes {
        let s = state % states;
        let row = &values[s * actions..(s + 1) * actions];
        let mask: Vec<bool> = (0..actions).map(|a| bits >> (a % 64) & 1 == 1).collect();
        let a = (bits as usize) % actions;
        prop_assert_eq!(q.get(s, a).to_bits(), row[a].to_bits());
        prop_assert_eq!(q.best_action(s, &mask), oracle_best(row, &mask));
        prop_assert_eq!(
            q.max_value(s, &mask),
            oracle_best(row, &mask).map_or(0.0, |(_, v)| v)
        );
        let all = vec![true; actions];
        prop_assert_eq!(q.best_action(s, &all), oracle_best(row, &all));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A jump of `n` draws lands where `n` sequential draws do.
    #[test]
    fn advance_matches_sequential_draws(seed in any::<u64>(), n in 0u64..(1 << 20)) {
        let mut jumped = StdRng::seed_from_u64(seed);
        jumped.advance(n);
        let mut stepped = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            stepped.next_u64();
        }
        prop_assert_eq!(jumped.next_u64(), stepped.next_u64());
        prop_assert_eq!(jumped, stepped);
    }

    /// Lazy tables read exactly like the eager oracle, for shapes that
    /// leave a partial last chunk and rows of any lane count.
    #[test]
    fn lazy_tables_match_the_eager_fill(
        states in 1usize..=200,
        actions in 1usize..=80,
        seed in any::<u64>(),
        probes in prop::collection::vec((0usize..200, any::<u64>()), 1..40),
        writes in prop::collection::vec((0usize..200, 0usize..80, -1.0..1.0f64), 0..12),
    ) {
        let values = eager_values(states, actions, seed);
        let eager = eager_table(states, actions, &values);

        // Every read API, in random row order, chunk by chunk as touched.
        let lazy = QTable::new_random(states, actions, seed);
        let untouched = lazy.clone();
        check_reads(&lazy, &values, actions, &probes)?;
        // Exactly the chunks holding a probed row are filled.
        let mut touched: Vec<usize> = probes.iter().map(|&(s, _)| s % states / CHUNK_ROWS).collect();
        touched.sort_unstable();
        touched.dedup();
        let row_bytes = lazy.full_bytes() / states;
        let touched_rows: usize = touched
            .iter()
            .map(|&c| CHUNK_ROWS.min(states - c * CHUNK_ROWS))
            .sum();
        prop_assert_eq!(lazy.memory_bytes(), touched_rows * row_bytes);

        // A clone taken before any touch fills its own chunks alike.
        prop_assert_eq!(untouched.memory_bytes(), 0);
        check_reads(&untouched, &values, actions, &probes)?;

        // Whole-table views: digest, equality, serde.
        let fresh = QTable::new_random(states, actions, seed);
        prop_assert_eq!(fresh.value_digest(), oracle_digest(&values));
        prop_assert_eq!(fresh.memory_bytes(), fresh.full_bytes());
        prop_assert_eq!(fresh.full_bytes(), eager.memory_bytes());
        prop_assert!(QTable::new_random(states, actions, seed) == eager);
        prop_assert!(eager == QTable::new_random(states, actions, seed));
        let json = serde_json::to_string(&QTable::new_random(states, actions, seed)).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&eager).unwrap());
        let back: QTable = serde_json::from_str(&json).unwrap();
        prop_assert!(back == eager);

        // Transfer from an untouched donor carries its values over.
        let mut recipient = QTable::new_zeroed(states, actions);
        recipient.transfer_from(&QTable::new_random(states, actions, seed)).unwrap();
        check_reads(&recipient, &values, actions, &probes)?;
        prop_assert!(recipient == eager);

        // Writes interleaved with reads keep lazy and eager in step.
        let (mut lazy, mut eager) = (QTable::new_random(states, actions, seed), eager);
        let mut values = values;
        for (i, &(s, a, v)) in writes.iter().enumerate() {
            let (s, a) = (s % states, a % actions);
            if i % 2 == 0 {
                lazy.set(s, a, v);
                eager.set(s, a, v);
                values[s * actions + a] = v;
            } else {
                lazy.add(s, a, v);
                eager.add(s, a, v);
                values[s * actions + a] += v;
            }
            check_reads(&lazy, &values, actions, &probes)?;
        }
        check_reads(&eager, &values, actions, &probes)?;
        prop_assert!(lazy == eager);
        prop_assert_eq!(lazy.value_digest(), eager.value_digest());
    }
}

#[test]
fn short_jumps_and_chunk_boundaries_match_sequential_draws() {
    // The stepped low bits, the paper table's chunk offsets (64 rows ×
    // 66 actions per chunk), and the edges of the precomputed powers.
    let offsets = [0, 1, 255, 256, 4_224, 4_224 * 47, (1 << 20) - 1, 1 << 20];
    for n in offsets {
        let mut jumped = StdRng::seed_from_u64(9);
        jumped.advance(n);
        let mut stepped = StdRng::seed_from_u64(9);
        for _ in 0..n {
            stepped.next_u64();
        }
        assert_eq!(jumped, stepped, "advance({n})");
    }
}

#[test]
fn jumps_past_the_precomputed_powers_compose() {
    // Jumps of 2^20 and more square further powers on the fly; two
    // half-jumps must land where one full jump does.
    for n in [(1u64 << 20) + 3, 1 << 23, (1 << 40) + 12_345, u64::MAX] {
        let mut once = StdRng::seed_from_u64(3);
        once.advance(n);
        let mut twice = StdRng::seed_from_u64(3);
        twice.advance(n / 2);
        twice.advance(n - n / 2);
        assert_eq!(once, twice, "advance({n})");
    }
}

#[test]
fn paper_scale_digests_are_unchanged() {
    // Digests of the eager fill, recorded before tables became lazy.
    for (seed, digest) in [
        (0, 0x5cb3_4c0f_c56e_64e8),
        (1, 0x0ba2_af41_5632_2fef),
        (0xba5e, 0x65bc_36f0_d606_6cb0),
        (u64::MAX, 0x9eb7_c015_5925_899c),
    ] {
        let q = QTable::new_random(3_072, 66, seed);
        assert_eq!(q.value_digest(), digest, "seed {seed:#x}");
    }
    assert_eq!(
        QTable::new_random(100, 13, 7).value_digest(),
        0xad1c_952f_f729_b2ed
    );
}

#[test]
fn one_network_block_fills_one_chunk() {
    // A session reads only its network's 64-row state block.
    let q = QTable::new_random(3_072, 66, 5);
    let one_chunk = CHUNK_ROWS * (66usize.div_ceil(8) * 64 + 16);
    for s in 128..192 {
        q.best_action(s, &[true; 66]);
    }
    assert_eq!(q.memory_bytes(), one_chunk);
    assert_eq!(q.full_bytes(), 48 * one_chunk);
    q.materialize();
    assert_eq!(q.memory_bytes(), q.full_bytes());
}
