//! Morsel-parallel execution is *bit-identical* to serial execution: the
//! scheduler merges per-morsel outputs in morsel order, so thread count
//! must never change a result — not even row order. Property tests sweep
//! random graphs × random patterns × thread counts (1, 2, 8) through both
//! the indexed and the hash-fallback execution regimes, and through the
//! seed-partitioned homomorphism counter.

#[path = "support/random_graph.rs"]
mod random_graph;

use proptest::prelude::*;
use random_graph::*;
use relgo::glogue::counting::count_homomorphisms;
use relgo::prelude::*;

/// The session over `g` that runs each query on `threads` threads.
fn session(g: &RandomGraph, threads: usize) -> Session {
    let options = SessionOptions {
        threads,
        ..SessionOptions::default()
    };
    build_session(g, options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        g in random_graph(),
        shape in shapes(),
        filt in any::<bool>(),
    ) {
        let serial = session(&g, 1);
        let query = query_for(pattern_of(&shape), filt);
        // RelGo exercises the indexed expansions, RelGoHash the hash-
        // fallback adjacency (flat multimap) path.
        for mode in [OptimizerMode::RelGo, OptimizerMode::RelGoHash] {
            let base = serial.run(&query, mode).unwrap();
            for threads in [2usize, 8] {
                let par = session(&g, threads);
                let out = par.run(&query, mode).unwrap();
                prop_assert!(
                    base.table.bit_identical(&out.table),
                    "{:?} with {} threads diverges on {:?}",
                    mode, threads, shape
                );
            }
        }
        // And the parallel run still agrees with the oracle.
        let par = session(&g, 8);
        let expected = serial.oracle(&query).unwrap().sorted_rows();
        prop_assert_eq!(par.run(&query, OptimizerMode::RelGo).unwrap().table.sorted_rows(), expected);
    }

    #[test]
    fn parallel_counting_is_count_identical_to_serial(
        g in random_graph(),
        shape in shapes(),
        stride in 1usize..4,
    ) {
        let session = session(&g, 1);
        let pattern = pattern_of(&shape);
        let view = session.view();
        let serial = count_homomorphisms(&view, &pattern, stride, 1).unwrap();
        for threads in [2usize, 8] {
            let par = count_homomorphisms(&view, &pattern, stride, threads).unwrap();
            prop_assert_eq!(par, serial, "{} threads, stride {}", threads, stride);
        }
    }
}

#[test]
fn parallel_session_composes_with_plan_cache() {
    // run_cached on a threads>1 session: hits rebind and execute in
    // parallel; results equal the serial cold run.
    let g = RandomGraph {
        n_a: 5,
        n_b: 4,
        x_edges: vec![(0, 1), (1, 1), (2, 3), (4, 0), (3, 2), (1, 0)],
        y_edges: vec![(0, 1), (1, 2), (2, 0), (3, 4)],
    };
    let serial = session(&g, 1);
    let par = session(&g, 4);
    let query = query_for(pattern_of(&PatternShape::Triangle), false);
    let base = serial.run(&query, OptimizerMode::RelGo).unwrap();
    let cold = par.run_cached(&query, OptimizerMode::RelGo).unwrap();
    let warm = par.run_cached(&query, OptimizerMode::RelGo).unwrap();
    assert!(!cold.cached);
    assert!(warm.cached);
    assert!(base.table.bit_identical(&cold.table));
    assert!(base.table.bit_identical(&warm.table));
}
