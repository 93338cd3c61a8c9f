//! # cxrpq — Conjunctive Regular Path Queries with String Variables
//!
//! A Rust implementation of the query classes, algorithms, fragments and
//! reductions of **Markus L. Schmid, "Conjunctive Regular Path Queries with
//! String Variables" (PODS 2020, arXiv:1912.09326)**.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! - [`graph`] — edge-labelled graph databases (§2.2);
//! - [`automata`] — classical regular expressions and NFAs (§2.2, §3);
//! - [`xregex`] — xregex (regular expressions with string variables),
//!   ref-words, conjunctive xregex, fragment classification, normal forms
//!   (§2.1, §3, §5);
//! - [`core`] — CRPQ / CXRPQ / ECRPQ query types and every evaluation
//!   algorithm from the paper (§4–§7);
//! - [`workloads`] — generators for the paper's database families, motivating
//!   examples, and hardness-reduction instances.
//!
//! ## Quickstart
//!
//! ```
//! use cxrpq::prelude::*;
//!
//! // A tiny graph database over Σ = {a, b, c}.
//! let mut alpha = Alphabet::from_chars("abc");
//! // Query: pairs (x, y) connected by a path w c w for some w ∈ (a|b)+,
//! // expressed with a string variable: z{(a|b)+} c z.
//! let q = CxrpqBuilder::new(&mut alpha)
//!     .edge("x", "z{(a|b)+}cz", "y")
//!     .output(&["x", "y"])
//!     .build()
//!     .unwrap();
//!
//! let mut db = GraphBuilder::new(std::sync::Arc::new(alpha));
//! let w = db.alphabet().parse_word("ab").unwrap();
//! let c = db.alphabet().parse_word("c").unwrap();
//! let u = db.add_node();
//! let m1 = db.add_node();
//! let m2 = db.add_node();
//! let v = db.add_node();
//! db.add_word_path(u, &w, m1);
//! db.add_word_path(m1, &c, m2);
//! db.add_word_path(m2, &w, v);
//! let db = db.freeze(); // CSR-indexed, immutable query form
//!
//! // Evaluate with the bounded-image-size engine (CXRPQ^{≤k}, Theorem 6).
//! let answers = BoundedEvaluator::new(&q, 2).answers(&db);
//! assert!(answers.contains(&vec![u, v]));
//! ```
//!
//! ## Workspace layout
//!
//! This is the facade of a Cargo workspace; the members and their
//! dependency order (each crate depends only on those after it):
//!
//! | crate | path | role |
//! |---|---|---|
//! | `cxrpq-cli` | `crates/cli` | command-line frontend |
//! | `cxrpq-bench` | `crates/bench` | criterion benches + `experiments` binary |
//! | `cxrpq-workloads` | `crates/workloads` | database families, random queries, reductions |
//! | `cxrpq-core` | `crates/core` | query types, engines, translations, planner |
//! | `cxrpq-xregex` | `crates/xregex` | xregex, ref-words, fragments, normal forms |
//! | `cxrpq-automata` | `crates/automata` | classical regexes, NFA/DFA, mask simulation |
//! | `cxrpq-graph` | `crates/graph` | alphabets, builder/frozen CSR graph databases, bitsets, paths, I/O |
//!
//! Graph storage is split into a mutable [`graph::GraphBuilder`] and the
//! immutable, CSR-indexed [`graph::GraphDb`] it freezes into: label-sorted
//! adjacency rows give contiguous per-`(node, label)` slices, and a
//! monotonically increasing `generation()` id lets node-keyed caches
//! detect cross-database reuse. The product-search hot loops in
//! `cxrpq-core` ride on this with dense-bitset visited sets and bitmask
//! NFA state sets; `cargo bench -p cxrpq-bench --bench e16_reach_csr`
//! measures the layout against the pre-CSR representation (results
//! recorded in `BENCH_reach.json`). On top sits the level-synchronous
//! frontier engine (`cxrpq_core::frontier`): `reach_all` batches
//! multi-source product reachability into 64-source membership-stripe
//! wavefronts, and both it and the synchronized search shard fat BFS
//! levels across scoped worker threads (`cargo bench -p cxrpq-bench
//! --bench e17_parallel_reach`, results in `BENCH_parallel.json`).
//!
//! Third-party APIs (`rand`, `proptest`, `criterion`) resolve to offline
//! shims under `shims/`, pinned in `[workspace.dependencies]` — see the
//! top-level `README.md`.
//!
//! Tier-1 verification, from the repo root (covers every member crate,
//! integration suite, doc-test and example):
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```

pub use cxrpq_automata as automata;
pub use cxrpq_core as core;
pub use cxrpq_graph as graph;
pub use cxrpq_workloads as workloads;
pub use cxrpq_xregex as xregex;

/// Convenient re-exports of the most frequently used types.
pub mod prelude {
    pub use cxrpq_automata::{nfa_equivalent, parse_regex, Dfa, Nfa, Regex};
    pub use cxrpq_core::{
        parse_query, render_query, AutoEvaluator, BoundedEvaluator, Crpq, CrpqEvaluator, Cxrpq,
        CxrpqBuilder, Ecrpq, EcrpqEvaluator, EngineKind, EvalOptions, Evaluate, GenericEvaluator,
        LogEvaluator, PathSemantics, QueryWitness, RegularRelation, Request, SimpleEvaluator,
        UnionCrpq, UnionEcrpq, VsfEvaluator,
    };
    pub use cxrpq_graph::{
        read_graph, write_graph, Alphabet, DenseBitSet, GraphBuilder, GraphDb, NodeId, Path, Symbol,
    };
    pub use cxrpq_xregex::{parse_xregex, ConjunctiveXregex, Fragment, Xregex};
}
