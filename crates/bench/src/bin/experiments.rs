//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p cxrpq-bench --release --bin experiments -- all   > EXPERIMENTS.md
//! cargo run -p cxrpq-bench --release --bin experiments -- e5 e6
//! ```
//!
//! Each experiment corresponds to a paper artefact, named in the header
//! its function prints (e.g. `e1` reproduces Figure 1). The output is
//! self-contained markdown with the shape expectations stated inline.

use cxrpq_bench::{median_ms, table, time_ms};
use cxrpq_core::{
    translate, BoundedEvaluator, CrpqEvaluator, EcrpqEvaluator, Evaluate, GenericEvaluator,
    GenericOutcome, LogEvaluator, Request, SimpleEvaluator, VsfEvaluator,
};
use cxrpq_graph::Alphabet;
use cxrpq_workloads::{genealogy, graphs, messages, reductions, witnesses};
use cxrpq_xregex::normal_form::{chain_family, flat_family, normal_form};
use cxrpq_xregex::ConjunctiveXregex;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!(
        "Reproduction record for Schmid, *Conjunctive Regular Path Queries with\n\
         String Variables* (PODS 2020). The paper is theoretical, so each\n\
         experiment reproduces the *quantitative content* of a figure,\n\
         theorem, or lemma: correctness of a reduction/translation, the shape\n\
         of a complexity curve, or a construction's size blow-up. Regenerate\n\
         with `cargo run -p cxrpq-bench --release --bin experiments -- all`.\n\
         Absolute times are machine-specific; the claims under test are the\n\
         *shapes* and the boolean agreements."
    );
    println!();
    if want("e1") {
        e1_fig1();
    }
    if want("e2") {
        e2_fig2();
    }
    if want("e3") {
        e3_theorem1();
    }
    if want("e4") {
        e4_theorem3();
    }
    if want("e5") {
        e5_lemma3();
    }
    if want("e6") {
        e6_chain_blowup();
    }
    if want("e7") {
        e7_flat();
    }
    if want("e8") {
        e8_bounded();
    }
    if want("e9") {
        e9_hitting_set();
    }
    if want("e10") {
        e10_log();
    }
    if want("e11") {
        e11_union_crpq();
    }
    if want("e12") {
        e12_expressiveness();
    }
    if want("e13") {
        e13_walkthrough();
    }
    if want("e14") {
        e14_crpq();
    }
    if want("e15") {
        e15_ecrpq_er();
    }
    if want("e16") {
        e16_witnesses_and_semantics();
    }
    if want("e17") {
        e17_parallel();
    }
}

// -------------------------------------------------------------------------

fn e1_fig1() {
    println!("## E1 — Figure 1: RPQ/CRPQ examples on genealogy data");
    println!();
    println!(
        "The four Figure 1 graph patterns evaluated on synthetic academic\n\
         genealogies (p = parent, s = supervisor arcs). Expected shape:\n\
         answer counts grow with population; per-query time stays low-order\n\
         polynomial in |D| (Lemma 1: NL data complexity)."
    );
    println!();
    let mut rows = Vec::new();
    for gens in [4usize, 6, 8] {
        let g = genealogy::generate(gens, 8, 0.7, 42);
        let mut alpha = g.db.alphabet().clone();
        let queries = [
            ("G1", genealogy::fig1_g1(&mut alpha)),
            ("G2", genealogy::fig1_g2(&mut alpha)),
            ("G3", genealogy::fig1_g3(&mut alpha)),
            ("G4", genealogy::fig1_g4(&mut alpha)),
        ];
        for (name, q) in &queries {
            let ev = CrpqEvaluator::new(q);
            let (ans, ms) = time_ms(|| ev.answers(&g.db));
            rows.push(vec![
                format!("{gens}×8"),
                g.db.size().to_string(),
                name.to_string(),
                ans.len().to_string(),
                format!("{ms:.2}"),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["population", "‖D‖", "query", "answers", "time (ms)"],
            &rows
        )
    );
}

fn e2_fig2() {
    println!("## E2 — Figure 2: CXRPQ examples on message networks");
    println!();
    println!(
        "Figure 2's G3 (hidden-communication) as a CXRPQ^{{≤3}} on networks\n\
         with planted covert pairs. Expected: 100% planted-pair recall;\n\
         false positives only from genuine coincidental channels."
    );
    println!();
    let mut rows = Vec::new();
    for (pop, noise, planted) in [(12usize, 10usize, 2usize), (20, 20, 3), (30, 30, 4)] {
        let net = messages::generate(pop, 3, noise, planted, 7);
        let mut alpha = net.db.alphabet().clone();
        let q = messages::fig2_g3(&mut alpha);
        let ev = BoundedEvaluator::new(&q, 3);
        let (ans, ms) = time_ms(|| ev.answers(&net.db));
        let recalled = net
            .planted
            .iter()
            .filter(|(v1, v2, _)| ans.contains(&vec![*v1, *v2]))
            .count();
        rows.push(vec![
            pop.to_string(),
            net.db.size().to_string(),
            planted.to_string(),
            format!("{recalled}/{planted}"),
            ans.len().to_string(),
            format!("{ms:.1}"),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "people",
                "‖D‖",
                "planted",
                "recalled",
                "answers",
                "time (ms)"
            ],
            &rows
        )
    );
}

fn e3_theorem1() {
    println!("## E3 — Theorem 1: NFA-intersection reduction (PSpace-hardness witness)");
    println!();
    println!(
        "Random k-NFA intersection instances reduced to the *fixed*\n\
         single-edge query α_ni = #z{{(a|b)*}}(##z)*### and evaluated by\n\
         iterative image-bound deepening (Check(s,t)). Expected: 100%\n\
         agreement with the product-automaton ground truth, and cost that\n\
         grows steeply with k — the paper's point is that a fixed query is\n\
         already PSpace-hard in |D|."
    );
    println!();
    let mut rows = Vec::new();
    for k in 1..=4usize {
        let mut agree = 0;
        let mut total = 0;
        let mut ms_sum = 0.0;
        let mut mappings = 0usize;
        for seed in 0..4u64 {
            let inst = reductions::random_nfa_intersection(k, 3, seed * 31 + k as u64);
            let (db, s, t) = reductions::theorem1_database(&inst);
            let mut alpha = db.alphabet().clone();
            let q = reductions::alpha_ni(&mut alpha);
            let expected = inst.intersection_nonempty();
            let cap = inst.shortest_witness().map(|w| w.len()).unwrap_or(5).max(1);
            let ev = GenericEvaluator::new(&q, cap);
            let (outcome, ms) = time_ms(|| ev.check(&db, &[s, t]));
            let got = matches!(outcome, GenericOutcome::Match { .. });
            let (_, stats) = ev.evaluate_with_stats(&db);
            mappings += stats.mappings;
            agree += usize::from(got == expected);
            total += 1;
            ms_sum += ms;
        }
        rows.push(vec![
            k.to_string(),
            format!("{agree}/{total}"),
            mappings.to_string(),
            format!("{:.2}", ms_sum / total as f64),
        ]);
    }
    println!(
        "{}",
        table(
            &["k (NFAs)", "agreement", "mappings tried", "avg time (ms)"],
            &rows
        )
    );
}

fn e4_theorem3() {
    println!("## E4 — Theorem 3: vstar-free variant α^k_ni");
    println!();
    println!(
        "Same instances through the vstar-free query α^k_ni (size Θ(k)),\n\
         evaluated exactly by the Lemma 7 engine — no image bound needed.\n\
         Expected: 100% agreement; query size grows linearly with k."
    );
    println!();
    let mut rows = Vec::new();
    for k in 1..=3usize {
        let mut agree = 0;
        let mut total = 0;
        let mut ms_sum = 0.0;
        let mut qsize = 0;
        for seed in 0..4u64 {
            let inst = reductions::random_nfa_intersection(k, 3, seed * 17 + k as u64);
            let (db, s, t) = reductions::theorem1_database(&inst);
            let mut alpha = db.alphabet().clone();
            let q = reductions::alpha_kni(k, &mut alpha);
            qsize = q.size();
            let expected = inst.intersection_nonempty();
            let ev = VsfEvaluator::new(&q).expect("vstar-free");
            let (got, ms) = time_ms(|| ev.check(&db, &[s, t]));
            agree += usize::from(got == expected);
            total += 1;
            ms_sum += ms;
        }
        rows.push(vec![
            k.to_string(),
            qsize.to_string(),
            format!("{agree}/{total}"),
            format!("{:.2}", ms_sum / total as f64),
        ]);
    }
    println!(
        "{}",
        table(&["k (NFAs)", "‖q‖", "agreement", "avg time (ms)"], &rows)
    );
}

fn simple_query(alpha: &mut Alphabet) -> cxrpq_core::Cxrpq {
    cxrpq_core::CxrpqBuilder::new(alpha)
        .edge("x", "z{(a|b)+}", "y")
        .edge("y", "c*z", "w")
        .build()
        .expect("static")
}

fn e5_lemma3() {
    println!("## E5 — Lemma 3 / Theorem 2: simple-CXRPQ data-complexity scaling");
    println!();
    println!(
        "Fixed simple query x -z{{(a|b)+}}-> y -c*z-> w on random graphs of\n\
         growing size (|E| = 2|V|, |Σ| = 3). Expected: time and explored\n\
         product states grow polynomially (near-linearly) in |D| — the\n\
         executable face of the NL data-complexity bound."
    );
    println!();
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut rows = Vec::new();
    for exp in 5..=10u32 {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 99);
        let mut a2 = db.alphabet().clone();
        let q = simple_query(&mut a2);
        let ev = SimpleEvaluator::new(&q).expect("simple");
        let (out, ms) =
            time_ms(|| ev.run(&db, Request::Boolean, &Request::Boolean.default_options()));
        rows.push(vec![
            n.to_string(),
            db.size().to_string(),
            out.value.into_bool().to_string(),
            out.states.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &["‖V‖", "‖D‖", "matched", "product states", "time (ms)"],
            &rows
        )
    );
}

fn e6_chain_blowup() {
    println!("## E6 — Theorem 4 / §5.3: exponential normal-form blow-up");
    println!();
    println!(
        "The chain family x₁{{a}}x₂{{x₁x₁}}…x_n{{x_{{n-1}}x_{{n-1}}}}: Step 3\n\
         doubles reference counts at every level. Expected: output size\n\
         roughly doubles per step (the paper's Theorem 4 worst case)."
    );
    println!();
    let a = cxrpq_graph::Symbol(0);
    let mut rows = Vec::new();
    let mut prev = 0usize;
    for n in 2..=10usize {
        let (chain, vars) = chain_family(n, a);
        let cx = ConjunctiveXregex::new(vec![chain], vars).unwrap();
        let ((_, stats), ms) = time_ms(|| normal_form(&cx).unwrap());
        let ratio = if prev > 0 {
            format!("{:.2}", stats.output_size as f64 / prev as f64)
        } else {
            "—".to_string()
        };
        prev = stats.output_size;
        rows.push(vec![
            n.to_string(),
            stats.input_size.to_string(),
            stats.output_size.to_string(),
            ratio,
            format!("{ms:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &["n", "‖ᾱ‖", "‖normal form‖", "growth ×", "time (ms)"],
            &rows
        )
    );
}

fn e7_flat() {
    println!("## E7 — Lemma 8 / Theorem 5: flat variables stay quadratic");
    println!();
    println!(
        "The flat family x₁{{aa}}x₂{{x₁}}…x_n{{x_{{n-1}}}}x_n (all\n\
         definitions basic). Expected: |normal form| ≤ |ᾱ|² — the polynomial\n\
         bound behind Theorem 5's PSpace combined complexity."
    );
    println!();
    let a = cxrpq_graph::Symbol(0);
    let mut rows = Vec::new();
    for n in 2..=12usize {
        let (flat, vars) = flat_family(n, a);
        let cx = ConjunctiveXregex::new(vec![flat], vars).unwrap();
        let (_, stats) = normal_form(&cx).unwrap();
        rows.push(vec![
            n.to_string(),
            stats.input_size.to_string(),
            stats.output_size.to_string(),
            (stats.input_size * stats.input_size).to_string(),
            (stats.output_size <= stats.input_size * stats.input_size).to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["n", "‖ᾱ‖", "‖normal form‖", "‖ᾱ‖²", "≤ quadratic?"],
            &rows
        )
    );
}

fn e8_bounded() {
    println!("## E8 — Theorem 6: CXRPQ^≤k evaluation and the pruning ablation");
    println!();
    println!(
        "(a) Data scaling: fixed query z{{(a|b)+}}cz with k = 2 on growing\n\
         random graphs — expected polynomial (near-linear) growth.\n\
         (b) Combined scaling in k on a fixed graph, with and without\n\
         candidate pruning — expected (|Σ|+1)^{{nk}}-style growth for the\n\
         blind enumeration and far fewer candidate mappings when pruning."
    );
    println!();
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut rows = Vec::new();
    for exp in 5..=9u32 {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 3);
        let mut a2 = db.alphabet().clone();
        let q = cxrpq_core::CxrpqBuilder::new(&mut a2)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .expect("static");
        let ev = BoundedEvaluator::new(&q, 2);
        let ((out, stats), ms) = time_ms(|| {
            ev.run_with_stats(&db, Request::Boolean, &Request::Boolean.default_options())
        });
        rows.push(vec![
            n.to_string(),
            db.size().to_string(),
            out.value.into_bool().to_string(),
            stats.mappings.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!("### (a) |D| sweep, k = 2");
    println!();
    println!(
        "{}",
        table(&["‖V‖", "‖D‖", "matched", "mappings", "time (ms)"], &rows)
    );

    let db = graphs::random_labeled(alpha, 64, 128, 4);
    let mut a2 = db.alphabet().clone();
    let q = cxrpq_core::CxrpqBuilder::new(&mut a2)
        .edge("x", "z{ab*}cz", "y")
        .build()
        .expect("static");
    let mut rows = Vec::new();
    for k in 1..=4usize {
        let (r1, ms1) = time_ms(|| {
            BoundedEvaluator::new(&q, k).run_with_stats(
                &db,
                Request::Boolean,
                &Request::Boolean.default_options(),
            )
        });
        let (r2, ms2) = time_ms(|| {
            BoundedEvaluator::new(&q, k)
                .without_pruning()
                .run_with_stats(&db, Request::Boolean, &Request::Boolean.default_options())
        });
        assert_eq!(r1.0.value, r2.0.value, "ablation changed the verdict");
        rows.push(vec![
            k.to_string(),
            r1.1.mappings.to_string(),
            r2.1.mappings.to_string(),
            format!("{ms1:.2}"),
            format!("{ms2:.2}"),
        ]);
    }
    println!("### (b) k sweep on |V| = 64, pruned vs blind enumeration");
    println!();
    println!(
        "{}",
        table(
            &[
                "k",
                "mappings (pruned)",
                "mappings (blind)",
                "time pruned (ms)",
                "time blind (ms)"
            ],
            &rows
        )
    );
}

fn e9_hitting_set() {
    println!("## E9 — Theorem 7 / Figure 4: Hitting-Set reduction (NP-hardness witness)");
    println!();
    println!(
        "Random Hitting Set instances through the Figure 4 database and the\n\
         single-edge simple CXRPQ^{{≤1}} with (n+2)·k string variables.\n\
         Expected: 100% agreement with brute force and steeply growing cost\n\
         in n·k — single-edge NP-hardness, impossible for acyclic CRPQs."
    );
    println!();
    let mut rows = Vec::new();
    for (n, m, k) in [
        (2usize, 2usize, 1usize),
        (3, 2, 1),
        (4, 2, 1),
        (3, 3, 1),
        (2, 2, 2),
    ] {
        let mut agree = 0;
        let mut total = 0;
        let mut ms_sum = 0.0;
        for seed in 0..3u64 {
            let inst = reductions::random_hitting_set(n, m, 2, k, seed + 100);
            let (db, q) = reductions::theorem7_reduction(&inst);
            let expected = inst.brute_force();
            let ev = BoundedEvaluator::new(&q, 1);
            let (got, ms) = time_ms(|| ev.boolean(&db));
            agree += usize::from(got == expected);
            total += 1;
            ms_sum += ms;
        }
        rows.push(vec![
            format!("n={n}, m={m}, k={k}"),
            ((n + 2) * k).to_string(),
            format!("{agree}/{total}"),
            format!("{:.1}", ms_sum / total as f64),
        ]);
    }
    println!(
        "{}",
        table(
            &["instance", "#variables", "agreement", "avg time (ms)"],
            &rows
        )
    );
}

fn e10_log() {
    println!("## E10 — Corollary 1: CXRPQ^log scaling");
    println!();
    println!(
        "Single-edge query z{{(a|b)+}}cz with k = ⌈log₂|D|⌉ chosen per\n\
         database. Expected: stays feasible as |D| grows (NP combined,\n\
         O(log²|D|) space data complexity); k grows logarithmically."
    );
    println!();
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut rows = Vec::new();
    for exp in 5..=9u32 {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 11);
        let mut a2 = db.alphabet().clone();
        let q = cxrpq_core::CxrpqBuilder::new(&mut a2)
            .edge("x", "z{(a|b)+}cz", "y")
            .build()
            .expect("static");
        // The log engine is the bounded engine at k = ⌈log₂ |D|⌉; run that
        // directly for its enumeration counters.
        let k = LogEvaluator::bound_for(&db);
        let ev = BoundedEvaluator::new(&q, k);
        let ((out, stats), ms) = time_ms(|| {
            ev.run_with_stats(&db, Request::Boolean, &Request::Boolean.default_options())
        });
        rows.push(vec![
            db.size().to_string(),
            k.to_string(),
            out.value.into_bool().to_string(),
            stats.mappings.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &["‖D‖", "k = ⌈log₂‖D‖⌉", "matched", "mappings", "time (ms)"],
            &rows
        )
    );
}

fn e11_union_crpq() {
    println!("## E11 — Lemma 14: the ∪-CRPQ expansion and its conciseness gap");
    println!();
    println!(
        "Expanding z{{(a|b)*}}…z into a union of specialized CRPQs. Expected:\n\
         union size grows like Σ^{{≤k}} (exponential in k), while the direct\n\
         CXRPQ^{{≤k}} evaluator pays only for candidates consistent with the\n\
         query — the conciseness gap the paper highlights in §8."
    );
    println!();
    let alpha = Arc::new(Alphabet::from_chars("ab"));
    let db = graphs::random_labeled(alpha, 48, 96, 13);
    let mut a2 = db.alphabet().clone();
    let q = cxrpq_core::CxrpqBuilder::new(&mut a2)
        .edge("x", "z{(a|b)*}az", "y")
        .build()
        .expect("static");
    let mut rows = Vec::new();
    for k in 0..=4usize {
        let (union, ms_build) = time_ms(|| translate::cxrpq_bounded_to_union_crpq(&q, k, 2));
        let direct = median_ms(3, || {
            let _ = BoundedEvaluator::new(&q, k).boolean(&db);
        });
        let expanded = median_ms(3, || {
            let _ = translate::union_crpq_boolean(&union, &db);
        });
        let total_size: usize = union.iter().map(cxrpq_core::Crpq::size).sum();
        rows.push(vec![
            k.to_string(),
            union.len().to_string(),
            total_size.to_string(),
            format!("{ms_build:.2}"),
            format!("{direct:.2}"),
            format!("{expanded:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "k",
                "∪-CRPQ members",
                "Σ‖qᵢ‖",
                "build (ms)",
                "direct eval (ms)",
                "union eval (ms)"
            ],
            &rows
        )
    );
}

fn e12_expressiveness() {
    println!("## E12 — Figure 5 / §7: the expressiveness matrix");
    println!();
    println!(
        "The separation witnesses evaluated on the proof databases. Expected\n\
         boolean patterns are exactly those used in the proofs of Theorems\n\
         9/10 and Lemmas 15/16 (✓ = matches, ✗ = does not)."
    );
    println!();
    let mut rows = Vec::new();
    // q_anbn on D_{n,m}.
    {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = witnesses::q_anbn(&mut alpha);
        for (n, m) in [(3usize, 3usize), (3, 2), (0, 0), (1, 4)] {
            let (db, _, _) = graphs::d_anbm(n, m);
            let got = EcrpqEvaluator::new(&q).boolean(&db);
            rows.push(vec![
                "q_aⁿbⁿ (ECRPQ, equal-length)".into(),
                format!("D(caⁿc, dbᵐd) n={n} m={m}"),
                (n == m).to_string(),
                got.to_string(),
                (got == (n == m)).to_string(),
            ]);
        }
    }
    // q_anan on D_{n,m} with a-paths.
    {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = witnesses::q_anan(&mut alpha);
        for (n, m) in [(2usize, 2usize), (2, 3)] {
            let (db, _, _) = graphs::d_anam(n, m);
            let got = EcrpqEvaluator::new(&q).boolean(&db);
            rows.push(vec![
                "q_aⁿaⁿ (ECRPQ^er, equality)".into(),
                format!("D(caⁿc, daᵐd) n={n} m={m}"),
                (n == m).to_string(),
                got.to_string(),
                (got == (n == m)).to_string(),
            ]);
        }
    }
    // q1 on D_{σ1,σ2}.
    {
        let mut alpha = Alphabet::from_chars("abcd");
        let q = witnesses::q1(&mut alpha);
        for (s1, s2) in [('a', 'a'), ('a', 'c'), ('a', 'b'), ('b', 'b'), ('b', 'a')] {
            let db = witnesses::d_sigma(s1, s2);
            let expected = s1 == s2 || s2 == 'c';
            let got = BoundedEvaluator::new(&q, 1).boolean(&db);
            rows.push(vec![
                "q₁ (CXRPQ^≤1, Lemma 15)".into(),
                format!("D_(σ₁={s1}, σ₂={s2})"),
                expected.to_string(),
                got.to_string(),
                (got == expected).to_string(),
            ]);
        }
    }
    // q2 on the pumping family.
    {
        let mut alpha = Alphabet::from_chars("abc#");
        let q = witnesses::q2(&mut alpha);
        for (p, qq, r, s, expected) in [
            (1usize, 2usize, 1usize, 2usize, true),
            (1, 2, 2, 2, false),
            (1, 1, 1, 2, false),
            (2, 2, 2, 2, true),
        ] {
            let (db, _, _) = witnesses::pumping_path(p, qq, r, s);
            let got = matches!(
                GenericEvaluator::new(&q, 8).evaluate(&db),
                GenericOutcome::Match { .. }
            );
            rows.push(vec![
                "q₂ (CXRPQ, Lemma 16)".into(),
                format!("#(a^{p}b)^{qq}c(a^{r}b)^{s}#"),
                expected.to_string(),
                got.to_string(),
                (got == expected).to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["witness query", "database", "expected", "measured", "agree"],
            &rows
        )
    );
    // Translation equivalences (Lemmas 12/13) on a sampled workload.
    println!("### Translation equivalences (Lemmas 12 & 13)");
    println!();
    let mut rows = Vec::new();
    {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = graphs::random_labeled(alpha, 24, 48, 5);
        let mut a2 = db.alphabet().clone();
        let mut pattern = cxrpq_core::GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let u = pattern.node("u");
        let v = pattern.node("v");
        let r1 = cxrpq_automata::parse_regex("a(a|b)*", &mut a2).unwrap();
        let r2 = cxrpq_automata::parse_regex("(a|b)*b", &mut a2).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(u, r2, v);
        let er = cxrpq_core::Ecrpq::new(
            pattern,
            vec![(cxrpq_core::RegularRelation::equality(2), vec![0, 1])],
            vec![],
        )
        .unwrap();
        let direct = EcrpqEvaluator::new(&er).boolean(&db);
        let tr = translate::ecrpq_er_to_cxrpq(&er).unwrap();
        let via = VsfEvaluator::new(&tr).unwrap().boolean(&db);
        rows.push(vec![
            "Lemma 12: ECRPQ^er → CXRPQ^vsf,fl".into(),
            direct.to_string(),
            via.to_string(),
            (direct == via).to_string(),
        ]);
        let back = translate::cxrpq_vsf_to_union_ecrpq_er(&tr).unwrap();
        let via2 = translate::union_ecrpq_boolean(&back, &db);
        rows.push(vec![
            "Lemma 13: CXRPQ^vsf → ∪-ECRPQ^er".into(),
            via.to_string(),
            via2.to_string(),
            (via == via2).to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["translation", "source", "translated", "agree"], &rows)
    );
}

fn e13_walkthrough() {
    println!("## E13 — §5.1 worked example: normal-form pipeline statistics");
    println!();
    println!(
        "The paper's γ̄ = (x{{a*y{{b*}}az}} ∨ (x{{b*}}(z ∨ y{{c*}})),\n\
         (a* ∨ x)·z{{y(a|b)}}) through Steps 1–3. Expected shape: 3 and 2\n\
         branches after Step 1 (as in the text), modest growth per step."
    );
    println!();
    let mut alpha = Alphabet::from_chars("abc");
    let (comps, vt) = cxrpq_xregex::parse_conjunctive(
        &["x{a*y{b*}az}|(x{b*}(z|y{c*}))", "(a*|x)z{y(a|b)}"],
        &mut alpha,
    )
    .unwrap();
    let cx = ConjunctiveXregex::new(comps, vt).unwrap();
    let (nf, stats) = normal_form(&cx).unwrap();
    let rows = vec![
        vec!["input ‖ᾱ‖".to_string(), stats.input_size.to_string()],
        vec![
            "after Step 1 (Lemma 4)".to_string(),
            stats.after_step1.to_string(),
        ],
        vec![
            "after Step 2 (Lemma 5)".to_string(),
            stats.after_step2.to_string(),
        ],
        vec!["normal form ‖β̄‖".to_string(), stats.output_size.to_string()],
        vec![
            "branches per component".to_string(),
            format!("{:?}", stats.branches),
        ],
        vec!["fresh variables".to_string(), stats.fresh_vars.to_string()],
    ];
    println!("{}", table(&["stage", "value"], &rows));
    println!("Normal form components:");
    println!();
    for (i, line) in nf.render(&alpha).iter().enumerate() {
        println!("- β{}: `{}`", i + 1, line);
    }
    println!();
}

fn e14_crpq() {
    println!("## E14 — Lemma 1: CRPQ baseline data-complexity scaling");
    println!();
    println!(
        "Fixed 2-edge CRPQ (x -a(a|b)*-> y, y -(b|c)+-> z) on growing random\n\
         graphs — the baseline that E5/E8 curves are compared against.\n\
         Expected: near-linear growth in |D|."
    );
    println!();
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let mut rows = Vec::new();
    for exp in 5..=11u32 {
        let n = 1usize << exp;
        let db = graphs::random_labeled(alpha.clone(), n, 2 * n, 21);
        let mut a2 = db.alphabet().clone();
        let q =
            cxrpq_core::Crpq::build(&[("x", "a(a|b)*", "y"), ("y", "(b|c)+", "z")], &[], &mut a2)
                .unwrap();
        let ev = CrpqEvaluator::new(&q);
        let (out, ms) =
            time_ms(|| ev.run(&db, Request::Boolean, &Request::Boolean.default_options()));
        rows.push(vec![
            n.to_string(),
            db.size().to_string(),
            out.value.into_bool().to_string(),
            out.states.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    println!(
        "{}",
        table(
            &["‖V‖", "‖D‖", "matched", "product states", "time (ms)"],
            &rows
        )
    );
}

fn e15_ecrpq_er() {
    println!("## E15 — §1.3: ECRPQ^er vs. its CXRPQ translation");
    println!();
    println!(
        "Equality-relation workloads evaluated natively (synchronized\n\
         relation product) and through the Lemma 12 CXRPQ^vsf,fl\n\
         translation. Expected: identical answers; comparable growth shape\n\
         (both engines walk the same synchronized product space)."
    );
    println!();
    let mut rows = Vec::new();
    for scale in [16usize, 32, 64] {
        let alpha = Arc::new(Alphabet::from_chars("ab"));
        let db = graphs::random_labeled(alpha.clone(), scale, 2 * scale, 31);
        let mut a2 = db.alphabet().clone();
        let mut pattern = cxrpq_core::GraphPattern::new();
        let x = pattern.node("x");
        let y = pattern.node("y");
        let u = pattern.node("u");
        let v = pattern.node("v");
        let r1 = cxrpq_automata::parse_regex("a(a|b)*", &mut a2).unwrap();
        let r2 = cxrpq_automata::parse_regex("a(a|b)*", &mut a2).unwrap();
        pattern.add_edge(x, r1, y);
        pattern.add_edge(u, r2, v);
        let er = cxrpq_core::Ecrpq::new(
            pattern,
            vec![(cxrpq_core::RegularRelation::equality(2), vec![0, 1])],
            vec![],
        )
        .unwrap();
        let tr = translate::ecrpq_er_to_cxrpq(&er).unwrap();
        let vsf = VsfEvaluator::new(&tr).unwrap();
        let native = median_ms(3, || {
            let _ = EcrpqEvaluator::new(&er).boolean(&db);
        });
        let translated = median_ms(3, || {
            let _ = vsf.boolean(&db);
        });
        let agree = EcrpqEvaluator::new(&er).boolean(&db) == vsf.boolean(&db);
        rows.push(vec![
            db.size().to_string(),
            format!("{native:.2}"),
            format!("{translated:.2}"),
            agree.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["‖D‖", "native ECRPQ^er (ms)", "via CXRPQ (ms)", "agree"],
            &rows
        )
    );
}

// -------------------------------------------------------------------------

fn e16_witnesses_and_semantics() {
    use cxrpq_core::path_semantics::{rpq_holds, PathSemantics};
    use cxrpq_core::CxrpqBuilder;
    use cxrpq_xregex::matcher::MatchConfig;

    println!("## E16 — §8 extensions: witness extraction and path semantics");
    println!();
    println!(
        "Two extensions the paper sketches in §8/§1. (a) Every engine\n\
         returns *certificates* (morphism + paths + variable images); the\n\
         table reports certification agreement with the independent\n\
         backtracking oracle on planted instances. (b) RPQ evaluation under\n\
         arbitrary/trail/simple-path semantics separates on cyclic data\n\
         (\\[34, 36, 35\\] recalled in §1)."
    );
    println!();
    // (a) witness certification sweep.
    let mut rows = Vec::new();
    /// Planted instance: word paths (`"s>t"`, label word), a one-edge
    /// query pattern, and whether a witness must exist.
    type WitnessCase = (&'static [(&'static str, &'static str)], &'static str, bool);
    let cases: &[WitnessCase] = &[
        (
            &[("u>m", "ab"), ("m>v", "c"), ("v>w", "ab")],
            "z{ab|ba}cz",
            true,
        ),
        (
            &[("u>m", "ab"), ("m>v", "c"), ("v>w", "ba")],
            "z{ab|ba}cz",
            false,
        ),
        (&[("u>v", "abab")], "z{ab}z", true),
        (&[("u>v", "abba")], "z{ab}z", false),
        (&[("u>v", "aacaa")], "y{a+}cy", true),
    ];
    for (edges, pat, expect) in cases {
        let alpha = Arc::new(Alphabet::from_chars("abc"));
        let mut db = cxrpq_graph::GraphBuilder::new(alpha);
        let mut names: std::collections::HashMap<String, cxrpq_graph::NodeId> =
            std::collections::HashMap::new();
        for (pair, w) in *edges {
            let (s, t) = pair.split_once('>').unwrap();
            let sn = *names.entry(s.to_string()).or_insert_with(|| db.add_node());
            let tn = *names.entry(t.to_string()).or_insert_with(|| db.add_node());
            let word = db.alphabet().parse_word(w).unwrap();
            db.add_word_path(sn, &word, tn);
        }
        let mut a2 = db.alphabet().clone();
        let db = db.freeze();
        let q = CxrpqBuilder::new(&mut a2)
            .edge("x", pat, "y")
            .build()
            .unwrap();
        let ev = VsfEvaluator::new(&q).unwrap();
        let w = ev.witness(&db);
        let certified = match &w {
            Some(w) => q.certifies(&db, w, &MatchConfig::default()).is_ok(),
            None => false,
        };
        rows.push(vec![
            pat.to_string(),
            expect.to_string(),
            w.is_some().to_string(),
            if w.is_some() {
                certified.to_string()
            } else {
                "—".to_string()
            },
        ]);
    }
    println!(
        "{}",
        table(
            &["query", "expected match", "witness found", "certified"],
            &rows
        )
    );
    // (b) path-semantics separation on the lollipop family.
    let mut rows2 = Vec::new();
    for loops in [1usize, 2, 3] {
        // s ⇄ m cycle plus s → t; word a^{2·loops + 1} forces `loops` cycles.
        let alpha = Arc::new(Alphabet::from_chars("a"));
        let mut db = cxrpq_graph::GraphBuilder::new(alpha);
        let a = db.alphabet().sym("a");
        let s = db.add_node();
        let m = db.add_node();
        let t = db.add_node();
        db.add_edge(s, a, m);
        db.add_edge(m, a, s);
        db.add_edge(s, a, t);
        let word = "a".repeat(2 * loops + 1);
        let mut a2 = db.alphabet().clone();
        let db = db.freeze();
        let nfa =
            cxrpq_automata::Nfa::from_regex(&cxrpq_automata::parse_regex(&word, &mut a2).unwrap());
        rows2.push(vec![
            format!("a^{}", 2 * loops + 1),
            rpq_holds(&db, &nfa, s, t, PathSemantics::Arbitrary).to_string(),
            rpq_holds(&db, &nfa, s, t, PathSemantics::Trail).to_string(),
            rpq_holds(&db, &nfa, s, t, PathSemantics::SimplePath).to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["query word", "arbitrary", "trail", "simple path"], &rows2)
    );
    println!(
        "Expected: certificates exist exactly for matching instances and all\n\
         certify; trail semantics admits one cycle traversal but not two;\n\
         simple-path semantics admits none."
    );
    println!();
}

fn e17_parallel() {
    use cxrpq_core::CxrpqBuilder;

    println!("## E17 — ablation: parallel candidate-mapping enumeration");
    println!();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "Theorem 6's NP guess is an independent enumeration, so it splits\n\
         across threads. Expected shape: speedup approaches min(threads,\n\
         cores) with no change in answers (agreement column). This host has\n\
         {cores} core(s) — on a single-core host the expectation degrades to\n\
         ≈1.0× with bounded thread overhead."
    );
    println!();
    // A full-enumeration workload (answers, blind enumeration) so every
    // thread does its whole share — the shape NP-hard instances take when
    // no early exit fires.
    let alpha = Arc::new(Alphabet::from_chars("abc"));
    let db = graphs::random_labeled(alpha, 512, 1536, 9);
    let mut a2 = db.alphabet().clone();
    let q = CxrpqBuilder::new(&mut a2)
        .edge("x", "y{(a|b)+}c", "m")
        .edge("m", "z{y(a|b)}cz", "n")
        .output(&["x", "n"])
        .build()
        .unwrap();
    let ev = BoundedEvaluator::new(&q, 3).without_pruning();
    let serial = ev.answers(&db);
    let base = median_ms(3, || {
        let _ = ev.answers(&db);
    });
    let mut rows = vec![vec![
        "1".to_string(),
        format!("{base:.2}"),
        "1.00".to_string(),
        "true".to_string(),
    ]];
    for threads in [2usize, 4, 8] {
        let parallel = || {
            let opts = Request::Answers.default_options();
            ev.run_parallel(&db, Request::Answers, &opts, threads)
                .value
                .into_tuples()
        };
        let t = median_ms(3, || {
            let _ = parallel();
        });
        let agree = parallel() == serial;
        rows.push(vec![
            threads.to_string(),
            format!("{t:.2}"),
            format!("{:.2}", base / t.max(1e-9)),
            agree.to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["threads", "time (ms)", "speedup", "agree"], &rows)
    );
}
