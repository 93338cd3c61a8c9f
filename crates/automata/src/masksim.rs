//! Bitmask subset simulation for NFAs.
//!
//! The synchronized product search of `cxrpq-core` keeps one NFA state
//! *set* per walker in every product configuration; with `Vec<bool>`
//! representations each configuration costs a heap allocation per walker
//! and hashing costs a pass over `|Q|` bytes. A [`MaskSim`] precomputes,
//! for every state, the ε-closure of each transition target as a bitmask,
//! so state sets become `⌈|Q|/64⌉` machine words: stepping is a handful of
//! OR instructions over the set bits and hashing/equality are word-wise.

use crate::nfa::{Label, Nfa, StateId};
use cxrpq_graph::Symbol;

/// Precomputed bitmask simulation tables for one [`Nfa`].
#[derive(Clone, Debug)]
pub struct MaskSim {
    state_count: usize,
    words: usize,
    /// Non-ε transitions as `(label, target state index)`, grouped by
    /// source state: state `s` owns `trans[trans_off[s]..trans_off[s + 1]]`.
    /// The target's ε-closure mask lives at `closures[target · words ..]`.
    trans: Vec<(Label, usize)>,
    trans_off: Vec<usize>,
    /// Flattened masks, `words` words each: the ε-closure of every state
    /// (row `s`), then the ε-closed start set (row `|Q|`) and the
    /// final-state mask (row `|Q| + 1`).
    closures: Vec<u64>,
}

impl MaskSim {
    /// Builds the tables: `O(|Q| · |δ|)` time, `O(|Q|² / 64 + |δ|)` space,
    /// and a constant number of allocations (short-lived automata build
    /// these tables once per search).
    pub fn new(nfa: &Nfa) -> Self {
        let n = nfa.state_count();
        let words = n.div_ceil(64).max(1);
        // ε-closure mask per state, by one depth-first walk each.
        let mut closures = vec![0u64; (n + 2) * words];
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        for (s, row) in closures[..n * words].chunks_exact_mut(words).enumerate() {
            row[s / 64] |= 1 << (s % 64);
            stack.push(s);
            while let Some(p) = stack.pop() {
                for &(l, t) in nfa.transitions(StateId(p as u32)) {
                    let t = t.index();
                    if l == Label::Eps && row[t / 64] & (1 << (t % 64)) == 0 {
                        row[t / 64] |= 1 << (t % 64);
                        stack.push(t);
                    }
                }
            }
        }
        let si = nfa.start().index();
        closures.copy_within(si * words..(si + 1) * words, n * words);
        for f in nfa.final_states() {
            closures[(n + 1) * words + f.index() / 64] |= 1 << (f.index() % 64);
        }
        // Non-ε transitions only: ε-moves are folded into the closures.
        let mut trans = Vec::with_capacity(nfa.transition_count());
        let mut trans_off = Vec::with_capacity(n + 1);
        trans_off.push(0);
        for s in nfa.states() {
            trans.extend(
                nfa.transitions(s)
                    .iter()
                    .filter(|&&(l, _)| l != Label::Eps)
                    .map(|&(l, t)| (l, t.index())),
            );
            trans_off.push(trans.len());
        }
        Self {
            state_count: n,
            words,
            trans,
            trans_off,
            closures,
        }
    }

    /// Number of NFA states |Q|.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Words per state-set mask (`⌈|Q|/64⌉`, at least 1).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The ε-closed start set.
    pub fn start_mask(&self) -> &[u64] {
        let n = self.state_count;
        &self.closures[n * self.words..(n + 1) * self.words]
    }

    /// One symbol step on a closed mask, OR-ing the closed result into
    /// `out` (callers zero `out` first). Returns `true` when any state
    /// remains alive.
    pub fn step_into(&self, cur: &[u64], a: Symbol, out: &mut [u64]) -> bool {
        debug_assert_eq!(cur.len(), self.words);
        debug_assert_eq!(out.len(), self.words);
        for (wi, &w) in cur.iter().enumerate() {
            let mut m = w;
            while m != 0 {
                let s = wi * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                for &(l, t) in &self.trans[self.trans_off[s]..self.trans_off[s + 1]] {
                    if l.reads(a) {
                        let c = &self.closures[t * self.words..(t + 1) * self.words];
                        for (o, &cw) in out.iter_mut().zip(c) {
                            *o |= cw;
                        }
                    }
                }
            }
        }
        out.iter().any(|&w| w != 0)
    }

    /// One symbol step, allocating the result mask.
    pub fn step(&self, cur: &[u64], a: Symbol) -> Vec<u64> {
        let mut out = vec![0u64; self.words];
        self.step_into(cur, a, &mut out);
        out
    }

    /// The final-state mask.
    pub fn final_mask(&self) -> &[u64] {
        &self.closures[(self.state_count + 1) * self.words..]
    }

    /// Whether the mask contains a final state.
    #[inline]
    pub fn any_final(&self, mask: &[u64]) -> bool {
        mask.iter()
            .zip(self.final_mask())
            .any(|(&m, &f)| m & f != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use cxrpq_graph::Alphabet;

    fn sim_of(pattern: &str) -> (MaskSim, Nfa, Alphabet) {
        let mut a = Alphabet::from_chars("abc");
        let nfa = Nfa::from_regex(&parse_regex(pattern, &mut a).unwrap());
        (MaskSim::new(&nfa), nfa, a)
    }

    /// Mask-based acceptance must agree with the Vec<bool> simulation.
    fn accepts_mask(sim: &MaskSim, w: &[Symbol]) -> bool {
        let mut cur = sim.start_mask().to_vec();
        for &a in w {
            let next = sim.step(&cur, a);
            if next.iter().all(|&x| x == 0) {
                return false;
            }
            cur = next;
        }
        sim.any_final(&cur)
    }

    #[test]
    fn agrees_with_subset_simulation() {
        for pattern in ["a(b|c)*", "a+b+", "(ab)*|c", "_", ".*b", "!"] {
            let (sim, nfa, alpha) = sim_of(pattern);
            for text in ["", "a", "ab", "abc", "abcb", "b", "cab", "aabb"] {
                let w = alpha.parse_word(text).unwrap();
                assert_eq!(
                    accepts_mask(&sim, &w),
                    nfa.accepts(&w),
                    "pattern {pattern:?}, word {text:?}"
                );
            }
        }
    }

    #[test]
    fn multiword_masks() {
        // A concatenation long enough to exceed 64 Thompson states.
        let pattern = "abcabcabcabcabcabcabcabcabcabcabcabc";
        let (sim, nfa, alpha) = sim_of(pattern);
        assert!(sim.state_count() > 64);
        assert!(sim.words() >= 2);
        let w = alpha.parse_word(pattern).unwrap();
        assert!(accepts_mask(&sim, &w));
        assert!(nfa.accepts(&w));
        let short = alpha.parse_word("abc").unwrap();
        assert!(!accepts_mask(&sim, &short));
    }
}
