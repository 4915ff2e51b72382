//! Exhaustive bounded enumeration of decision-window assignments.
//!
//! A **leaf** fixes one complete assignment of the window: the process
//! stepping at each of the `depth` slots and the slots (if any) at which
//! catalogue injections fire. The enumerator walks the decision tree
//! depth-first — at each slot, every admissible *step* move first, then
//! every admissible *injection* move — so the emitted leaf list is a
//! canonical total order, identical on every machine and for every
//! worker count.
//!
//! Three mechanisms bound the tree:
//!
//! * the **preemption bound**: switching the stepping process between
//!   consecutive slots costs one preemption (free when the previous
//!   process crashed), CHESS-style;
//! * the **injection budget**: at most `max_injections` catalogue
//!   entries are placed, each at most once, same-slot placements in
//!   increasing catalogue order (the canonical representative of the
//!   same-instant firing order);
//! * **sleep-set pruning**: if every injection placed at a slot is
//!   transparent to the process chosen to step there, delaying those
//!   injections one slot yields a step-for-step identical run — and
//!   because step moves enumerate before injection moves, the delayed
//!   placement lives in an earlier subtree that is already explored.
//!   The branch is dropped and counted, never run.

use crate::config::CheckConfig;
use tbwf_sim::ProcId;

/// One complete window assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// The process stepping at each window slot, in slot order.
    pub steps: Vec<ProcId>,
    /// Placed injections as `(slot, catalogue index)`, sorted by that
    /// pair; the injection fires *before* the slot's step.
    pub injections: Vec<(usize, usize)>,
}

impl Leaf {
    /// Human-readable one-line description, e.g.
    /// `steps p0 p0 p1 | inject cand[0] := false @ slot 1`.
    pub fn describe(&self, cfg: &CheckConfig) -> String {
        let steps: Vec<String> = self.steps.iter().map(|p| format!("p{}", p.0)).collect();
        let mut s = format!("steps {}", steps.join(" "));
        for &(slot, cat) in &self.injections {
            s.push_str(&format!(
                " | inject {} @ slot {slot}",
                cfg.catalogue[cat].label
            ));
        }
        s
    }
}

/// The canonical leaf list plus enumeration statistics.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// Every explorable leaf, in canonical (depth-first) order.
    pub leaves: Vec<Leaf>,
    /// Branches dropped by the sleep-set rule (each subsumed by an
    /// earlier-enumerated equivalent subtree).
    pub pruned_branches: u64,
}

struct SearchState {
    steps: Vec<ProcId>,
    injections: Vec<(usize, usize)>,
    used: Vec<bool>,
    crashed: Vec<bool>,
}

/// Enumerates every leaf of `cfg`'s decision tree, in canonical order.
/// Pure: equal configurations produce equal enumerations.
pub fn enumerate(cfg: &CheckConfig) -> Enumeration {
    let mut en = Enumeration {
        leaves: Vec::new(),
        pruned_branches: 0,
    };
    let mut st = SearchState {
        steps: Vec::with_capacity(cfg.depth),
        injections: Vec::new(),
        used: vec![false; cfg.catalogue.len()],
        crashed: vec![false; cfg.scenario.n],
    };
    descend(cfg, &mut st, &mut en, 0, None, 0, None);
    en
}

/// One decision point: place the step of `slot` (after optionally adding
/// injections to it). `last` is the previous slot's process, `preempt`
/// the preemptions spent so far, and `slot_cat` the highest catalogue
/// index already placed at this slot (same-slot canonical order).
fn descend(
    cfg: &CheckConfig,
    st: &mut SearchState,
    en: &mut Enumeration,
    slot: usize,
    last: Option<usize>,
    preempt: usize,
    slot_cat: Option<usize>,
) {
    if slot == cfg.depth {
        en.leaves.push(Leaf {
            steps: st.steps.clone(),
            injections: st.injections.clone(),
        });
        return;
    }
    // Step moves first. Deferring an injection places it at a later
    // slot, so a right-shifted placement always lives in an
    // earlier-enumerated subtree — the invariant the sleep-set rule
    // below relies on.
    let trailing = st.injections.iter().position(|&(s, _)| s == slot);
    for p in 0..cfg.scenario.n {
        if st.crashed[p] {
            continue;
        }
        let cost = match last {
            None => 0,
            Some(q) if q == p || st.crashed[q] => 0,
            Some(_) => 1,
        };
        if preempt + cost > cfg.preemptions {
            continue;
        }
        if let Some(ts) = trailing {
            // Sleep-set rule: every injection placed at this slot is
            // transparent to a step of `p`, and the next slot exists, so
            // the run with those injections delayed one slot is
            // step-for-step identical and already enumerated. Drop the
            // branch.
            let all_transparent = st.injections[ts..].iter().all(|&(_, c)| {
                cfg.catalogue[c]
                    .transparent_to_others
                    .is_some_and(|o| o != p)
            });
            if all_transparent && slot + 1 < cfg.depth {
                en.pruned_branches += 1;
                continue;
            }
        }
        st.steps.push(ProcId(p));
        descend(cfg, st, en, slot + 1, Some(p), preempt + cost, None);
        st.steps.pop();
    }
    // Injection moves: catalogue entries in increasing index order
    // within a slot, each placed at most once per leaf.
    if st.injections.len() < cfg.max_injections {
        let from = slot_cat.map_or(0, |c| c + 1);
        for c in from..cfg.catalogue.len() {
            if st.used[c] {
                continue;
            }
            if let Some(t) = cfg.catalogue[c].crashes() {
                // Crashing an already-crashed process is a no-op; the
                // placement would duplicate the crash-free leaf.
                if st.crashed[t] {
                    continue;
                }
            }
            st.used[c] = true;
            st.injections.push((slot, c));
            let crash_target = cfg.catalogue[c].crashes();
            if let Some(t) = crash_target {
                st.crashed[t] = true;
            }
            descend(cfg, st, en, slot, last, preempt, Some(c));
            if let Some(t) = crash_target {
                st.crashed[t] = false;
            }
            st.injections.pop();
            st.used[c] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectionSpec;
    use tbwf_bench::gauntlet::{Scenario, SystemKind};
    use tbwf_sim::FaultPlan;

    fn cfg(
        n: usize,
        depth: usize,
        preemptions: usize,
        max_injections: usize,
        catalogue: Vec<InjectionSpec>,
    ) -> CheckConfig {
        CheckConfig {
            name: "enum-test".into(),
            scenario: Scenario {
                seed: 1,
                kind: SystemKind::OmegaAtomic,
                n,
                steps: 1_000,
                settle: 500,
                self_punish: true,
                plan: FaultPlan::new(),
            },
            window_start: 100,
            depth,
            preemptions,
            max_injections,
            catalogue,
        }
    }

    #[test]
    fn unbounded_preemptions_give_all_step_sequences() {
        let en = enumerate(&cfg(2, 3, 3, 0, vec![]));
        assert_eq!(en.leaves.len(), 8); // 2^3
        assert_eq!(en.pruned_branches, 0);
        // Canonical order starts with the all-p0 leaf and ends all-p1.
        assert!(en.leaves[0].steps.iter().all(|p| p.0 == 0));
        assert!(en.leaves[7].steps.iter().all(|p| p.0 == 1));
    }

    #[test]
    fn zero_preemptions_allow_only_solo_runs() {
        let en = enumerate(&cfg(3, 4, 0, 0, vec![]));
        assert_eq!(en.leaves.len(), 3); // one solo leaf per process
        for leaf in &en.leaves {
            assert!(leaf.steps.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn preemption_bound_counts_context_switches() {
        // Length-3 binary sequences with at most one switch:
        // per starting process C(2,0) + C(2,1) = 3, so 6 total.
        let en = enumerate(&cfg(2, 3, 1, 0, vec![]));
        assert_eq!(en.leaves.len(), 6);
    }

    #[test]
    fn opaque_injection_is_placed_at_every_slot() {
        // A dial turn commutes with nothing: 4 step sequences × (no
        // injection + 2 slots) = 12 leaves, nothing pruned.
        let en = enumerate(&cfg(2, 2, 2, 1, vec![InjectionSpec::dial("storm", 1)]));
        assert_eq!(en.leaves.len(), 12);
        assert_eq!(en.pruned_branches, 0);
    }

    #[test]
    fn transparent_injection_keeps_only_rightmost_placement() {
        // cand[0] churn is transparent to p1's steps. Placing it at slot
        // 0 and stepping p1 is equivalent to delaying it to slot 1, so
        // that branch is pruned: 4 step-only leaves, + slot-0 placement
        // followed by p0 (2 leaves), + slot-1 placements (2 prefixes × 2
        // final steps = 4 leaves).
        let en = enumerate(&cfg(2, 2, 2, 1, vec![InjectionSpec::candidacy(0, false)]));
        assert_eq!(en.leaves.len(), 10);
        assert_eq!(en.pruned_branches, 1);
        // No surviving leaf has the transparent injection at slot 0
        // followed by a step of a process other than its owner.
        for leaf in &en.leaves {
            for &(slot, _) in &leaf.injections {
                if slot + 1 < 2 {
                    assert_eq!(leaf.steps[slot].0, 0, "non-rightmost placement survived");
                }
            }
        }
    }

    #[test]
    fn crash_injection_removes_the_victim_from_later_slots() {
        // crash(p1): 4 step-only leaves; crash at slot 0 forces p0 at
        // both slots (1 leaf); crash at slot 1 allows both prefixes but
        // forces p0 at the final slot (2 leaves).
        let en = enumerate(&cfg(2, 2, 2, 1, vec![InjectionSpec::crash(1)]));
        assert_eq!(en.leaves.len(), 7);
        for leaf in &en.leaves {
            for &(slot, _) in &leaf.injections {
                for s in slot..2 {
                    assert_ne!(leaf.steps[s].0, 1, "crashed process still stepped");
                }
            }
        }
    }

    #[test]
    fn switching_away_from_a_crashed_process_is_free() {
        // With zero preemptions and crash(p0): the leaf p0, crash@1, p1
        // must exist — the switch after the crash costs nothing.
        let en = enumerate(&cfg(2, 2, 0, 1, vec![InjectionSpec::crash(0)]));
        assert!(en
            .leaves
            .iter()
            .any(|l| { l.steps == vec![ProcId(0), ProcId(1)] && l.injections == vec![(1, 0)] }));
    }

    #[test]
    fn injection_budget_caps_placements() {
        let two = vec![
            InjectionSpec::candidacy(0, false),
            InjectionSpec::candidacy(0, true),
        ];
        let budget1 = enumerate(&cfg(2, 2, 2, 1, two.clone()));
        assert!(budget1.leaves.iter().all(|l| l.injections.len() <= 1));
        let budget2 = enumerate(&cfg(2, 2, 2, 2, two));
        assert!(budget2.leaves.iter().any(|l| l.injections.len() == 2));
        assert!(budget2.leaves.len() > budget1.leaves.len());
        // Same-slot placements appear in increasing catalogue order.
        for leaf in &budget2.leaves {
            for w in leaf.injections.windows(2) {
                assert!(w[0] < w[1], "placements out of canonical order");
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let c = cfg(
            3,
            3,
            1,
            1,
            vec![InjectionSpec::crash(2), InjectionSpec::dial("calm", 0)],
        );
        let a = enumerate(&c);
        let b = enumerate(&c);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.pruned_branches, b.pruned_branches);
    }
}
