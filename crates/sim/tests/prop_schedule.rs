//! Property test: `NemesisSchedule`, which re-reads its control only when
//! the control's version moves, against a brute-force copy that re-reads
//! the demoted and flickering sets on every decision.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tbwf_sim::{NemesisSchedule, ProcId, Schedule, ScheduleCtl, ScheduleView};

#[derive(Clone, Copy, Default)]
struct SlowState {
    active: bool,
    next_due: u64,
    gap: u64,
}

#[derive(Clone, Copy, Default)]
struct FlickState {
    active: bool,
    on: bool,
    until: u64,
    quiet: u64,
}

/// The reference: the same pacing rules, with the control sets held here
/// and synced into the per-process state on every decision.
#[derive(Default)]
struct Reference {
    demoted: BTreeSet<usize>,
    flickering: BTreeSet<usize>,
    cursor: usize,
    slow: Vec<SlowState>,
    flick: Vec<FlickState>,
}

impl Reference {
    fn sync(&mut self, n: usize, t: u64) {
        self.slow.resize(n, SlowState::default());
        self.flick.resize(n, FlickState::default());
        for p in 0..n {
            let demoted = self.demoted.contains(&p);
            if demoted && !self.slow[p].active {
                self.slow[p] = SlowState {
                    active: true,
                    next_due: t + 8,
                    gap: 8,
                };
            } else if !demoted {
                self.slow[p].active = false;
            }
            let flickering = self.flickering.contains(&p);
            if flickering && !self.flick[p].active {
                self.flick[p] = FlickState {
                    active: true,
                    on: true,
                    until: t + 32,
                    quiet: 64,
                };
            } else if !flickering {
                self.flick[p].active = false;
            }
            let f = &mut self.flick[p];
            if f.active && t >= f.until {
                if f.on {
                    f.on = false;
                    f.until = t + f.quiet;
                    f.quiet = (f.quiet * 2).min(1 << 40);
                } else {
                    f.on = true;
                    f.until = t + 32;
                }
            }
        }
    }

    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let (n, t) = (view.n, view.time);
        self.sync(n, t);
        for p in 0..n {
            let s = &mut self.slow[p];
            if s.active && view.runnable[p] && t >= s.next_due {
                s.gap = (s.gap * 2).min(1 << 40);
                s.next_due = t + s.gap;
                return ProcId(p);
            }
        }
        for k in 0..n {
            let p = (self.cursor + k) % n;
            let eligible = view.runnable[p]
                && !self.slow[p].active
                && (!self.flick[p].active || self.flick[p].on);
            if eligible {
                self.cursor = p + 1;
                return ProcId(p);
            }
        }
        (0..n)
            .map(|k| (self.cursor % n.max(1) + k) % n)
            .find(|&p| view.runnable[p])
            .map_or(ProcId(0), ProcId)
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        (0..n)
            .filter(|p| !self.demoted.contains(p) && !self.flickering.contains(p))
            .map(ProcId)
            .collect()
    }
}

/// One control call: 0 demote, 1 promote, 2 flicker start, 3 flicker stop.
fn apply(op: u32, p: usize, ctl: &ScheduleCtl, reference: &mut Reference) {
    match op {
        0 => {
            ctl.demote(ProcId(p));
            reference.demoted.insert(p);
        }
        1 => {
            ctl.promote(ProcId(p));
            reference.demoted.remove(&p);
        }
        2 => {
            ctl.flicker_start(ProcId(p));
            reference.flickering.insert(p);
        }
        _ => {
            ctl.flicker_stop(ProcId(p));
            reference.flickering.remove(&p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical decisions and `intended_timely` at every step, under
    /// random control calls (ids past `n` included, which both ignore)
    /// and random runnable masks (an empty mask included).
    #[test]
    fn nemesis_schedule_matches_per_step_sync(
        n in 1usize..9,
        horizon in 1_000u64..4_000,
        calls in prop::collection::vec((0u64..4_000, 0u32..4, 0usize..10), 0..40),
        masks in prop::collection::vec((0u64..4_000, 0u64..256), 0..20),
    ) {
        let ctl = ScheduleCtl::new();
        let mut fast = NemesisSchedule::new(ctl.clone());
        let mut reference = Reference::default();
        let mut runnable = vec![true; n];
        for t in 0..horizon {
            for &(_, m) in masks.iter().filter(|&&(at, _)| at == t) {
                for (p, r) in runnable.iter_mut().enumerate() {
                    *r = m & (1 << p) != 0;
                }
            }
            for &(_, op, p) in calls.iter().filter(|&&(at, _, _)| at == t) {
                apply(op, p, &ctl, &mut reference);
            }
            let view = ScheduleView { n, runnable: &runnable, time: t };
            let (got, want) = (fast.next(&view), reference.next(&view));
            prop_assert_eq!(got, want, "decision at t = {}", t);
            prop_assert_eq!(fast.intended_timely(n), reference.intended_timely(n));
        }
    }
}
