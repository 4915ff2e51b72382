//! Schedules: the adversary that decides which process steps next.
//!
//! A schedule controls the *degree of partial synchrony* of a run. The
//! paper's timeliness notion (Definitions 1–2) is relative: `p` is timely
//! iff there is a bound `i` such that every `i` consecutive steps of the
//! system contain a step of `p`. The schedules below realize the regimes
//! studied in the paper:
//!
//! * [`RoundRobin`] — all correct processes timely with bound `n`;
//! * [`PartiallySynchronous`] — a designated *timely set* steps regularly
//!   while the rest step ever more rarely (growing gaps ⇒ not timely);
//! * [`Flicker`] — a process alternates bursts of activity and growing
//!   silences, the "flickering" behavior of Section 4;
//! * [`SoloAfter`] — obstruction-freedom's regime: one process eventually
//!   runs solo;
//! * [`SeededRandom`] / [`Weighted`] — randomized interleavings for
//!   property-based testing;
//! * [`Scripted`] — an explicit step sequence for adversarial
//!   counterexamples (e.g. the boosting-starvation run of E5);
//! * [`NemesisSchedule`] — a round-robin base whose timely set can be
//!   perturbed *mid-run* through a [`ScheduleCtl`] handle, which is how
//!   the nemesis (see the [`nemesis`](crate::nemesis) module) demotes and
//!   flickers processes.
//!
//! Schedules run once per simulated step, so the ones on the hot path do
//! work only on change. A [`ScheduleCtl`] carries a version that every
//! mutation bumps; [`NemesisSchedule`] re-reads the control sets only
//! when that version (or `n`) moved, and otherwise walks cached lists of
//! its demoted and flickering processes. Cursors wrap with a compare, not
//! a division. The model checker's [`Tapped`] recorder writes only the
//! decision window its [`DecisionLog`] was built for.

use crate::ids::ProcId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// What a schedule may inspect when choosing the next process.
#[derive(Debug)]
pub struct ScheduleView<'a> {
    /// Number of processes in the system.
    pub n: usize,
    /// `runnable[p]` is false if `p` crashed or all of its tasks returned.
    pub runnable: &'a [bool],
    /// Current global time.
    pub time: u64,
}

impl ScheduleView<'_> {
    /// First runnable process at or after `start` (wrapping), if any.
    /// A `start` of `n` or more is taken modulo `n`.
    pub fn next_runnable_from(&self, start: usize) -> Option<ProcId> {
        let runnable = &self.runnable[..self.n];
        let start = if start < self.n {
            start
        } else {
            start % self.n.max(1)
        };
        // Scan [start, n) and then [0, start): a wrap without a division.
        runnable[start..]
            .iter()
            .position(|&r| r)
            .map(|k| start + k)
            .or_else(|| runnable[..start].iter().position(|&r| r))
            .map(ProcId)
    }

    /// Whether any process can still take a step.
    pub fn any_runnable(&self) -> bool {
        self.runnable.iter().any(|&r| r)
    }

    /// The runnable processes, in id order.
    pub fn runnable_set(&self) -> Vec<ProcId> {
        (0..self.n)
            .filter(|&p| self.runnable[p])
            .map(ProcId)
            .collect()
    }

    /// The runnable set as a bitmask: bit `p` is set iff `p` is runnable.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` (the model checker that consumes masks only
    /// explores small systems).
    pub fn runnable_mask(&self) -> u64 {
        assert!(self.n <= 64, "runnable_mask supports at most 64 processes");
        (0..self.n)
            .filter(|&p| self.runnable[p])
            .fold(0u64, |m, p| m | (1 << p))
    }
}

/// Decides which process takes the step at each time.
///
/// If the returned process is not runnable, the runner falls back to the
/// next runnable process in id order (so schedules may ignore crashes).
pub trait Schedule {
    /// The process to step at time `view.time`.
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId;

    /// The set of processes this schedule *intends* to keep timely, if it
    /// has a designed ground truth. Used by experiments for labelling;
    /// tests always re-measure timeliness from the trace.
    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        (0..n).map(ProcId).collect()
    }
}

impl Schedule for Box<dyn Schedule> {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        (**self).next(view)
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        (**self).intended_timely(n)
    }
}

/// Every process steps in turn: the fully synchronous regime.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    /// The last chosen process plus one, so at most `n`.
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin schedule starting at process 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for RoundRobin {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let start = if self.cursor < view.n { self.cursor } else { 0 };
        let p = view.next_runnable_from(start).unwrap_or(ProcId(0));
        self.cursor = p.0 + 1;
        p
    }
}

/// A designated timely set steps round-robin; the remaining processes get
/// one step every `gap` rounds of the timely set — and if `growing_gaps`
/// is set, the gap doubles each time, so the slow processes are *not*
/// timely (no fixed bound exists).
#[derive(Clone, Debug)]
pub struct PartiallySynchronous {
    timely: Vec<ProcId>,
    timely_cursor: usize,
    slow_cursor: usize,
    growth: GapGrowth,
    current_gap: u64,
    since_slow: u64,
}

/// How the slow processes' step gaps evolve in [`PartiallySynchronous`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GapGrowth {
    /// Fixed gap: the slow processes are *still timely*, just with a large
    /// bound. Useful as a control.
    Constant,
    /// The gap grows by the given increment after every slow step: the
    /// slow processes are not timely, but their steps stay dense enough
    /// (quadratic times) for finite-window growth checks.
    Linear(u64),
    /// The gap doubles after every slow step: the slow processes are not
    /// timely and become extremely rare (exponential times).
    Doubling,
}

impl PartiallySynchronous {
    /// Creates a schedule in which exactly `timely` keeps a constant step
    /// cadence. `gap` is the initial number of timely steps between two
    /// consecutive slow-process steps; `growing_gaps` selects
    /// [`GapGrowth::Doubling`] (true) or [`GapGrowth::Constant`] (false).
    pub fn new(timely: Vec<ProcId>, gap: u64, growing_gaps: bool) -> Self {
        Self::with_growth(
            timely,
            gap,
            if growing_gaps {
                GapGrowth::Doubling
            } else {
                GapGrowth::Constant
            },
        )
    }

    /// Creates the schedule with an explicit gap-growth law.
    pub fn with_growth(timely: Vec<ProcId>, gap: u64, growth: GapGrowth) -> Self {
        assert!(!timely.is_empty(), "timely set must be non-empty");
        assert!(gap >= 1, "gap must be at least 1");
        PartiallySynchronous {
            timely,
            timely_cursor: 0,
            slow_cursor: 0,
            growth,
            current_gap: gap,
            since_slow: 0,
        }
    }
}

impl Schedule for PartiallySynchronous {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let slow: Vec<ProcId> = (0..view.n)
            .map(ProcId)
            .filter(|p| !self.timely.contains(p))
            .collect();
        if !slow.is_empty() && self.since_slow >= self.current_gap {
            self.since_slow = 0;
            self.current_gap = match self.growth {
                GapGrowth::Constant => self.current_gap,
                GapGrowth::Linear(inc) => (self.current_gap + inc).min(1 << 40),
                GapGrowth::Doubling => (self.current_gap * 2).min(1 << 40),
            };
            let p = slow[self.slow_cursor % slow.len()];
            self.slow_cursor += 1;
            return p;
        }
        self.since_slow += 1;
        let p = self.timely[self.timely_cursor % self.timely.len()];
        self.timely_cursor += 1;
        p
    }

    fn intended_timely(&self, _n: usize) -> Vec<ProcId> {
        self.timely.clone()
    }
}

/// One process "flickers": it runs in bursts separated by growing
/// silences, so it is correct but not timely. Everyone else round-robins.
#[derive(Clone, Debug)]
pub struct Flicker {
    flickerer: ProcId,
    burst_len: u64,
    growth: GapGrowth,
    in_burst: bool,
    remaining: u64,
    quiet_len: u64,
    others_cursor: usize,
    /// Step counter used to interleave the flickerer's burst steps 1:1
    /// with the others' steps during a burst.
    parity: bool,
}

impl Flicker {
    /// Creates a flicker schedule: `flickerer` steps for `burst_len` of its
    /// own steps, then is silent while the others take `initial_quiet`
    /// steps, with the quiet period doubling after each burst.
    pub fn new(flickerer: ProcId, burst_len: u64, initial_quiet: u64) -> Self {
        Self::with_quiet_growth(flickerer, burst_len, initial_quiet, GapGrowth::Doubling)
    }

    /// Like [`Flicker::new`] with an explicit quiet-period growth law
    /// (any growing law keeps the flickerer non-timely; linear growth
    /// keeps its bursts dense enough for finite-trace convergence checks).
    pub fn with_quiet_growth(
        flickerer: ProcId,
        burst_len: u64,
        initial_quiet: u64,
        growth: GapGrowth,
    ) -> Self {
        Flicker {
            flickerer,
            burst_len,
            growth,
            in_burst: true,
            remaining: burst_len,
            quiet_len: initial_quiet,
            others_cursor: 0,
            parity: false,
        }
    }
}

impl Schedule for Flicker {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let others: Vec<ProcId> = (0..view.n)
            .map(ProcId)
            .filter(|&p| p != self.flickerer)
            .collect();
        if self.in_burst {
            self.parity = !self.parity;
            if self.parity {
                self.remaining -= 1;
                if self.remaining == 0 {
                    self.in_burst = false;
                    self.remaining = self.quiet_len;
                    self.quiet_len = match self.growth {
                        GapGrowth::Constant => self.quiet_len,
                        GapGrowth::Linear(inc) => (self.quiet_len + inc).min(1 << 40),
                        GapGrowth::Doubling => (self.quiet_len * 2).min(1 << 40),
                    };
                }
                return self.flickerer;
            }
        } else {
            self.remaining -= 1;
            if self.remaining == 0 {
                self.in_burst = true;
                self.remaining = self.burst_len;
            }
        }
        let p = others[self.others_cursor % others.len()];
        self.others_cursor += 1;
        p
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        (0..n)
            .map(ProcId)
            .filter(|&p| p != self.flickerer)
            .collect()
    }
}

/// Round-robin until `t0`, then only `solo` steps: the obstruction-freedom
/// regime ("there is a time after which some process runs solo").
#[derive(Clone, Debug)]
pub struct SoloAfter {
    t0: u64,
    solo: ProcId,
    rr: RoundRobin,
}

impl SoloAfter {
    /// Creates the schedule; `solo` runs alone from time `t0` on.
    pub fn new(t0: u64, solo: ProcId) -> Self {
        SoloAfter {
            t0,
            solo,
            rr: RoundRobin::new(),
        }
    }
}

impl Schedule for SoloAfter {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        if view.time >= self.t0 {
            self.solo
        } else {
            self.rr.next(view)
        }
    }

    fn intended_timely(&self, _n: usize) -> Vec<ProcId> {
        vec![self.solo]
    }
}

/// Uniformly random runnable process, seeded for reproducibility.
#[derive(Debug)]
pub struct SeededRandom {
    rng: StdRng,
}

impl SeededRandom {
    /// Creates the schedule from a seed.
    pub fn new(seed: u64) -> Self {
        SeededRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Schedule for SeededRandom {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let start = self.rng.random_range(0..view.n);
        view.next_runnable_from(start).unwrap_or(ProcId(0))
    }
}

/// Random process with per-process weights; heavy processes are (very
/// likely) timely, near-zero-weight processes are starved for long
/// stretches.
#[derive(Debug)]
pub struct Weighted {
    weights: Vec<f64>,
    rng: StdRng,
}

impl Weighted {
    /// Creates the schedule. `weights[p]` is proportional to the step rate
    /// of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// weight, or if all weights are zero.
    pub fn new(weights: Vec<f64>, seed: u64) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0));
        assert!(weights.iter().sum::<f64>() > 0.0);
        Weighted {
            weights,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Schedule for Weighted {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let total: f64 = (0..view.n)
            .filter(|&p| view.runnable[p])
            .map(|p| self.weights.get(p).copied().unwrap_or(0.0))
            .sum();
        if total <= 0.0 {
            return view.next_runnable_from(0).unwrap_or(ProcId(0));
        }
        let mut x = self.rng.random_range(0.0..total);
        for p in 0..view.n {
            if !view.runnable[p] {
                continue;
            }
            let w = self.weights.get(p).copied().unwrap_or(0.0);
            if x < w {
                return ProcId(p);
            }
            x -= w;
        }
        view.next_runnable_from(0).unwrap_or(ProcId(0))
    }
}

/// An explicit step script, repeated cyclically once exhausted.
#[derive(Clone, Debug)]
pub struct Scripted {
    script: Vec<ProcId>,
    cursor: usize,
}

impl Scripted {
    /// Creates the schedule from a non-empty step script.
    ///
    /// # Panics
    ///
    /// Panics if `script` is empty.
    pub fn new(script: Vec<ProcId>) -> Self {
        assert!(!script.is_empty(), "script must be non-empty");
        Scripted { script, cursor: 0 }
    }
}

impl Schedule for Scripted {
    fn next(&mut self, _view: &ScheduleView<'_>) -> ProcId {
        let p = self.script[self.cursor % self.script.len()];
        self.cursor += 1;
        p
    }
}

/// One recorded scheduler decision point: the time, what was runnable,
/// and which process the schedule chose (before any runner fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Global time of the decision.
    pub time: u64,
    /// Runnable set at the decision, as a [`ScheduleView::runnable_mask`].
    pub runnable: u64,
    /// The process the schedule returned.
    pub chosen: ProcId,
}

/// Shared log of scheduler decision points inside one window of times,
/// filled by [`Tapped`].
///
/// This is the model checker's *validation tap*: the checker predicts the
/// runnable set at every decision slot of its enumerated window
/// analytically, and after the run asserts the prediction against what
/// the engine actually saw. Only decisions at times inside the log's
/// window are recorded, so a tapped run pays for the window and not for
/// the rest of its horizon. Cloning yields another handle to the same
/// log.
#[derive(Clone)]
pub struct DecisionLog {
    window: Range<u64>,
    inner: Rc<RefCell<Vec<Decision>>>,
}

impl DecisionLog {
    /// Creates an empty log that records the decisions at times in
    /// `window`.
    pub fn new(window: Range<u64>) -> Self {
        DecisionLog {
            window,
            inner: Rc::default(),
        }
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no decision has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Copies out all recorded decisions, in decision order.
    pub fn snapshot(&self) -> Vec<Decision> {
        self.inner.borrow().clone()
    }

    fn push(&self, d: Decision) {
        self.inner.borrow_mut().push(d);
    }
}

/// Wraps a schedule and records the decision points inside its
/// [`DecisionLog`]'s window — the decision-point hook of the model
/// checker.
///
/// The wrapper is transparent: it delegates `next` to the inner schedule
/// and, for a time inside the window, records `(time, runnable mask,
/// chosen)` on the way out, so a tapped run is step-for-step identical
/// to an untapped one.
pub struct Tapped<S> {
    inner: S,
    log: DecisionLog,
}

impl<S> Tapped<S> {
    /// Wraps `inner`, recording its decisions into `log`.
    pub fn new(inner: S, log: DecisionLog) -> Self {
        Tapped { inner, log }
    }
}

impl<S: Schedule> Schedule for Tapped<S> {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let p = self.inner.next(view);
        if self.log.window.contains(&view.time) {
            self.log.push(Decision {
                time: view.time,
                runnable: view.runnable_mask(),
                chosen: p,
            });
        }
        p
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        self.inner.intended_timely(n)
    }
}

/// Plays an explicit script over a window of decision slots and delegates
/// to an inner schedule everywhere else.
///
/// At times `start ≤ t < start + script.len()` the decision is
/// `script[t - start]`; before and after the window the inner schedule
/// decides. This is how the model checker splices one enumerated decision
/// window into an otherwise deterministic background schedule: the system
/// warms up under `inner`, the window perturbs it, and the effects unfold
/// under `inner` again until the horizon.
pub struct ScriptedWindow<S> {
    start: u64,
    script: Vec<ProcId>,
    inner: S,
}

impl<S> ScriptedWindow<S> {
    /// Creates the schedule; the window covers
    /// `[start, start + script.len())`.
    ///
    /// # Panics
    ///
    /// Panics if `script` is empty.
    pub fn new(start: u64, script: Vec<ProcId>, inner: S) -> Self {
        assert!(!script.is_empty(), "window script must be non-empty");
        ScriptedWindow {
            start,
            script,
            inner,
        }
    }
}

impl<S: Schedule> Schedule for ScriptedWindow<S> {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        match view.time.checked_sub(self.start) {
            Some(k) if (k as usize) < self.script.len() => self.script[k as usize],
            _ => self.inner.next(view),
        }
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        self.inner.intended_timely(n)
    }
}

#[derive(Default)]
struct CtlState {
    demoted: BTreeSet<usize>,
    flickering: BTreeSet<usize>,
}

#[derive(Default)]
struct CtlShared {
    sets: RefCell<CtlState>,
    /// Bumped by every mutation, so a schedule that sees an unchanged
    /// version can skip re-reading the sets.
    version: Cell<u64>,
}

/// Shared control handle of a [`NemesisSchedule`].
///
/// Cloning yields another handle to the same state; the nemesis holds
/// one clone and mutates it mid-run while the runner drives the schedule
/// through the other. All mutations happen at the runner's fixed poll
/// points, so they are deterministic.
#[derive(Clone, Default)]
pub struct ScheduleCtl {
    inner: Rc<CtlShared>,
}

impl ScheduleCtl {
    /// Creates a control handle with no perturbations.
    pub fn new() -> Self {
        Self::default()
    }

    fn update(&self, f: impl FnOnce(&mut CtlState)) {
        f(&mut self.inner.sets.borrow_mut());
        self.inner.version.set(self.inner.version.get() + 1);
    }

    /// Removes `p` from the timely set: its step gaps start doubling, so
    /// it stays correct but stops being timely.
    pub fn demote(&self, p: ProcId) {
        self.update(|st| {
            st.demoted.insert(p.0);
        });
    }

    /// Undoes [`ScheduleCtl::demote`]: `p` rejoins the round-robin.
    pub fn promote(&self, p: ProcId) {
        self.update(|st| {
            st.demoted.remove(&p.0);
        });
    }

    /// Starts flickering `p`: bursts of regular steps separated by
    /// silences that double in length.
    pub fn flicker_start(&self, p: ProcId) {
        self.update(|st| {
            st.flickering.insert(p.0);
        });
    }

    /// Stops flickering `p`.
    pub fn flicker_stop(&self, p: ProcId) {
        self.update(|st| {
            st.flickering.remove(&p.0);
        });
    }

    /// Snapshot of the currently perturbed (demoted or flickering)
    /// processes.
    pub fn perturbed(&self) -> Vec<ProcId> {
        let st = self.inner.sets.borrow();
        st.demoted
            .union(&st.flickering)
            .copied()
            .map(ProcId)
            .collect()
    }
}

/// Per-process pacing state of a demoted process.
#[derive(Clone, Copy, Default)]
struct SlowState {
    active: bool,
    next_due: u64,
    gap: u64,
}

/// Per-process burst/silence state of a flickering process.
#[derive(Clone, Copy, Default)]
struct FlickState {
    active: bool,
    on: bool,
    until: u64,
    quiet: u64,
}

/// Round-robin over a timely set that a [`ScheduleCtl`] can shrink and
/// grow mid-run.
///
/// Processes start timely. A *demoted* process receives steps at times
/// with doubling gaps (correct, not timely); a *flickering* process
/// alternates bursts of round-robin participation with silences that
/// double in length. Everyone else round-robins. The schedule is a pure
/// state machine over `(time, ctl state)`, so runs remain deterministic.
///
/// A perturbation takes effect at the first decision after the control
/// changed. The schedule notices a change by the control's version, so a
/// step without one costs a version load, a walk over the (usually
/// empty) demoted and flickering lists, and the round-robin scan.
pub struct NemesisSchedule {
    ctl: ScheduleCtl,
    /// The control version and system size the per-process state was
    /// last synced at; `None` before the first decision.
    synced: Option<(u64, usize)>,
    /// The last round-robin choice plus one, so at most `n`.
    cursor: usize,
    slow: Vec<SlowState>,
    flick: Vec<FlickState>,
    /// The processes with `slow[p].active`, in id order.
    demoted: Vec<usize>,
    /// The processes with `flick[p].active`, in id order.
    flickering: Vec<usize>,
}

/// Initial gap of a freshly demoted process (doubles from there).
const DEMOTE_GAP0: u64 = 8;
/// Length of a flicker burst, in global steps.
const FLICKER_BURST: u64 = 32;
/// Initial flicker silence (doubles after each burst).
const FLICKER_QUIET0: u64 = 64;

impl NemesisSchedule {
    /// Creates the schedule; mutate its timely set through `ctl`.
    pub fn new(ctl: ScheduleCtl) -> Self {
        NemesisSchedule {
            ctl,
            synced: None,
            cursor: 0,
            slow: Vec::new(),
            flick: Vec::new(),
            demoted: Vec::new(),
            flickering: Vec::new(),
        }
    }

    /// Brings the per-process state in line with the control sets if the
    /// control changed (or `n` did) since the last decision: a newly
    /// demoted or flickering process starts its pacing at `t`, a
    /// released one stops.
    fn sync(&mut self, n: usize, t: u64) {
        let version = self.ctl.inner.version.get();
        if self.synced == Some((version, n)) {
            return;
        }
        if self.synced.map(|(_, m)| m) != Some(n) {
            // Only the cursor's residue matters; reduce it once here so
            // the per-step wrap stays a compare.
            self.cursor %= n.max(1);
            self.slow.resize(n, SlowState::default());
            self.flick.resize(n, FlickState::default());
        }
        self.synced = Some((version, n));
        self.demoted.clear();
        self.flickering.clear();
        let st = self.ctl.inner.sets.borrow();
        for p in 0..n {
            let s = &mut self.slow[p];
            if !st.demoted.contains(&p) {
                s.active = false;
            } else if !s.active {
                *s = SlowState {
                    active: true,
                    next_due: t + DEMOTE_GAP0,
                    gap: DEMOTE_GAP0,
                };
            }
            if s.active {
                self.demoted.push(p);
            }
            let f = &mut self.flick[p];
            if !st.flickering.contains(&p) {
                f.active = false;
            } else if !f.active {
                *f = FlickState {
                    active: true,
                    on: true,
                    until: t + FLICKER_BURST,
                    quiet: FLICKER_QUIET0,
                };
            }
            if f.active {
                self.flickering.push(p);
            }
        }
    }
}

impl Schedule for NemesisSchedule {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        let (n, t) = (view.n, view.time);
        self.sync(n, t);
        for &p in &self.flickering {
            let f = &mut self.flick[p];
            if t >= f.until {
                if f.on {
                    f.on = false;
                    f.until = t + f.quiet;
                    f.quiet = (f.quiet * 2).min(1 << 40);
                } else {
                    f.on = true;
                    f.until = t + FLICKER_BURST;
                }
            }
        }
        // A demoted process whose gap has elapsed takes priority: it must
        // keep stepping (it is correct!), just ever more rarely.
        for &p in &self.demoted {
            let s = &mut self.slow[p];
            if view.runnable[p] && t >= s.next_due {
                s.gap = (s.gap * 2).min(1 << 40);
                s.next_due = t + s.gap;
                return ProcId(p);
            }
        }
        // Round-robin over the unperturbed (and currently-bursting) rest.
        let start = if self.cursor < n { self.cursor } else { 0 };
        let mut p = start;
        for _ in 0..n {
            let eligible = view.runnable[p]
                && !self.slow[p].active
                && (!self.flick[p].active || self.flick[p].on);
            if eligible {
                self.cursor = p + 1;
                return ProcId(p);
            }
            p += 1;
            if p == n {
                p = 0;
            }
        }
        // Everyone is perturbed or blocked: fall back to any runnable
        // process so the run never stalls.
        view.next_runnable_from(start).unwrap_or(ProcId(0))
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        let perturbed = self.ctl.perturbed();
        (0..n)
            .map(ProcId)
            .filter(|p| !perturbed.contains(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(runnable: &'a [bool], time: u64) -> ScheduleView<'a> {
        ScheduleView {
            n: runnable.len(),
            runnable,
            time,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobin::new();
        let r = [true, true, true];
        let seq: Vec<usize> = (0..6).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_crashed() {
        let mut s = RoundRobin::new();
        let r = [true, false, true];
        let seq: Vec<usize> = (0..4).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![0, 2, 0, 2]);
    }

    #[test]
    fn partially_synchronous_growing_gaps() {
        let mut s = PartiallySynchronous::new(vec![ProcId(0), ProcId(1)], 2, true);
        let r = [true, true, true];
        let mut slow_times = Vec::new();
        for t in 0..200 {
            if s.next(&view(&r, t)) == ProcId(2) {
                slow_times.push(t);
            }
        }
        assert!(slow_times.len() >= 3);
        // gaps between slow steps must grow
        let gaps: Vec<u64> = slow_times.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] > w[0], "gaps must grow: {gaps:?}");
        }
    }

    #[test]
    fn solo_after_switches() {
        let mut s = SoloAfter::new(4, ProcId(2));
        let r = [true, true, true];
        let seq: Vec<usize> = (0..8).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(&seq[4..], &[2, 2, 2, 2]);
    }

    #[test]
    fn scripted_repeats() {
        let mut s = Scripted::new(vec![ProcId(1), ProcId(0)]);
        let r = [true, true];
        let seq: Vec<usize> = (0..5).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![1, 0, 1, 0, 1]);
    }

    #[test]
    fn runnable_set_and_mask() {
        let v = view(&[true, false, true], 0);
        assert_eq!(v.runnable_set(), vec![ProcId(0), ProcId(2)]);
        assert_eq!(v.runnable_mask(), 0b101);
        let none = view(&[false, false], 0);
        assert!(none.runnable_set().is_empty());
        assert_eq!(none.runnable_mask(), 0);
    }

    #[test]
    fn scripted_exhausted_mid_run_repeats_cyclically() {
        // The decision list is shorter than the run: once exhausted it
        // wraps, so a k-entry script denotes the infinite periodic
        // schedule, which is what shrunk repro scripts replay under.
        let mut s = Scripted::new(vec![ProcId(2), ProcId(0), ProcId(1)]);
        let r = [true, true, true];
        let seq: Vec<usize> = (0..8).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn scripted_ignores_runnability() {
        // `Scripted` returns the scripted id even when that process is
        // not runnable; the *runner* applies the id-order fallback (see
        // the runner test `scripted_nonrunnable_decision_falls_back`).
        let mut s = Scripted::new(vec![ProcId(1)]);
        let r = [true, false];
        assert_eq!(s.next(&view(&r, 0)), ProcId(1));
    }

    #[test]
    fn tapped_records_decisions_transparently() {
        let log = DecisionLog::new(0..4);
        let mut tapped = Tapped::new(RoundRobin::new(), log.clone());
        let mut plain = RoundRobin::new();
        let r = [true, false, true];
        for t in 0..4 {
            assert_eq!(tapped.next(&view(&r, t)), plain.next(&view(&r, t)));
        }
        let ds = log.snapshot();
        assert_eq!(ds.len(), 4);
        assert_eq!(
            ds[0],
            Decision {
                time: 0,
                runnable: 0b101,
                chosen: ProcId(0),
            }
        );
        assert_eq!(ds[1].chosen, ProcId(2));
        assert!(ds.iter().all(|d| d.runnable == 0b101));
    }

    #[test]
    fn tapped_records_only_its_window() {
        let log = DecisionLog::new(2..5);
        let mut tapped = Tapped::new(RoundRobin::new(), log.clone());
        let r = [true, true, true];
        let seq: Vec<usize> = (0..8).map(|t| tapped.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        let recorded: Vec<(u64, usize)> = log
            .snapshot()
            .iter()
            .map(|d| (d.time, d.chosen.0))
            .collect();
        assert_eq!(recorded, vec![(2, 2), (3, 0), (4, 1)]);
    }

    #[test]
    fn next_runnable_from_wraps() {
        let v = view(&[false, true, false, true], 0);
        let from = |s| v.next_runnable_from(s).map(|p| p.0);
        assert_eq!(
            (0..9).map(from).collect::<Vec<_>>(),
            [1, 1, 3, 3, 1, 1, 3, 3, 1].map(Some)
        );
        assert_eq!(view(&[false, false], 0).next_runnable_from(1), None);
        assert_eq!(view(&[], 0).next_runnable_from(3), None);
    }

    #[test]
    fn scripted_window_splices_into_inner() {
        let mut s = ScriptedWindow::new(3, vec![ProcId(2), ProcId(2)], RoundRobin::new());
        let r = [true, true, true];
        let seq: Vec<usize> = (0..8).map(|t| s.next(&view(&r, t)).0).collect();
        // Round-robin before the window, the script inside it, and the
        // inner schedule resuming where it left off after it.
        assert_eq!(&seq[..3], &[0, 1, 2]);
        assert_eq!(&seq[3..5], &[2, 2]);
        assert_eq!(&seq[5..], &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "window script must be non-empty")]
    fn scripted_window_rejects_empty_script() {
        let _ = ScriptedWindow::new(0, Vec::new(), RoundRobin::new());
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let r = [true, true, true, true];
        let run = |seed| {
            let mut s = SeededRandom::new(seed);
            (0..50).map(|t| s.next(&view(&r, t)).0).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn weighted_prefers_heavy() {
        let mut s = Weighted::new(vec![100.0, 1.0], 42);
        let r = [true, true];
        let heavy = (0..1000)
            .filter(|&t| s.next(&view(&r, t)) == ProcId(0))
            .count();
        assert!(heavy > 900, "heavy process took {heavy}/1000 steps");
    }

    #[test]
    fn nemesis_schedule_round_robins_unperturbed() {
        let mut s = NemesisSchedule::new(ScheduleCtl::new());
        let r = [true, true, true];
        let seq: Vec<usize> = (0..6).map(|t| s.next(&view(&r, t)).0).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn demoted_process_gets_growing_gaps() {
        let ctl = ScheduleCtl::new();
        let mut s = NemesisSchedule::new(ctl.clone());
        ctl.demote(ProcId(2));
        let r = [true, true, true];
        let mut slow_times = Vec::new();
        for t in 0..2000 {
            if s.next(&view(&r, t)) == ProcId(2) {
                slow_times.push(t);
            }
        }
        assert!(
            slow_times.len() >= 4,
            "demoted process starved: {slow_times:?}"
        );
        let gaps: Vec<u64> = slow_times.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] > w[0], "gaps must grow: {gaps:?}");
        }
        assert_eq!(s.intended_timely(3), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn promote_restores_regular_steps() {
        let ctl = ScheduleCtl::new();
        let mut s = NemesisSchedule::new(ctl.clone());
        ctl.demote(ProcId(1));
        let r = [true, true];
        for t in 0..500 {
            s.next(&view(&r, t));
        }
        ctl.promote(ProcId(1));
        let late: Vec<usize> = (500..520).map(|t| s.next(&view(&r, t)).0).collect();
        let ones = late.iter().filter(|&&p| p == 1).count();
        assert!(ones >= 8, "promoted process still starved: {late:?}");
    }

    #[test]
    fn flickering_process_has_growing_silences() {
        let ctl = ScheduleCtl::new();
        let mut s = NemesisSchedule::new(ctl.clone());
        ctl.flicker_start(ProcId(0));
        let r = [true, true];
        let mut times = Vec::new();
        for t in 0..4000 {
            if s.next(&view(&r, t)) == ProcId(0) {
                times.push(t);
            }
        }
        assert!(times.len() > 10);
        let gap = |ts: &[u64]| ts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mid = times.len() / 2;
        assert!(gap(&times[mid..]) > gap(&times[..mid.max(2)]));
    }

    #[test]
    fn flicker_has_growing_silences() {
        let mut s = Flicker::new(ProcId(0), 3, 4);
        let r = [true, true, true];
        let mut times = Vec::new();
        for t in 0..500 {
            if s.next(&view(&r, t)) == ProcId(0) {
                times.push(t);
            }
        }
        // find the largest gap in the first half vs second half: must grow
        let gap = |ts: &[u64]| ts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mid = times.len() / 2;
        assert!(gap(&times[mid..]) > gap(&times[..mid.max(2)]));
    }
}
